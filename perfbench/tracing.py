"""Traced runs: spans and counts taken around albertlab's layers.

A Tracer wraps each layer's public functions where the program looks
them up (module attributes and class methods), keeps every span
(id, parent, name, start, end, thread) and every count in memory, and
writes them out once at the end.  Untraced runs install no wrapper.

`scalars` and `rng` have no call boundary that could be wrapped without
swamping their cost; their time shows up as self time of the poly.* and
search.* spans.
"""

import collections
import itertools
import json
import threading
import time

from albertlab import config, cubic, galois, isotopy, linalg, poly, search

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("config.build_s", "s"),
    ("cubic.expand_symbolic_s", "s"),
    ("cubic.expand_terms", "count"),
    ("cubic.axiom_suite_s", "s"),
    ("cubic.u_matrix_calls", "count"),
    ("cubic.u_matrix_s", "s"),
    ("poly.mul_calls", "count"),
    ("poly.mul_term_products", "count"),
    ("poly.mul_s", "s"),
    ("poly.compose_calls", "count"),
    ("poly.compose_out_terms", "count"),
    ("poly.compose_s", "s"),
    ("poly.point_eval_calls", "count"),
    ("poly.point_eval_s", "s"),
    ("linalg.matmul_calls", "count"),
    ("linalg.matmul_s", "s"),
    ("linalg.rank_s", "s"),
    ("linalg.kernel_basis_s", "s"),
    ("isotopy.isotope_s", "s"),
    ("isotopy.similarity_calls", "count"),
    ("isotopy.similarity_s", "s"),
    ("galois.extend_rho_s", "s"),
    ("galois.fixed_subspace_s", "s"),
    ("search.candidates", "count"),
    ("search.candidates_per_s", "1/s"),
    ("search.scan_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# spans whose metric is self time: the poly layers nest inside each other
SELF_TIMED = ("poly.mul", "poly.compose", "poly.point_eval")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def _wrap(self, owner, attr, name, after=None):
        orig = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kw):
            label = name(args) if callable(name) else name
            if label is None:
                return orig(*args, **kw)
            stack = tracer._local.__dict__.setdefault("stack", [])
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kw)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, label, t0, t1,
                                     threading.get_ident()))
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def install(self):
        count = self.count
        Poly = poly.Poly
        cns = cubic.CubicNormStructure

        def expanding(args):
            return "cubic.expand_symbolic" if args[0]._n_poly is None \
                else None

        def expanded(args, out):
            n, sh = out
            count("cubic.expand_terms",
                  len(n.terms) + sum(len(p.terms) for p in sh))

        def poly_product(args):
            return "poly.mul" if isinstance(args[1], Poly) else None

        def multiplied(args, out):
            if isinstance(args[1], Poly):
                count("poly.mul_term_products",
                      len(args[0].terms) * len(args[1].terms))

        def evaluation(args):
            return "poly.compose" if any(isinstance(a, Poly)
                                         for a in args[1]) \
                else "poly.point_eval"

        def evaluated(args, out):
            if isinstance(out, Poly):
                count("poly.compose_out_terms", len(out.terms))

        self._wrap(config.BuildContext, "__init__", "config.build")
        self._wrap(cns, "expand_symbolic", expanding, expanded)
        self._wrap(cns, "axiom_suite", "cubic.axiom_suite")
        self._wrap(cns, "u_matrix", "cubic.u_matrix")
        self._wrap(Poly, "__mul__", poly_product, multiplied)
        self._wrap(Poly, "eval", evaluation, evaluated)
        for fn in ("matmul", "rank", "kernel_basis"):
            self._wrap(linalg, fn, "linalg." + fn)
        self._wrap(isotopy, "isotope", "isotopy.isotope")
        self._wrap(isotopy, "verify_norm_similarity", "isotopy.similarity")
        self._wrap(galois, "extend_rho", "galois.extend_rho")
        self._wrap(galois, "fixed_subspace", "galois.fixed_subspace")
        for fn in ("division_falsify", "find_norm_zero", "find_nilpotent"):
            self._wrap(search, fn, "search.scan")

        orig_scan = search._scan

        def scan(indices, candidate, predicate, best):
            n = 0

            def counted(i):
                nonlocal n
                n += 1
                return candidate(i)

            try:
                return orig_scan(indices, counted, predicate, best)
            finally:
                count("search.candidates", n)

        search._scan = scan
        self._undo.append((search, "_scan", orig_scan))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def busy_seconds(self, samples=()):
        """Seconds each span name was busy.

        For SELF_TIMED names a span counts without its child spans; for
        the others only spans with no ancestor of the same name count.
        Intervals are merged across threads, so two search threads in
        the same layer at once count once.  The host-speed samples
        (start, end) taken inside a span are not its work.
        """
        name_of = {s[0]: s[2] for s in self.spans}
        parent_of = {s[0]: s[1] for s in self.spans}
        children = collections.defaultdict(list)
        for sid, parent, name, t0, t1, tid in self.spans:
            children[parent].append((t0, t1))
        pieces = collections.defaultdict(list)
        for sid, parent, name, t0, t1, tid in self.spans:
            if name in SELF_TIMED:
                edge = t0
                for c0, c1 in sorted(children[sid]):
                    if c0 > edge:
                        pieces[name].append((edge, c0))
                    edge = max(edge, c1)
                if t1 > edge:
                    pieces[name].append((edge, t1))
                continue
            p = parent
            while p != -1 and name_of[p] != name:
                p = parent_of[p]
            if p == -1:
                pieces[name].append((t0, t1))
        gaps = _merge(samples)
        busy = {}
        for name, iv in pieces.items():
            merged = _merge(iv)
            busy[name] = _length(merged) - _overlap(merged, gaps)
        return busy

    def metrics(self, factor, overhead, samples):
        """Per-layer metrics; times divided by the host-speed factor."""
        busy = self.busy_seconds(samples)
        calls = collections.Counter(s[2] for s in self.spans)
        out = {}
        for metric, unit in PER_LAYER:
            stem, _, kind = metric.rpartition("_")
            if unit == "s":
                value = busy.get(stem, 0.0) / factor
            elif kind == "calls":
                value = calls[stem]
            else:
                value = self.counts[metric]
            out[metric] = value
        scan = out["search.scan_s"]
        out["search.candidates_per_s"] = \
            out["search.candidates"] / scan if scan else 0.0
        out["trace.overhead_ratio"] = overhead
        return {m: {"value": out[m], "unit": u} for m, u in PER_LAYER}

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, tid in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "thread": tid}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _merge(intervals):
    """Sorted disjoint intervals covering the same points."""
    out = []
    for t0, t1 in sorted(intervals):
        if out and t0 <= out[-1][1]:
            out[-1][1] = max(out[-1][1], t1)
        else:
            out.append([t0, t1])
    return out


def _length(merged):
    return sum(t1 - t0 for t0, t1 in merged)


def _overlap(a, b):
    """Length of the intersection of two merged interval lists."""
    total = 0.0
    i = k = 0
    while i < len(a) and k < len(b):
        lo = max(a[i][0], b[k][0])
        hi = min(a[i][1], b[k][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[k][1]:
            i += 1
        else:
            k += 1
    return total
