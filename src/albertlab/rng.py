"""Counter-based deterministic random stream (splitmix64).

Draw i of a stream is a pure function of (seed, i), so a search reads
candidate i at its own offset of the stream, and any candidate can be
reproduced on its own.  The algorithm is pinned in docs/schema.md so
reports stay comparable across implementations.  Stream reads one draw
per call; draws reads a run of k of them reduced mod n in one call, for
the witness scans: the k counters packed as 128-bit lanes of one int,
the finalizer run once on the whole int, and the lanes read back by one
struct unpack.
"""

from functools import lru_cache
from struct import Struct

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    z &= MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def draw(seed: int, index: int) -> int:
    """The index-th 64-bit value of the stream with the given seed."""
    return splitmix64((seed + (index + 1) * GOLDEN) & MASK64)


@lru_cache(maxsize=32)
def _lanes(k):
    """(ones, steps, mask, unpack) for k 128-bit lanes, little-endian:
    ones holds 1 in every lane, steps holds (t + 1) GOLDEN in lane t,
    mask holds MASK64 in every lane, and unpack reads the 2k 8-byte
    words of the lanes, lane t's low word at 2t.  One repeat count keeps
    the compiled format small for any k.  A scan asks for one k, the
    dimension of its candidates (search._candidates), so a small cache
    holds every k in use."""
    ones = int.from_bytes((1).to_bytes(16, "little") * k, "little")
    steps = int.from_bytes(b"".join(((t + 1) * GOLDEN).to_bytes(16, "little")
                                    for t in range(k)), "little")
    return ones, steps, MASK64 * ones, Struct("<%dQ" % (2 * k)).unpack


def draws(seed: int, offset: int, k: int, n: int) -> list:
    """[draw(seed, offset + t) % n for t in range(k)], the seed masked as
    Stream masks it, in one pass over k packed lanes (_lanes).

    Lane t starts at b + (t + 1) GOLDEN for b = (seed + offset GOLDEN)
    mod 2^64, below 2^128 for any offset and any k < 2^63, so no lane
    carries into the next, and is masked to 64 bits.  In each finalizer
    round the shifted int is masked before the xor, so no bits of lane
    t + 1 shift into lane t, and the product is masked after the
    multiply; a 64-bit lane times a 64-bit constant stays below 2^128.
    So every high word that the unpack skips is 0."""
    ones, steps, mask, unpack = _lanes(k)
    y = ((seed + offset * GOLDEN) & MASK64) * ones + steps & mask
    y = (y ^ y >> 30 & mask) * 0xBF58476D1CE4E5B9 & mask
    y = (y ^ y >> 27 & mask) * 0x94D049BB133111EB & mask
    y ^= y >> 31 & mask
    return [u % n for u in unpack(y.to_bytes(16 * k, "little"))[::2]]


class Stream:
    """Sequential view over the counter-based stream."""

    def __init__(self, seed: int, offset: int = 0):
        self.seed = seed & MASK64
        self.index = offset

    def next_u64(self) -> int:
        v = draw(self.seed, self.index)
        self.index += 1
        return v

    def next_below(self, n: int) -> int:
        # modulo reduction; the tiny bias is irrelevant for search seeding
        return self.next_u64() % n

    def derive(self, label: str) -> "Stream":
        h = self.seed
        for ch in label.encode():
            h = splitmix64(h ^ ch)
        return Stream(h)
