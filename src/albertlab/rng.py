"""Counter-based deterministic random stream (splitmix64).

Draw i of a stream is a pure function of (seed, i), so a search reads
candidate i at its own offset of the stream, and any candidate can be
reproduced on its own.  The algorithm is pinned in docs/schema.md so
reports stay comparable across implementations.  Stream reads one draw
per call; draws reads a run of them reduced mod n in one call, with the
finalizer inline, for the witness scans.
"""

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


def draws(seed: int, offset: int, k: int, n: int) -> list:
    """[draw(seed, offset + t) % n for t in range(k)], the seed masked as
    Stream masks it."""
    z = (seed & MASK64) + offset * GOLDEN
    out = []
    for _ in range(k):
        z += GOLDEN
        y = z & MASK64
        y = (y ^ (y >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        y = (y ^ (y >> 27)) * 0x94D049BB133111EB & MASK64
        out.append((y ^ (y >> 31)) % n)
    return out


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
