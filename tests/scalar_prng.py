"""The scalar SplitMix64 draw loops that block draws replaced, kept verbatim
as references: one Python call per draw, in stream order."""

from pashtext.prng import SplitMix64


class ScalarSplitMix64(SplitMix64):
    """SplitMix64 whose bounded draws, shuffle and sampling run the scalar
    loops, drawing through `next_uint64` only."""

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            draw = self.next_uint64()
            if draw < threshold:
                return draw % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, iterating from the last index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, population: int, count: int) -> list[int]:
        """Draw `count` distinct indices from range(population), order randomised.

        Partial Fisher-Yates: only the first `count` positions are settled.
        """
        if count > population:
            raise ValueError("cannot sample more indices than the population size")
        pool = list(range(population))
        for i in range(count):
            j = i + self.next_below(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:count]
