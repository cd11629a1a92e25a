"""Zipfian key generator, YCSB-style.

Implements the classic Gray et al. "Quickly generating billion-record
synthetic databases" method used by YCSB's ZipfianGenerator: O(n) setup,
O(1) sampling. ``theta`` near 0 approaches uniform; YCSB's default is
0.99 (highly skewed). The O(n) part, the zeta sums, is computed once per
``(n, theta)`` and shared by every generator built over that input.
"""

import functools
import math
import random


@functools.lru_cache(maxsize=64)
def _zeta(n, theta):
    """``sum(1 / i**theta for i in 1..n)``: the O(n) setup of a generator."""
    return sum(1.0 / math.pow(i, theta) for i in range(1, n + 1))


class ZipfGenerator:
    def __init__(self, n, theta=0.99, seed=42):
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0.0 <= theta < 1.0:
            raise ValueError("theta must be in [0, 1)")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._zetan = _zeta(n, theta)
        self._zeta2 = _zeta(min(n, 2), theta)
        self._alpha = 1.0 / (1.0 - theta) if theta else 1.0
        denom = 1.0 - self._zeta2 / self._zetan
        self._eta = ((1.0 - math.pow(2.0 / n, 1.0 - theta)) / denom
                     if theta and denom else 0.0)

    def next(self):
        """Next key in [0, n); key 0 is the most popular."""
        if not self.theta:
            return self._rng.randrange(self.n)
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + math.pow(0.5, self.theta):
            return 1
        return int(self.n * math.pow(self._eta * u - self._eta + 1.0,
                                     self._alpha))

    def sample(self, count):
        return [self.next() for _ in range(count)]

    def __iter__(self):
        while True:
            yield self.next()
