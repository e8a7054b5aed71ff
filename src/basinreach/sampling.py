"""Deterministic direction sampling.

A 64-bit linear congruential generator feeds Box-Muller Gaussian pairs
that are normalized into unit directions.  The recurrence is fixed
(Knuth's MMIX constants), so probe start points and ascent-seed scans
are reproducible for a given integer seed without depending on numpy's
RNG internals.
"""

import math

import numpy as np

from .landscape import require_integer

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
_SEED_MIX = 0x9E3779B97F4A7C15


class Lcg64:
    """state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64.

    Uniform doubles take the top 53 bits of the state; Gaussians come
    from Box-Muller pairs on consecutive uniforms.
    """

    def __init__(self, seed=0):
        require_integer(seed=seed)
        self.state = (int(seed) ^ _SEED_MIX) & _MASK64
        self._spare = None

    def next_uint(self):
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _MASK64
        return self.state

    def uniform(self):
        return (self.next_uint() >> 11) * 2.0 ** -53

    def gaussian(self):
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def direction(self, dim):
        """Unit vector in R^dim; redraws in the (measure-zero) near-null case."""
        while True:
            z = np.array([self.gaussian() for _ in range(dim)])
            n = float(np.linalg.norm(z))
            if n > 1e-12:
                return z / n


def directions(dim, n_random, seed, axis_first=True):
    """Yield 2*dim + n_random unit directions of R^dim: the axis pairs e_1,
    -e_1, e_2, ... and n_random quasi-random ones, axis pairs first unless
    ``axis_first`` is False.  Each quasi-random direction is drawn only
    when asked for, so a scan that stops early draws no more.  In 1-D the
    axis pair is the whole sphere and is all that is yielded."""
    axis = [v for e in np.eye(dim) for v in (e, -e)]
    if axis_first or dim == 1:
        yield from axis
    if dim == 1:
        return
    rng = Lcg64(seed)
    for _ in range(n_random):
        yield rng.direction(dim)
    if not axis_first:
        yield from axis


def unit_directions(dim, n_random, seed):
    """The (2*dim + n_random, dim) array of :func:`directions`' rows, axis
    pairs first (just the axis pair in 1-D)."""
    return np.array(list(directions(dim, n_random, seed)))
