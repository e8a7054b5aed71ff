"""Step-size sequences with the stability/prox admissibility thresholds
made checkable.  Only nonsummable families are constructible.
"""

import math
from dataclasses import dataclass

from .landscape import require_positive_finite


@dataclass(frozen=True)
class StepSchedule:
    """alpha_k = c / (k+1)^p with p in [0, 1]; p = 0 is the constant
    schedule alpha_k = c, and ``alpha`` returns c itself there.

    Every member is nonsummable: for p <= 1, sum_{k<K} c / (k+1)^p >=
    sum_{k<K} c / (k+1) >= c ln(K+1), which passes every bound.  p > 1
    would make the sequence summable and is rejected: every reachability
    and stability statement assumes a divergent step sum.  sup_alpha = c.
    """

    c: float
    p: float = 0.0

    def __post_init__(self):
        require_positive_finite(c=self.c)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("power exponent must lie in [0, 1] (nonsummable)")

    @property
    def sup_alpha(self):
        return self.c

    def alpha(self, k):
        return self.c / (k + 1.0) ** self.p if self.p else self.c

    def scaled(self, factor):
        """Same family with c scaled; used when shrinking sup_alpha."""
        return StepSchedule(self.c * factor, self.p)


def constant(c):
    return StepSchedule(c)


def power(c, p):
    return StepSchedule(c, p)


def admissible(s, f, regime):
    """stability: sup alpha < 2/L (plain descent); prox: sup alpha < 1/L
    (the regime in which the implicit reverse step is a contraction)."""
    if regime not in ("stability", "prox"):
        raise ValueError(f"unknown regime {regime!r}")
    L = f.lipschitz_L
    if L == 0.0:
        return True
    bound = 2.0 / L if regime == "stability" else 1.0 / L
    return s.sup_alpha < bound


def require_admissible(s, f, regime, what):
    """Raise ValueError, naming sup alpha and the bound, unless s is a
    schedule admissible for f in ``regime``."""
    if s is None or not admissible(s, f, regime):
        n = 2 if regime == "stability" else 1
        given = "no schedule given" if s is None else f"sup alpha = {s.sup_alpha}"
        raise ValueError(f"{what} needs sup alpha < {n}/L ({regime} regime): {given}, "
                         f"{n}/L = {n / f.lipschitz_L if f.lipschitz_L else math.inf}")


def parse_schedule(text):
    """CLI grammar: 'constant:0.5' or 'power:1.0:0.5' (c then p);
    'power:C:0' is 'constant:C'.  A C or P that is not a number is a bad
    schedule, as a malformed shape is."""
    kind, *numbers = text.split(":")
    try:
        numbers = [float(v) for v in numbers]
    except ValueError:
        numbers = ()
    if kind == "constant" and len(numbers) == 1:
        return constant(*numbers)
    if kind == "power" and len(numbers) == 2:
        return power(*numbers)
    raise ValueError(f"bad schedule {text!r}; use constant:C or power:C:P")


def format_schedule(s):
    """s in the CLI grammar, parse_schedule's inverse (repr round-trips):
    constant:C for p = 0, else power:C:P."""
    return f"power:{float(s.c)!r}:{float(s.p)!r}" if s.p else f"constant:{float(s.c)!r}"
