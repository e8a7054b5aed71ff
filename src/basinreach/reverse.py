"""Exact reverse dynamics for gradient descent.

The proximal mapping and its ascent counterpart are solved by Picard
iteration on y -> x -/+ lambda * grad(y), a strict contraction with
factor lambda * L < 1, so the unique fixed point coincides with the
strongly convex (resp. concave) subproblem optimum and no inner line
search is needed.  The inner tolerance is two orders tighter than the
orbit certificates so residuals never need per-step retuning.
"""

import math
from dataclasses import dataclass

import numpy as np

from .landscape import LeftBoxError, norm, sumsq

FIXED_POINT_RTOL = 1e-13
FORWARD_RESIDUAL_RTOL = 1e-10
_MAX_INNER_ITER = 200_000


@dataclass(frozen=True, eq=False)
class ReverseOrbit:
    """Backward-constructed points x_start..x_kbar with x_kbar = anchor.

    ``points[i]`` is x_{start_index + i}; ``steps_used`` records the
    consumed alpha indices (kbar-1 down to start_index).  ``status`` is
    'left_box' when the construction escaped the operating box early and
    the orbit is partial; that exit is a legitimate escape event for the
    reachability pipeline.  forward_residuals[i] certifies
    |x_{k+1} - (x_k - alpha_k grad(x_k))| for consecutive points.
    """

    points: tuple
    steps_used: tuple
    anchor: np.ndarray
    forward_residuals: tuple
    status: str = "complete"
    start_index: int = 0


def _picard(f, base, lam, sign, tol_scale, g=None):
    """Fixed point of y -> base + sign * lam * grad(y), with base and y
    points of f's lane.  The first iterate needs grad(base): ``g``, when
    the caller already has it.  Returns (y, iters)."""
    tol_sq = (FIXED_POINT_RTOL * (1.0 + tol_scale)) ** 2
    step = sign * lam
    grad, axpy, sub, inside = f._lane.grad, f._lane.axpy, f._lane.sub, f._lane.inside
    y, g = base, grad(base) if g is None else g
    for it in range(1, _MAX_INNER_ITER + 1):
        y_next = axpy(base, step, g)
        if not inside(y_next):
            raise LeftBoxError(y_next, "fixed-point iterate left the operating box")
        d = sub(y_next, y)
        y = y_next
        if sumsq(d) <= tol_sq:
            return y, it
        g = grad(y)
    raise ArithmeticError("fixed-point iteration failed to contract")


def contraction_iteration_bound(lam, L, tol=FIXED_POINT_RTOL):
    """ln(tol)/ln(lam*L) + 2, the certified Picard iteration count."""
    q = lam * L
    if not 0.0 < q < 1.0:
        raise ValueError("contraction bound needs lam * L in (0, 1)")
    return math.log(tol) / math.log(q) + 2.0


def _require_prox_regime(f, lam):
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    if f.lipschitz_L > 0.0 and not lam < 1.0 / f.lipschitz_L:
        raise ValueError(
            f"lambda {lam} is not below 1/L = {1.0 / f.lipschitz_L}: the implicit "
            "step is neither a contraction nor a strongly convex subproblem"
        )


def prox(f, x, lam):
    """argmin_y f(y) + |y - x|^2 / (2 lam) via the implicit equation
    y = x - lam * grad(y), for lam < 1/L."""
    x = np.asarray(x, dtype=float)
    _require_prox_regime(f, lam)
    if not f.in_box(x):
        raise LeftBoxError(x, "prox called outside the operating box")
    y, _ = _picard(f, f._lane.point(x), lam, -1.0, norm(x))
    return np.array(y)


def prox_certificates(f, x, lam, xplus, slack_rtol=1e-9):
    """The two certified inequalities of the proximal step:

    dec_ok : f(x) - f(x+) >= (lam/2) |grad(x+)|^2
    step_ok: |x+ - x| <= 2 lam / (1 - L lam) |grad(x)|

    both with slack slack_rtol * (1 + |f(x)|).
    """
    x = np.asarray(x, dtype=float)
    xplus = np.asarray(xplus, dtype=float)
    fx = f.value(x)
    slack = slack_rtol * (1.0 + abs(fx))
    dec_ok = fx - f.value(xplus) >= 0.5 * lam * f.grad_norm(xplus) ** 2 - slack
    bound = 2.0 * lam / (1.0 - f.lipschitz_L * lam) * f.grad_norm(x)
    step_ok = float(np.linalg.norm(xplus - x)) <= bound + slack
    return dec_ok, step_ok


def _ascent_step(f, xnext, a, g=None):
    """(y, r, grad(y)): the ascent preimage y of xnext, both points of f's
    lane, its forward residual r = |(y - a grad(y)) - xnext|, certified to
    1e-10 * (1 + |y|), and the gradient that residual took, which the next
    solve from y starts with.  ``g`` is grad(xnext) when known.  The caller
    has checked the prox regime and that xnext lies in the box."""
    lane = f._lane
    y, _ = _picard(f, xnext, a, +1.0, norm(xnext), g)
    gy = lane.grad(y)
    residual = norm(lane.sub(lane.axpy(y, -a, gy), xnext))
    if residual > FORWARD_RESIDUAL_RTOL * (1.0 + norm(y)):
        raise ArithmeticError(f"ascent step failed its inverse certificate: {residual:.3e}")
    return y, residual, gy


def ascent_prox(f, xnext, a):
    """argmax_y f(y) - |y - xnext|^2 / (2a): the exact preimage of an
    explicit gradient step, solved as the fixed point of
    y = xnext + a * grad(y) for a < 1/L.  The returned point replays
    forward onto xnext to within 1e-10 * (1 + |result|)."""
    xnext = np.asarray(xnext, dtype=float)
    _require_prox_regime(f, a)
    if not f.in_box(xnext):
        raise LeftBoxError(xnext, "ascent_prox called outside the operating box")
    return np.array(_ascent_step(f, f._lane.point(xnext), a)[0])


def reverse_orbit(f, a, s, kbar, stop=None):
    """Build x_kbar = a and x_k = ascent_prox(f, x_{k+1}, alpha_k) for
    k = kbar-1 down to 0.

    The index alignment guarantees the forward replay
    x_{k+1} = x_k - alpha_k grad(x_k) consumes the schedule from index 0.
    A box exit mid-construction returns the partial orbit with status
    'left_box' rather than raising.

    With ``stop`` (constant schedules only) the march ends at the first
    point x with stop(x), or after kbar steps; the K steps taken are
    indexed K-1 down to 0.  Each solve starts from the gradient the
    previous residual took at its base, so m solves cost their Picard
    iterations plus one gradient.
    """
    anchor = np.asarray(a, dtype=float)
    if kbar < 0:
        raise ValueError("kbar must be nonnegative")
    if stop is not None and s.kind != "constant":
        raise ValueError("a stopping march needs a constant schedule")
    if not f.in_box(anchor):
        raise LeftBoxError(anchor, "orbit anchor outside the operating box")
    # checked once: every alpha_k is at most sup_alpha, and each later
    # solve starts from a point its predecessor's Picard test kept in the box
    _require_prox_regime(f, s.sup_alpha)
    x, g = f._lane.point(anchor), None
    points, residuals = [anchor.copy()], []
    status = "complete"
    for k in range(kbar - 1, -1, -1):
        if stop is not None and stop(points[-1]):
            break
        try:
            x, residual, g = _ascent_step(f, x, s.alpha(k), g)
        except LeftBoxError:
            status = "left_box"
            break
        points.append(np.array(x))
        residuals.append(residual)
    points.reverse()
    residuals.reverse()
    n_steps = len(residuals)
    start_index = 0 if stop is not None else kbar - n_steps
    return ReverseOrbit(
        points=tuple(points),
        steps_used=tuple(range(start_index + n_steps - 1, start_index - 1, -1)),
        anchor=anchor.copy(),
        forward_residuals=tuple(residuals),
        status=status,
        start_index=start_index,
    )
