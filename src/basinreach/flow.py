"""Continuous-time dynamics: forward/reverse gradient flow by fixed-step
RK4, the minimum-norm Clarke flow for max-functions by explicit Euler
(the field is discontinuous at activity boundaries, where RK4's
smoothness assumptions fail), sphere-crossing event detection, and
path-length analytics.

Each run is a :func:`~basinreach.trajectory.march` with an RK4 or Euler
step rule; a sphere exit is its stop event, which tests the radius
before the field is evaluated at the new point and bisects the last
step onto the sphere.  RK4 has one rule, :func:`_rk4_step`, run on
points of the objective's lane (``landscape.Lane``) by every flow,
the continuous stability probe's included; only the Euler min-norm rule
keeps ndarray points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .landscape import LeftBoxError, min_norm_element, norm, row_norms
from .trajectory import march, recorded

DIRECTIONS = ("forward", "reverse")
H_GUARD = 0.1  # h <= 0.1 / L accuracy/stability guard


class NoCrossingError(RuntimeError):
    """The trajectory never crossed the target sphere within t_max:
    delta too large, or the gradient floor too small, for the budget."""


@dataclass(frozen=True)
class FlowSettings:
    h: float
    t_max: float
    gtol: float = 1e-8
    event_refine_tol: float = None

    def __post_init__(self):
        if not self.h > 0.0 or not self.t_max > 0.0 or not self.gtol > 0.0:
            raise ValueError("h, t_max and gtol must be positive")
        if self.event_refine_tol is None:
            object.__setattr__(self, "event_refine_tol", 1e-3 * self.h)
        if not 0.0 < self.event_refine_tol < self.h:
            raise ValueError("event_refine_tol must lie in (0, h)")


@dataclass(frozen=True)
class DesingularizationModel:
    """psi(s) = coeff * s**exponent: concave, increasing, psi(0) = 0.

    Supplied by the caller for analytically solvable cases only; nothing
    here estimates psi from data.
    """

    coeff: float
    exponent: float

    def __post_init__(self):
        if not self.coeff > 0.0:
            raise ValueError("coeff must be positive")
        if not 0.0 < self.exponent <= 1.0:
            raise ValueError("exponent must lie in (0, 1]")

    def psi(self, s):
        return self.coeff * max(float(s), 0.0) ** self.exponent


def _check_h(obj, settings):
    L = obj.lipschitz_L
    if L > 0.0 and settings.h > H_GUARD / L:
        raise ValueError(f"h = {settings.h} exceeds the guard 0.1/L = {H_GUARD / L}")


def _rk4_step(lane, x, sh, g1):
    """One classical RK4 step of signed length sh along dx/dt = grad(x),
    from g1 = grad(x): x + (sh/6) (g1 + 2 g2 + 2 g3 + g4), on points of
    the lane.  sh = -h flows down f, sh = h up it; negation is exact, so
    these are the IEEE operations of RK4 with step h on the signed field
    -+grad."""
    grad, axpy = lane.grad, lane.axpy
    g2 = grad(axpy(x, 0.5 * sh, g1))
    g3 = grad(axpy(x, 0.5 * sh, g2))
    g4 = grad(axpy(x, sh, g3))
    return axpy(x, sh / 6.0, axpy(axpy(axpy(g1, 2.0, g2), 2.0, g3), 1.0, g4))


def _start(f, x0, settings):
    _check_h(f, settings)
    x = np.array(x0, dtype=float)
    if not f.in_box(x):
        raise LeftBoxError(x, "x0 outside the operating box")
    return x, int(round(settings.t_max / settings.h))


def _rk4_flow(lane, direction, settings):
    """(step, sh, gtol) of RK4 on dx/dt = -grad (forward, sh = -h) or +grad
    (reverse, sh = h) for :func:`march` with the field lane.grad; the step
    takes grad at x as its g1, and only a forward flow stops on |grad| <
    gtol."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    h = settings.h
    sh = -h if direction == "forward" else h
    step = lambda k, t, x, g: ((k + 1) * h, _rk4_step(lane, x, sh, g))
    return step, sh, settings.gtol if direction == "forward" else 0.0


def integrate(f, x0, direction, settings):
    """Classical RK4 with fixed step h on dx/dt = -grad f (forward) or
    +grad f (reverse).  Stops at t_max, at |grad| < gtol (forward only),
    or at box exit (expected for reverse flows)."""
    lane = f._lane
    step, _, gtol = _rk4_flow(lane, direction, settings)
    x, n_steps = _start(f, x0, settings)
    return recorded(f, *march(f, lane.point(x), lane.grad, step, n_steps, gtol),
                    {"producer": "flow", "f": f, "direction": direction, "settings": settings})


def integrate_minnorm(g, x0, settings):
    """Explicit Euler on dx/dt = -min_norm_element(generators(g, x)).

    Stops when the minimum-norm element falls below gtol; once the value
    reaches a cap level both pieces are active, the element is 0, and the
    trajectory stalls there.  grad_norm records the element's norm.
    """
    x, n_steps = _start(g, x0, settings)
    h = settings.h
    vals = []

    def value(y):
        vals[:] = [p.value(y) for p in g.pieces]
        return max(vals)

    def speed(y):
        # march takes value(y) just before speed(y), so vals are y's piece
        # values, each evaluated once per state; evaluable anywhere, the
        # box only bounds the certified region
        return min_norm_element([g.pieces[i].gradient(y) for i in g._active(vals)])

    euler = lambda k, t, x, v: ((k + 1) * h, x - h * v)
    return recorded(g, *march(g, x, speed, euler, n_steps, settings.gtol, value=value),
                    {"producer": "minnorm", "g": g, "settings": settings})


def _sphere_exit_detail(f, x0, direction, center, delta, settings):
    """(t_exit, b, trajectory-so-far): first crossing of the delta-sphere."""
    lane = f._lane
    step, sh, gtol = _rk4_flow(lane, direction, settings)
    center = lane.point(center)
    radius = lambda y: norm(lane.sub(y, center))
    if not radius(lane.point(x0)) < delta:
        raise ValueError("sphere_exit requires |x0 - center| < delta")
    x, n_steps = _start(f, x0, settings)

    def crossed(prev, t, x, fx):
        if not radius(x) >= delta:
            return None
        # bisect the substep length until the crossing point sits on the
        # sphere to 1e-8 * delta and the time bracket is within the
        # refinement tolerance
        t_prev, x_prev, g_prev, _ = prev
        lo, hi, x_hi = 0.0, settings.h, x
        for _ in range(200):
            r_err = abs(radius(x_hi) - delta)
            if r_err <= 1e-8 * delta and hi - lo <= settings.event_refine_tol:
                return "converged", np.array(x_hi), t_prev + hi, x_hi
            mid = 0.5 * (lo + hi)
            x_mid = _rk4_step(lane, x_prev, math.copysign(mid, sh), g_prev)
            if radius(x_mid) >= delta:
                hi, x_hi = mid, x_mid
            else:
                lo = mid
        raise ArithmeticError("sphere-crossing refinement did not converge")

    steps, status, b = march(f, lane.point(x), lane.grad, step, n_steps, gtol, event=crossed)
    if status == "left_box":
        raise LeftBoxError(steps[-1][1], "flow left the operating box before crossing")
    if status == "budget_exhausted":
        raise NoCrossingError(
            f"no crossing of the {delta}-sphere within t_max = {settings.t_max}")
    if radius(b) < delta:  # converged on |grad| < gtol, not on the sphere
        raise NoCrossingError("forward flow reached a stationary point inside the sphere")
    return steps[-1][0], b.copy(), recorded(
        f, steps, status, b, {"producer": "flow", "f": f, "direction": direction,
                              "settings": settings, "event": "sphere_exit"})


def sphere_exit(f, x0, direction, center, delta, settings):
    """Integrate until |x(t) - center| >= delta, then locate the crossing.

    Returns (t_exit, b) with | |b - center| - delta | <= 1e-8 * delta.
    Raises NoCrossingError when t_max is exhausted first.
    """
    t_exit, b, _ = _sphere_exit_detail(f, x0, direction, center, delta, settings)
    return t_exit, b


def path_length(traj):
    """Polygonal length over recorded states; a lower bound of the true
    length, converging as h -> 0."""
    if len(traj) < 2:
        raise ValueError("path_length needs at least 2 states")
    return float(sum(row_norms(np.diff(traj.X, axis=0)).tolist()))


def check_length_bound(traj, model, f=None):
    """lhs = path length, rhs = psi(f(first) - f(last));
    ok iff lhs <= rhs * (1 + 1e-6) + 1e-9."""
    lhs = path_length(traj)
    if f is not None:
        gap = f.value(traj.initial_x) - f.value(traj.final_x)
    else:
        gap = float(traj.f[0] - traj.f[-1])
    rhs = model.psi(gap)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6) + 1e-9
