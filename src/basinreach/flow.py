"""Continuous-time dynamics: forward/reverse gradient flow by fixed-step
RK4, the minimum-norm Clarke flow for max-functions by explicit Euler
(the field is discontinuous at activity boundaries, where RK4's
smoothness assumptions fail), sphere-crossing event detection, and
path-length analytics.
"""

import math
from dataclasses import dataclass

import numpy as np

from .landscape import LeftBoxError, min_norm_element, row_norms
from .trajectory import recorded

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


def _rk4_step(field, x, h, k1=None):
    """One classical RK4 step; pass ``k1 = field(x)`` when it is already
    known.  Elementwise, so x may be a (B, dim) batch."""
    if k1 is None:
        k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _start(f, x0, settings):
    _check_h(f, settings)
    x = np.array(x0, dtype=float)
    if not f.in_box(x):
        raise LeftBoxError(x, "x0 outside the operating box")
    return x, int(round(settings.t_max / settings.h))


def integrate(f, x0, direction, settings):
    """Classical RK4 with fixed step h on dx/dt = -grad f (forward) or
    +grad f (reverse).  Stops at t_max, at |grad| < gtol (forward only),
    or at box exit (expected for reverse flows)."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    x, n_steps = _start(f, x0, settings)
    sign = -1.0 if direction == "forward" else 1.0
    field = lambda y: sign * f.gradient(y)
    gtol = settings.gtol if direction == "forward" else 0.0

    # the gradient behind |grad f(x)| is the next step's k1
    g = f.gradient(x)
    gn = math.sqrt(g @ g)
    steps = [(0.0, x, gn)]
    status, limit = "budget_exhausted", None
    for k in range(n_steps):
        if gn < gtol:
            break
        x = _rk4_step(field, x, settings.h, sign * g)
        g = f.gradient(x)
        gn = math.sqrt(g @ g)
        steps.append(((k + 1) * settings.h, x, gn))
        if not f.in_box(x):
            status = "left_box"
            break
    if status == "budget_exhausted" and gn < gtol:
        status, limit = "converged", x.copy()
    return recorded(f, steps, status, limit,
                    {"producer": "flow", "f": f, "direction": direction, "settings": settings})


def integrate_minnorm(g, x0, settings):
    """Explicit Euler on dx/dt = -min_norm_element(generators(g, x)).

    Stops when the minimum-norm element falls below gtol; once the value
    reaches a cap level both pieces are active, the element is 0, and the
    trajectory stalls there.  grad_norm records the element's norm.
    """
    x, n_steps = _start(g, x0, settings)

    def speed(y):
        # evaluable anywhere; the box only bounds the certified region
        return min_norm_element([g.pieces[i].gradient(y) for i in g.active_indices(y)])

    v = speed(x)
    vn = math.sqrt(v @ v)
    steps = [(0.0, x, vn, g.value(x))]
    status, limit = "budget_exhausted", None
    for k in range(n_steps):
        if vn < settings.gtol:
            break
        x = x - settings.h * v
        v = speed(x)
        vn = math.sqrt(v @ v)
        steps.append(((k + 1) * settings.h, x, vn, g.value(x)))
        if not g.in_box(x):
            status = "left_box"
            break
    if status == "budget_exhausted" and vn < settings.gtol:
        status, limit = "converged", x.copy()
    return recorded(g, steps, status, limit,
                    {"producer": "minnorm", "g": g, "settings": settings})


def _sphere_exit_detail(f, x0, direction, center, delta, settings):
    """(t_exit, b, trajectory-so-far): first crossing of the delta-sphere."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    center = np.asarray(center, dtype=float)
    if not np.linalg.norm(np.asarray(x0, dtype=float) - center) < delta:
        raise ValueError("sphere_exit requires |x0 - center| < delta")
    x, n_steps = _start(f, x0, settings)
    sign = -1.0 if direction == "forward" else 1.0
    field = lambda y: sign * f.gradient(y)
    radius = lambda y: float(row_norms(y - center))
    g = f.gradient(x)
    gn = math.sqrt(g @ g)
    steps = [(0.0, x, gn)]
    for k in range(n_steps):
        if direction == "forward" and gn < settings.gtol:
            raise NoCrossingError(
                "forward flow reached a stationary point inside the sphere")
        x_prev, k1_prev = x, sign * g
        x = _rk4_step(field, x, settings.h, k1_prev)
        g = f.gradient(x)
        gn = math.sqrt(g @ g)
        if radius(x) >= delta:
            # bisect the substep length until the crossing point sits on the
            # sphere to 1e-8 * delta and the time bracket is within the
            # refinement tolerance
            lo, hi = 0.0, settings.h
            x_hi = x
            for _ in range(200):
                r_err = abs(radius(x_hi) - delta)
                if r_err <= 1e-8 * delta and hi - lo <= settings.event_refine_tol:
                    break
                mid = 0.5 * (lo + hi)
                x_mid = _rk4_step(field, x_prev, mid, k1_prev)
                if radius(x_mid) >= delta:
                    hi, x_hi = mid, x_mid
                else:
                    lo = mid
            else:
                raise ArithmeticError("sphere-crossing refinement did not converge")
            t_exit = k * settings.h + hi
            steps.append((t_exit, x_hi, f.grad_norm(x_hi)))
            return t_exit, x_hi.copy(), recorded(
                f, steps, "converged", x_hi.copy(), {"producer": "flow", "f": f,
                "direction": direction, "settings": settings, "event": "sphere_exit"})
        if not f.in_box(x):
            raise LeftBoxError(x, "flow left the operating box before crossing")
        steps.append(((k + 1) * settings.h, x, gn))
    raise NoCrossingError(
        f"no crossing of the {delta}-sphere within t_max = {settings.t_max}")


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
