"""Continuous-time dynamics: forward/reverse gradient flow by fixed-step
RK4, the minimum-norm Clarke flow for max-functions by explicit Euler
(the field is discontinuous at activity boundaries, where RK4's
smoothness assumptions fail), sphere-crossing event detection, and
path-length analytics.
"""

from dataclasses import dataclass

import numpy as np

from .landscape import LeftBoxError, min_norm_element
from .trajectory import State, Trajectory, emit

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


def integrate(f, x0, direction, settings):
    """Classical RK4 with fixed step h on dx/dt = -grad f (forward) or
    +grad f (reverse).  Stops at t_max, at |grad| < gtol (forward only),
    or at box exit (expected for reverse flows)."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    _check_h(f, settings)
    x = np.array(x0, dtype=float)
    if not f.in_box(x):
        raise LeftBoxError(x, "x0 outside the operating box")
    sign = -1.0 if direction == "forward" else 1.0
    field = lambda y: sign * f.gradient(y)

    # the gradient behind |grad f(x)| is the next step's k1
    g = f.gradient(x)
    gn = float(np.linalg.norm(g))
    states = [State(0, 0.0, x.copy(), f.value(x), gn)]
    status, limit = "budget_exhausted", None
    n_steps = int(round(settings.t_max / settings.h))
    for k in range(n_steps):
        if direction == "forward" and gn < settings.gtol:
            status, limit = "converged", x.copy()
            break
        x = _rk4_step(field, x, settings.h, sign * g)
        g = f.gradient(x)
        gn = float(np.linalg.norm(g))
        states.append(State(k + 1, (k + 1) * settings.h, x.copy(), f.value(x), gn))
        if not f.in_box(x):
            status = "left_box"
            break
    else:
        if direction == "forward" and gn < settings.gtol:
            status, limit = "converged", x.copy()
    return emit(Trajectory(
        states=tuple(states),
        terminal_status=status,
        limit=limit,
        provenance={"producer": "flow", "f": f, "direction": direction,
                    "settings": settings},
    ))


def integrate_minnorm(g, x0, settings):
    """Explicit Euler on dx/dt = -min_norm_element(generators(g, x)).

    Stops when the minimum-norm element falls below gtol; once the value
    reaches a cap level both pieces are active, the element is 0, and the
    trajectory stalls there.  grad_norm records the element's norm.
    """
    _check_h(g, settings)
    x = np.array(x0, dtype=float)
    if not g.in_box(x):
        raise LeftBoxError(x, "x0 outside the operating box")

    def speed(y):
        # evaluable anywhere; the box only bounds the certified region
        return min_norm_element([g.pieces[i].gradient(y) for i in g.active_indices(y)])

    v = speed(x)
    vn = float(np.linalg.norm(v))
    states = [State(0, 0.0, x.copy(), g.value(x), vn)]
    status, limit = "budget_exhausted", None
    n_steps = int(round(settings.t_max / settings.h))
    for k in range(n_steps):
        if vn < settings.gtol:
            status, limit = "converged", x.copy()
            break
        x = x - settings.h * v
        v = speed(x)
        vn = float(np.linalg.norm(v))
        states.append(State(k + 1, (k + 1) * settings.h, x.copy(), g.value(x), vn))
        if not g.in_box(x):
            status = "left_box"
            break
    else:
        if vn < settings.gtol:
            status, limit = "converged", x.copy()
    return emit(Trajectory(
        states=tuple(states),
        terminal_status=status,
        limit=limit,
        provenance={"producer": "minnorm", "g": g, "settings": settings},
    ))


def _sphere_exit_detail(f, x0, direction, center, delta, settings):
    """(t_exit, b, trajectory-so-far): first crossing of the delta-sphere."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    _check_h(f, settings)
    center = np.asarray(center, dtype=float)
    x = np.array(x0, dtype=float)
    if not np.linalg.norm(x - center) < delta:
        raise ValueError("sphere_exit requires |x0 - center| < delta")
    if not f.in_box(x):
        raise LeftBoxError(x, "x0 outside the operating box")
    sign = -1.0 if direction == "forward" else 1.0
    field = lambda y: sign * f.gradient(y)

    g = f.gradient(x)
    gn = float(np.linalg.norm(g))
    states = [State(0, 0.0, x.copy(), f.value(x), gn)]
    n_steps = int(round(settings.t_max / settings.h))
    for k in range(n_steps):
        if direction == "forward" and gn < settings.gtol:
            raise NoCrossingError(
                "forward flow reached a stationary point inside the sphere")
        x_prev, k1_prev = x, sign * g
        x = _rk4_step(field, x, settings.h, k1_prev)
        g = f.gradient(x)
        gn = float(np.linalg.norm(g))
        states.append(State(k + 1, (k + 1) * settings.h, x.copy(), f.value(x), gn))
        if np.linalg.norm(x - center) >= delta:
            # bisect the substep length until the crossing point sits on the
            # sphere to 1e-8 * delta and the time bracket is within the
            # refinement tolerance
            lo, hi = 0.0, settings.h
            x_hi = x
            for _ in range(200):
                r_err = abs(float(np.linalg.norm(x_hi - center)) - delta)
                if r_err <= 1e-8 * delta and hi - lo <= settings.event_refine_tol:
                    break
                mid = 0.5 * (lo + hi)
                x_mid = _rk4_step(field, x_prev, mid, k1_prev)
                if np.linalg.norm(x_mid - center) >= delta:
                    hi, x_hi = mid, x_mid
                else:
                    lo = mid
            else:
                raise ArithmeticError("sphere-crossing refinement did not converge")
            t_exit = k * settings.h + hi
            traj = Trajectory(
                states=tuple(states[:-1] + [State(k + 1, t_exit, x_hi.copy(),
                                                  f.value(x_hi), f.grad_norm(x_hi))]),
                terminal_status="converged",
                limit=x_hi.copy(),
                provenance={"producer": "flow", "f": f, "direction": direction,
                            "settings": settings, "event": "sphere_exit"},
            )
            return t_exit, x_hi.copy(), traj
        if not f.in_box(x):
            raise LeftBoxError(x, "flow left the operating box before crossing")
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
    if len(traj.states) < 2:
        raise ValueError("path_length needs at least 2 states")
    return float(sum(
        np.linalg.norm(b.x - a.x) for a, b in zip(traj.states, traj.states[1:])
    ))


def check_length_bound(traj, model, f=None):
    """lhs = path length, rhs = psi(f(first) - f(last));
    ok iff lhs <= rhs * (1 + 1e-6) + 1e-9."""
    lhs = path_length(traj)
    if f is not None:
        gap = f.value(traj.initial_x) - f.value(traj.final_x)
    else:
        gap = traj.states[0].f_value - traj.states[-1].f_value
    rhs = model.psi(gap)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6) + 1e-9
