"""Continuous-time dynamics: forward/reverse gradient flow by the
embedded Dormand-Prince 5(4) pair with step-size control and dense output
(Dormand & Prince 1980, J. Comput. Appl. Math. 6:19-26; Hairer, Norsett &
Wanner, Solving ODEs I, II.4-II.6), the minimum-norm Clarke flow for
max-functions by explicit Euler (the field is discontinuous at activity
boundaries, where the pair's smoothness assumptions fail), crossing
events located on the dense output, and path-length analytics.

Each run is a :func:`~basinreach.trajectory.march` with a DP5 or Euler
step rule.  DP5 has one rule, :func:`_dp5_step`, run on points of the
objective's lane (``landscape.Lane``) by every flow: ``integrate``,
sphere exits, each start of the continuous stability probe and the
capped saddle run to its level set; only the Euler min-norm rule keeps
ndarray points.  A crossing is a stop event: it tests the state a step
reached and locates the crossing on that step's interpolant, which costs
no gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .landscape import LeftBoxError, min_norm_element, norm, row_norms
from .trajectory import march, recorded

DIRECTIONS = ("forward", "reverse")
H_GUARD = 0.1  # h <= 0.1 / L guard on the first trial step
# a DP5 step passes when its error estimate e has |e| <= ATOL + RTOL max(|x|,
# |x_new|); no step exceeds H_STABLE / L, inside DP5's real stability interval
# [-3.31, 0], so no mode of -grad f (whose Jacobian's eigenvalues lie in [-L, L])
# chatters at the stability boundary, held there at the tolerance
RTOL, ATOL, H_STABLE = 1e-10, 1e-13, 3.0
# Hairer's PI step controller (DOPRI5): exponents, safety factor, bounds on h_new / h
PI_ALPHA, PI_BETA, PI_SAFE, PI_MIN, PI_MAX = 0.17, 0.04, 0.9, 0.2, 10.0
# Dormand-Prince 5(4): the rows of A give stages 2-7, the last one the 5th-order
# point, whose gradient is so stage 7 (first same as last); E weighs the stages
# into the error estimate and P into the dense output x + sh sum_i P_i(theta) k_i
_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_P = ((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
      (0.0,) * 4,
      (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
      (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
      (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
      (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))


class NoCrossingError(RuntimeError):
    """The trajectory never crossed the target sphere within t_max:
    delta too large, or the gradient floor too small, for the budget."""


@dataclass(frozen=True)
class FlowSettings:
    """h is the first trial step, at most 0.1/L; a run ends at time t_max,
    a forward run also once |grad f| < gtol; a crossing is located to a
    time bracket of event_refine_tol (1e-3 h by default)."""

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


def _comb(axpy, y, sh, weights, ks):
    """y + (sh w_1) k_1 + (sh w_2) k_2 + ..., added in order, zero weights skipped."""
    for w, k in zip(weights, ks):
        if w:
            y = axpy(y, sh * w, k)
    return y


def _dp5_step(lane, x, sh, g1):
    """One Dormand-Prince 5(4) step of signed length sh along dx/dt =
    grad(x), from g1 = grad(x), on points of the lane: (x_new, ks, err)
    with x_new the 5th-order point, ks the seven stage gradients (ks[6] =
    grad(x_new), the next step's g1) and err the embedded error estimate.
    sh = -h flows down f, sh = h up it."""
    ks = [g1]
    for row in _A:
        y = _comb(lane.axpy, x, sh, row, ks)
        ks.append(lane.grad(y))
    return y, ks, _comb(lane.axpy, lane.sub(x, x), sh, _E, ks)


def _start(f, x0, settings):
    L = f.lipschitz_L
    if L > 0.0 and settings.h > H_GUARD / L:
        raise ValueError(f"h = {settings.h} exceeds the guard 0.1/L = {H_GUARD / L}")
    x = np.array(x0, dtype=float)
    if not f.in_box(x):
        raise LeftBoxError(x, "x0 outside the operating box")
    return x


class _Flow:
    """One adaptive DP5 run on dx/dt = -grad f (forward) or +grad f
    (reverse) for :func:`march`: ``step`` retries a rejected step with a
    smaller one and keeps its own step size, settings.h the first, clamping
    the step that would pass t_max onto it; ``field`` hands back stage 7 as
    the gradient at the state a step reached; ``cross`` locates an event on
    the last step's dense output ``at``."""

    def __init__(self, f, direction, settings):
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        self.lane, self.settings = f._lane, settings
        self.sign = -1.0 if direction == "forward" else 1.0
        self.gtol = settings.gtol if direction == "forward" else 0.0
        self.h, self.err_old, self.x_new = settings.h, 1e-4, None
        self.h_max = H_STABLE / f.lipschitz_L if f.lipschitz_L > 0.0 else math.inf

    def march(self, f, x0, event=None, value=None):
        x = self.lane.point(_start(f, x0, self.settings))
        return march(f, x, self.field, self.step, None, self.gtol, event=event, value=value,
                     t_end=self.settings.t_max)

    def field(self, x):
        return self.ks[6] if x is self.x_new else self.lane.grad(x)

    def step(self, k, t, x, g):
        t_max, h, rejected = self.settings.t_max, self.h, False
        while True:
            dt = min(h, t_max - t)
            x_new, ks, e = _dp5_step(self.lane, x, self.sign * dt, g)
            err = norm(e) / (ATOL + RTOL * max(norm(x), norm(x_new)))
            if err <= 1.0:
                break
            h, rejected = dt / min(1.0 / PI_MIN, err ** PI_ALPHA / PI_SAFE), True
            if not t + h > t:
                raise ArithmeticError(f"DP5 step size underflow at t = {t}")
        fac = err ** PI_ALPHA / self.err_old ** PI_BETA / PI_SAFE
        h = min(dt / max(1.0 / PI_MAX, min(1.0 / PI_MIN, fac)), self.h_max)
        self.h, self.err_old = min(h, dt) if rejected else h, max(err, 1e-4)
        self.t, self.x, self.dt, self.x_new, self.ks = t, x, dt, x_new, ks
        return (t_max if dt == t_max - t else t + dt), x_new

    def at(self, theta):
        """The dense output of the last step at theta in [0, 1] of it."""
        w = [theta * (p0 + theta * (p1 + theta * (p2 + theta * p3))) for p0, p1, p2, p3 in _P]
        return _comb(self.lane.axpy, self.x, self.sign * self.dt, w, self.ks)

    def cross(self, phi, p_lo, p_hi, tol=math.inf):
        """(t, point) where phi meets 0 on the last step's dense output,
        given phi = p_lo < 0 at the step's start and p_hi >= 0 at its end:
        Illinois regula falsi keeps phi >= 0 at the upper end, until phi
        there is within tol and the time bracket within event_refine_tol."""
        lo, hi, y_hi, w_lo, w_hi, side = 0.0, 1.0, self.x_new, p_lo, p_hi, 0
        width = self.settings.event_refine_tol / self.dt
        for _ in range(200):
            if p_hi <= tol and hi - lo <= width:
                return self.t + hi * self.dt, y_hi
            theta = hi - w_hi * (hi - lo) / (w_hi - w_lo)
            theta = theta if lo < theta < hi else 0.5 * (lo + hi)
            y = self.at(theta)
            p = phi(y)
            if p >= 0.0:  # halve the weight of an end kept twice (Illinois)
                hi, y_hi, p_hi, w_hi = theta, y, p, p
                w_lo, side = w_lo * 0.5 if side == 1 else w_lo, 1
            else:
                lo, w_lo = theta, p
                w_hi, side = w_hi * 0.5 if side == -1 else w_hi, -1
        raise ArithmeticError("crossing location did not converge")


def integrate(f, x0, direction, settings, event=None):
    """Adaptive Dormand-Prince 5(4) on dx/dt = -grad f (forward) or +grad
    f (reverse), from the first trial step h.  Stops at t_max, at |grad| <
    gtol (forward only), or at box exit (expected for reverse flows).
    ``event`` is a :func:`march` stop event, asked at each state the
    steps reach before those tests (its fx is None); a minimum reach ends
    the forward flow with it on the first state in its certified ball."""
    return recorded(f, *_Flow(f, direction, settings).march(f, x0, event=event),
                    {"producer": "flow", "f": f, "direction": direction, "settings": settings})


def integrate_minnorm(g, x0, settings):
    """Explicit Euler on dx/dt = -min_norm_element(generators(g, x)).

    Stops when the minimum-norm element falls below gtol; once the value
    reaches a cap level both pieces are active, the element is 0, and the
    trajectory stalls there.  grad_norm records the element's norm.
    """
    x, h = _start(g, x0, settings), settings.h
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
    return recorded(g, *march(g, x, speed, euler, int(round(settings.t_max / h)), settings.gtol,
                              value=value),
                    {"producer": "minnorm", "g": g, "settings": settings})


def _sphere_exit_detail(f, x0, direction, center, delta, settings):
    """(t_exit, b, trajectory-so-far): first crossing of the delta-sphere."""
    lane = f._lane
    flow = _Flow(f, direction, settings)
    center = lane.point(center)
    past = lambda y: norm(lane.sub(y, center)) - delta  # signed distance past the sphere
    if not past(lane.point(x0)) < 0.0:
        raise ValueError("sphere_exit requires |x0 - center| < delta")

    def crossed(prev, t, x, fx):
        r = past(x)
        if not r >= 0.0:
            return None
        t_b, b = flow.cross(past, past(prev[1]), r, 1e-8 * delta)
        return "converged", np.array(b), t_b, b

    steps, status, b = flow.march(f, x0, event=crossed)
    if status == "left_box":
        raise LeftBoxError(steps[-1][1], "flow left the operating box before crossing")
    if status == "budget_exhausted":
        raise NoCrossingError(
            f"no crossing of the {delta}-sphere within t_max = {settings.t_max}")
    if past(b) < 0.0:  # converged on |grad| < gtol, not on the sphere
        raise NoCrossingError("forward flow reached a stationary point inside the sphere")
    return steps[-1][0], b.copy(), recorded(
        f, steps, status, b, {"producer": "flow", "f": f, "direction": direction,
                              "settings": settings, "event": "sphere_exit"})


def sphere_exit(f, x0, direction, center, delta, settings):
    """Integrate until |x(t) - center| >= delta, then locate the crossing.

    Returns (t_exit, b) with | |b - center| - delta | <= 1e-8 * delta.
    Raises NoCrossingError when t_max is exhausted first.
    """
    return _sphere_exit_detail(f, x0, direction, center, delta, settings)[:2]


def path_length(traj):
    """Polygonal length over recorded states; a lower bound of the true
    length, converging as the steps shrink."""
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
