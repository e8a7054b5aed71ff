"""Forward explicit gradient descent with certified trajectories; its
numbers are checked by ``landscape``'s rules, its points by ``start`` or ``finite_point``."""

from typing import NamedTuple

import numpy as np

from .landscape import LeftBoxError, require_count, require_nonnegative_finite, row_norms
from .sampling import unit_directions
from .schedule import admissible, constant, require_admissible
from .trajectory import finite_point, march, recorded, start

SPHERE_SAMPLES, SPHERE_SEED = 64, 0  # classify_limit's quasi-random directions after the axes
CERTIFICATE_RTOL = 1e-12  # descent_certificate_violations' relative slack


class Classification(NamedTuple):
    kind: str  # local_min | local_max | saddle | non_stationary
    low_confidence: bool


def gd_step(f, x, a):
    """x - a * grad(x).  Requires 0 < a < 2/L and x a start (``start``); a
    result outside the box raises LeftBoxError carrying the offending point."""
    require_admissible(constant(a), f, "stability", "gd_step")
    lane = f._lane
    x = start(f, x, "x")
    out = lane.axpy(x, -a, lane.grad(x))
    if not lane.inside(out):
        raise LeftBoxError(out)
    return np.array(out)


class _Descent:
    """The gradient-descent runner under schedule s, shaped like
    ``flow._Flow``: ``march`` from a start x0 (``trajectory.start``)
    stops at |grad| < gtol, max_iter steps or the box; ``step`` advances
    time by the step size.  Requires gtol in [0, inf), max_iter a count."""

    def __init__(self, f, s, max_iter, gtol):
        require_nonnegative_finite(gtol=gtol)
        require_count(max_iter=max_iter)
        self.f, self.lane, self.s, self.max_iter, self.gtol = f, f._lane, s, max_iter, gtol
        self.provenance = {"producer": "gd", "f": f, "schedule": s, "gtol": gtol}

    def march(self, x0, event=None, value=None, g0=None):
        return march(self.f, start(self.f, x0), self.lane.grad, self.step, self.max_iter,
                     self.gtol, event=event, value=value, g0=g0)

    def step(self, k, t, x, g):
        a = self.s.alpha(k)
        return t + a, self.lane.axpy(x, -a, g)

    def locate(self, level, prev, x, fx):
        """x_prev + theta (x - x_prev), theta = (f_prev - level) / (f_prev -
        fx), on the step from prev, the last state above the level, to x:
        the secant in f-values.  f there misses the level by the curvature
        of f along the step."""
        _, x_prev, _, f_prev = prev
        theta = (f_prev - level) / (f_prev - fx) if f_prev > fx else 1.0
        return self.lane.axpy(x_prev, theta, self.lane.sub(x, x_prev))


def run_gd(f, x0, s, gtol=1e-10, max_iter=10**6, event=None, *, g0=None):
    """Iterate x_{k+1} = x_k - alpha_k grad(x_k), recording every state.

    Requires sup alpha < 2/L, gtol in [0, inf) and max_iter a nonnegative
    integer.  Stops on grad_norm < gtol (converged), k = max_iter
    (budget_exhausted) or box exit (left_box, not a fault).
    ``event`` is a :func:`march` stop event, asked at each state before
    those tests (its fx is None); a minimum reach ends the run with it on
    the first state in its certified ball.  ``g0``, grad f(x0) as f's
    lane takes it, when the caller has it, is the first state's gradient
    in place of a fresh one: a discrete reach passes the gradient its
    reverse orbit took at its root x0.
    """
    runner = _Descent(f, s, max_iter, gtol)
    require_admissible(s, f, "stability", "run_gd")
    return recorded(f, *runner.march(x0, event=event, g0=g0), runner.provenance)


def classify_limit(f, x, tol=1e-6):
    """Classify a candidate limit point.

    non_stationary if |grad| >= tol; otherwise by Hessian eigenvalue signs,
    with eigenvalues within tol of zero resolved by sampling f on a sphere
    of radius sqrt(tol).  Without a Hessian the sampling is the only
    evidence and the result is flagged low-confidence.  x is checked by
    ``finite_point``, not ``start``: a limit may sit on the box edge.
    """
    x = finite_point(f, x)
    if f.grad_norm(x) >= tol:
        return Classification("non_stationary", False)

    has_pos = has_neg = False
    ambiguous = True
    low_confidence = f.hessian is None
    if f.hessian is not None:
        ev = np.linalg.eigvalsh(f.hess(x))
        has_pos = bool(np.any(ev > tol))
        has_neg = bool(np.any(ev < -tol))
        ambiguous = bool(np.any(np.abs(ev) <= tol))

    if ambiguous and not (has_pos and has_neg):
        r = np.sqrt(tol)
        f0 = f.value(x)
        band = 1e-12 * (1.0 + abs(f0))
        for d in unit_directions(f.dim, SPHERE_SAMPLES, SPHERE_SEED):
            df = f.value(x + r * d) - f0
            if df > band:
                has_pos = True
            elif df < -band:
                has_neg = True

    if has_pos and has_neg:
        return Classification("saddle", low_confidence)
    if has_neg:
        return Classification("local_max", low_confidence)
    if has_pos:
        return Classification("local_min", low_confidence)
    # flat to sampling resolution: weak minimum at best
    return Classification("local_min", True)


def descent_certificate_violations(f, traj, s):
    """Check the recurrence and descent inequalities along a discrete run.

    Returns a list of violation descriptions (empty when certified):
    the producing recurrence to rtol*(1 + |x_k|); f nonincreasing when
    sup alpha < 2/L; and, when sup alpha < 1/L, the quantified descent
    f_{k+1} <= f_k - a_k (1 - L a_k / 2) |g_k|^2 + rtol*(1 + |f_k|).
    """
    L, rtol = f.lipschitz_L, CERTIFICATE_RTOL
    X, fv = traj.X, traj.f
    a = np.array([s.alpha(k) for k in range(len(traj) - 1)])
    step_err = row_norms(X[1:] - (X[:-1] - a[:, None] * f.gradients(X[:-1])))
    bad_step = step_err > rtol * (1.0 + row_norms(X[:-1]))
    slack = rtol * (1.0 + np.abs(fv[:-1]))
    rise = admissible(s, f, "stability") & (fv[1:] > fv[:-1] + slack)
    drop = a * (1.0 - L * a / 2.0) * traj.gnorm[:-1] ** 2
    short = admissible(s, f, "prox") & (fv[1:] > fv[:-1] - drop + slack)
    out = []
    for k in np.flatnonzero(bad_step | rise | short).tolist():
        if bad_step[k]:
            out.append(f"recurrence violated at k={k}: residual {step_err[k]:.3e}")
        if rise[k]:
            out.append(f"f increased at k={k}: {float(fv[k])!r} -> {float(fv[k + 1])!r}")
        if short[k]:
            out.append(f"descent inequality violated at k={k}")
    return out
