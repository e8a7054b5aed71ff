"""Forward explicit gradient descent with certified trajectories."""

from typing import NamedTuple

import numpy as np

from .landscape import LeftBoxError
from .sampling import unit_directions
from .schedule import admissible
from .trajectory import State, Trajectory, emit

DIVERGENCE_FACTOR = 1e3


class Classification(NamedTuple):
    kind: str  # local_min | local_max | saddle | non_stationary
    low_confidence: bool


def gd_step(f, x, a):
    """x - a * grad(x).  Requires a < 2/L and x in the box; a result
    outside the box raises LeftBoxError carrying the offending point."""
    x = np.asarray(x, dtype=float)
    if f.lipschitz_L > 0.0 and not a < 2.0 / f.lipschitz_L:
        raise ValueError(f"step {a} is not below 2/L = {2.0 / f.lipschitz_L}")
    if not f.in_box(x):
        raise LeftBoxError(x, "gd_step called outside the operating box")
    out = x - a * f.gradient(x)
    if not f.in_box(out):
        raise LeftBoxError(out)
    return out


def run_gd(f, x0, s, gtol=1e-10, max_iter=10**6, unsafe=False):
    """Iterate x_{k+1} = x_k - alpha_k grad(x_k), recording every state.

    Stops on grad_norm < gtol (converged), k = max_iter (budget_exhausted),
    box exit (left_box, not a fault) or |x| > 1e3 * (1 + box diameter)
    (diverged).  ``unsafe=True`` lifts the sup alpha < 2/L admissibility
    requirement and the box-exit stop; the divergence guard remains.  Used
    by the sharpness-exclusion experiment, where L stays globally valid.
    """
    x = np.array(x0, dtype=float)
    if not f.in_box(x):
        raise LeftBoxError(x, "x0 outside the operating box")
    if not unsafe and not admissible(s, f, "stability"):
        raise ValueError(
            f"schedule sup_alpha={s.sup_alpha} inadmissible for stability regime "
            f"(needs < 2/L = {2.0 / f.lipschitz_L})"
        )
    div_thresh = DIVERGENCE_FACTOR * (1.0 + f.box_diameter())
    g = f.gradient(x)
    gn = float(np.linalg.norm(g))
    states = [State(0, 0.0, x.copy(), f.value(x), gn)]
    status = "budget_exhausted"
    limit = None
    t = 0.0
    for k in range(max_iter):
        if gn < gtol:
            status, limit = "converged", x.copy()
            break
        a = s.alpha(k)
        x = x - a * g
        t += a
        g = f.gradient(x)
        gn = float(np.linalg.norm(g))
        states.append(State(k + 1, t, x.copy(), f.value(x), gn))
        if not unsafe and not f.in_box(x):
            status = "left_box"
            break
        if np.linalg.norm(x) > div_thresh:
            status = "diverged"
            break
    else:
        if gn < gtol:
            status, limit = "converged", x.copy()
    return emit(Trajectory(
        states=tuple(states),
        terminal_status=status,
        limit=limit,
        provenance={"producer": "gd", "f": f, "schedule": s, "gtol": gtol,
                    "unsafe": unsafe},
    ))


def classify_limit(f, x, tol=1e-6, n_sphere=64, seed=0):
    """Classify a candidate limit point.

    non_stationary if |grad| >= tol; otherwise by Hessian eigenvalue signs,
    with eigenvalues within tol of zero resolved by sampling f on a sphere
    of radius sqrt(tol).  Without a Hessian the sampling is the only
    evidence and the result is flagged low-confidence.
    """
    x = np.asarray(x, dtype=float)
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
        for d in unit_directions(f.dim, n_sphere, seed):
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


def descent_certificate_violations(f, traj, s, rtol=1e-12):
    """Check the recurrence and descent inequalities along a discrete run.

    Returns a list of violation descriptions (empty when certified):
    the producing recurrence to rtol*(1 + |x_k|); f nonincreasing when
    sup alpha < 2/L; and, when sup alpha < 1/L, the quantified descent
    f_{k+1} <= f_k - a_k (1 - L a_k / 2) |g_k|^2 + rtol*(1 + |f_k|).
    """
    out = []
    L = f.lipschitz_L
    stability = admissible(s, f, "stability")
    prox_regime = admissible(s, f, "prox")
    for prev, cur in zip(traj.states, traj.states[1:]):
        a = s.alpha(prev.k)
        g = f.gradient(prev.x)
        step_err = float(np.linalg.norm(cur.x - (prev.x - a * g)))
        if step_err > rtol * (1.0 + np.linalg.norm(prev.x)):
            out.append(f"recurrence violated at k={prev.k}: residual {step_err:.3e}")
        slack = rtol * (1.0 + abs(prev.f_value))
        if stability and cur.f_value > prev.f_value + slack:
            out.append(f"f increased at k={prev.k}: {prev.f_value!r} -> {cur.f_value!r}")
        if prox_regime:
            drop = a * (1.0 - L * a / 2.0) * prev.grad_norm**2
            if cur.f_value > prev.f_value - drop + slack:
                out.append(f"descent inequality violated at k={prev.k}")
    return out
