"""Trajectory record shared by the discrete and continuous engines, and
``march``, the one stepping loop in the program.

Each dynamics has one runner, ``descent._Descent`` for gradient descent
and ``flow._Flow`` for adaptive DOP853 flow, holding its lane, step rule,
``provenance`` and ``locate(level, prev, x, fx)``, where f meets a level
on the last step (the secant of two iterates' f-values, or the dense
output).  ``run_gd``, ``integrate``, each probe start, both level runs
(``_to_level``) and the sphere exit call ``runner.march`` with their own
stop event.  Every stop names itself: the event hands ``march`` the
provenance entries that name it (stopped_on = ...), which ``recorded``
merges, so no caller works out from the final state why a run ended.
A runner's ``march`` checks its start with :func:`start`, and every
run, a probe start included, ends in one :func:`recorded` Trajectory.

Every run steps on points of its objective's lane (``landscape.Lane``):
for dim <= 2 a point is a tuple of Python floats, stepped by unrolled
arithmetic, with each gradient still taken by f.grad on a 1-D array;
larger dims keep ndarrays.  Either way the points and |v| (``lane.norm``,
``landscape.norm``'s operations) are the same to the bit."""

import math
from collections.abc import Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .landscape import LeftBoxError

TERMINAL_STATUSES = ("converged", "budget_exhausted", "left_box")


@dataclass(frozen=True, eq=False)
class State:
    k: int
    t: float
    x: np.ndarray
    f_value: float
    grad_norm: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Immutable run record, stored as read-only columns: row k of ``t``
    (n,), ``X`` (n, dim), ``f`` (n,) and ``gnorm`` (n,) is the state after
    k steps (time, point, objective value, gradient or speed norm).
    ``states`` is a lazy sequence that builds a :class:`State` per row
    only when one is read.  ``provenance`` carries the producing
    operation and its inputs so certificates can be re-checked later."""

    t: np.ndarray
    X: np.ndarray
    f: np.ndarray
    gnorm: np.ndarray
    terminal_status: str
    limit: np.ndarray = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.terminal_status not in TERMINAL_STATUSES:
            raise ValueError(f"bad terminal status {self.terminal_status!r}")
        for name in ("t", "X", "f", "gnorm"):
            column = np.asarray(getattr(self, name), dtype=float).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self):
        return len(self.t)

    @property
    def states(self):
        return _States(self)

    @property
    def initial_x(self):
        return self.X[0]

    @property
    def final_x(self):
        return self.X[-1]

    @property
    def final_state(self):
        return self.states[-1]


class _States(Sequence):
    """A trajectory's rows as State objects, built when read."""

    def __init__(self, traj):
        self.traj = traj

    def __len__(self):
        return len(self.traj)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        tr, k = self.traj, range(len(self.traj))[i]
        return State(k, float(tr.t[k]), tr.X[k], float(tr.f[k]), float(tr.gnorm[k]))


# Optional capture of every produced trajectory, used by the acceptance
# suite to assert the descent certificates on everything the run touched.
# A context variable, so each thread (or task) records into its own list.
_sink = ContextVar("trajectory_sink", default=None)


@contextmanager
def record_trajectories(into):
    token = _sink.set(into)
    try:
        yield into
    finally:
        _sink.reset(token)


def emit(traj):
    sink = _sink.get()
    if sink is not None:
        sink.append(traj)
    return traj


def finite_point(f, x, what="x"):
    """x as a float array: a ValueError naming ``what`` unless its shape
    is (dim,) and its coordinates are finite; :func:`start` adds the box."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dim,):
        raise ValueError(f"{what} must have shape ({f.dim},) for dim = {f.dim}, "
                         f"got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite, got {x.tolist()}")
    return x


def start(f, x0, what="x0"):
    """x0 as a point of f's lane, checked as every run's start, the point
    of ``gd_step``, ``prox`` and ``ascent_prox``, an orbit's anchor and a
    probe's or reach's target are: :func:`finite_point`, and a
    LeftBoxError outside the box.  Only later states of :func:`march`
    count NaN as inside."""
    x = f._lane.point(finite_point(f, x0, what))
    if not f._lane.inside(x):
        raise LeftBoxError(x, f"{what} outside the operating box")
    return x


def march(f, x, field, step, n_steps, gtol=0.0, box=True, event=None, value=None,
          t_end=math.inf, g0=None):
    """The single-run stepping loop; returns (steps, status, limit, stop)
    for :func:`recorded`.

    From the start x, a point of f's lane, each state is kept as (t, x,
    |v|) with v = field(x), or (t, x, |v|, f(x)) when ``value`` takes f
    per state; ``g0``, when the caller has field(x) at the start (the
    state its reverse leg ended in), is that state's v in place of a
    fresh field(x).  The next state is (t, x) = step(k, t, x, v).  The run
    ends on the first of, tested at each state in this order:

    - ``event(prev, t, x, fx)`` returns (status, limit, t_end, x_end,
      stop): a terminal status and the provenance entries ``stop`` that
      name the event.  It is asked before field(x) is evaluated; ``prev``
      is the previous state as (t, x, v, fx), None at the start, and fx is
      value(x) or None.  The run ends on the state (t_end, x_end): x
      itself, or a point the event located (then x is never evaluated);
    - x outside f's box, when ``box`` (left_box);
    - |v| < gtol (converged, limit x);
    - n_steps steps (None: no step count), or time t_end (budget_exhausted).

    ``stop`` is the event's entries, None when the box, gtol or the budget
    ended the run.
    """
    t, prev, fx, k = 0.0, None, None, 0
    inside, norm = f._lane.inside, f._lane.norm
    steps = []
    keep = steps.append
    while True:
        if value is not None:
            fx = value(x)
        hit = None if event is None else event(prev, t, x, fx)
        if hit is not None:
            status, limit, t, x_end, stop = hit
            if x_end is not x:
                x, fx = x_end, None if value is None else value(x_end)
        v = field(x) if k or g0 is None else g0
        vn = norm(v)
        keep((t, x, vn) if value is None else (t, x, vn, fx))
        if hit is not None:
            return steps, status, limit, stop
        if box and not inside(x):
            return steps, "left_box", None, None
        if vn < gtol:
            return steps, "converged", np.array(x), None
        if k == n_steps or t >= t_end:
            return steps, "budget_exhausted", None, None
        prev = (t, x, v, fx)
        t, x = step(k, t, x, v)
        k += 1


def _to_level(f, level, runner, x0, g0=None):
    """(trajectory, crossing or None) of runner's march from x0 (g0, when
    given, the field there) down to the level set {f <= level}, which ends
    on its first state x with f(x) <= level; the crossing, its limit, is
    runner.locate(level, prev, x, fx) on the step that reached x, or the
    start itself, and names its stop (stopped_on = "level_crossing").  A
    run that ends above the level (it stalled at a critical point, or ran
    out of box or budget) has none."""
    def crossed(prev, t, x, fx):
        if not fx <= level:
            return None
        crossing = x if prev is None else runner.locate(level, prev, x, fx)
        return "converged", np.array(crossing), t, x, {"stopped_on": "level_crossing"}

    steps, status, limit, stop = runner.march(x0, event=crossed, value=f.value, g0=g0)
    crossing = None if stop is None else limit
    return recorded(f, steps, status, crossing, stop, runner.provenance), crossing


def stacked(rows):
    """rows, points of one lane (the float lane's tuples or ndarrays), as
    one read-only (n, dim) float array: a run's points, an orbit's points
    or its gradients."""
    # on the float lane's tuples, several times faster than np.array(rows)
    A = (np.fromiter(chain.from_iterable(rows), float).reshape(len(rows), -1)
         if type(rows[0]) is tuple else np.array(rows))
    A.flags.writeable = False
    return A


def recorded(f, steps, status, limit, stop, provenance):
    """Emit the Trajectory of a run kept as per-step tuples (t, x, |g|),
    or (t, x, |g|, f(x)) when the run took the values itself (otherwise f
    is evaluated once over the stacked points), its provenance merged
    with the entries of the stop that ended it, if any."""
    ts, xs, gns, *fs = zip(*steps)
    X = stacked(xs)
    return emit(Trajectory(np.array(ts), X, np.array(fs[0]) if fs else f.values(X),
                           np.array(gns), status, limit, dict(provenance, **(stop or {}))))
