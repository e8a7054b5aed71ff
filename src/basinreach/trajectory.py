"""Trajectory record shared by the discrete and continuous engines."""

from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

TERMINAL_STATUSES = ("converged", "budget_exhausted", "left_box", "diverged")


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
# Single-threaded use only.
_sink = None


@contextmanager
def record_trajectories(into):
    global _sink
    previous = _sink
    _sink = into
    try:
        yield into
    finally:
        _sink = previous


def emit(traj):
    if _sink is not None:
        _sink.append(traj)
    return traj


def recorded(f, steps, status, limit, provenance):
    """Emit the Trajectory of a run kept as per-step tuples (t, x, |g|),
    or (t, x, |g|, f(x)) when the run took the values itself; otherwise
    f is evaluated once over the stacked points."""
    ts, xs, gns, *fs = zip(*steps)
    X = np.array(xs)
    return emit(Trajectory(np.array(ts), X, np.array(fs[0]) if fs else f.values(X),
                           np.array(gns), status, limit, provenance))
