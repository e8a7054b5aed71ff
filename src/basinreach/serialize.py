"""CSV and JSON output, deterministic byte-for-byte given the same data.

Trajectory CSV columns: k,t,x_1..x_n,f,gnorm (header mandatory, one row
per recorded state).  Reverse orbits use the same layout plus a direction
flag column.  Floats are written with repr (shortest round-trip form).
Every output file is created afresh: an existing file at the path is
unlinked first, so a symlink there is replaced, not written through.
"""

import json
import os
from itertools import accumulate, count

import numpy as np

from .schedule import format_schedule


def _rows(k0, t, X, fv, gnorm, direction=None):
    """The CSV rows of a sampled path: the header, then k, t, x_1..x_n, f,
    gnorm (and ``direction``, when given) per point, k counting from k0."""
    flag = [] if direction is None else [direction]
    rows = [["k", "t"] + [f"x_{i + 1}" for i in range(X.shape[1])] + ["f", "gnorm"]
            + (["direction"] if flag else [])]
    for k, (tk, x, fk, gk) in enumerate(zip(t, X.tolist(), fv, gnorm), k0):
        rows.append([str(k), repr(tk)] + [repr(c) for c in x] + [repr(fk), repr(gk)] + flag)
    return rows


def _trajectory_rows(traj, direction=None):
    return _rows(0, traj.t.tolist(), traj.X, traj.f.tolist(), traj.gnorm.tolist(), direction)


def _create(path, **kwargs):
    """Open a new file at path for writing, unlinking any file there first:
    a fresh inode is much cheaper than truncating and rewriting one in
    place on file systems that flush a truncated file's replacement."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", **kwargs)


def _write_rows(rows, path):
    with _create(path, newline="") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_trajectory_csv(traj, path):
    _write_rows(_trajectory_rows(traj), path)


def write_reverse_part_csv(reverse_part, f, s, path):
    """A reach report's reverse part is an orbit (discrete) or a reverse
    trajectory (continuous); both export to the flagged CSV layout.  An
    orbit's t is the cumulative step sum, matching the piecewise-linear
    interpolation parameterization of the iterates, and its gnorm the norm
    of the gradient the orbit kept at each point."""
    if hasattr(reverse_part, "anchor"):
        P, k0 = np.array(reverse_part.points), reverse_part.start_index
        t = accumulate(map(s.alpha, count(k0)), initial=0.0)
        rows = _rows(k0, t, P, f.values(P).tolist(), reverse_part.grad_norms, "reverse")
    else:
        rows = _trajectory_rows(reverse_part, "reverse")
    _write_rows(rows, path)


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [float(c) for c in v]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, float) and not np.isfinite(v):
        return None
    return v


def trajectory_summary(traj):
    last = traj.final_state
    return {
        "status": traj.terminal_status,
        "states": len(traj),
        "final_x": _jsonable(last.x),
        "final_f": last.f_value,
        "final_gnorm": last.grad_norm,
        "final_t": last.t,
        "limit": _jsonable(traj.limit) if traj.limit is not None else None,
    }


def reach_report_json(report, forward_csv_path=None, reverse_csv_path=None):
    """The report's fields, the schedule its forward run replayed (in the
    CLI grammar; null for a flow or when nothing escaped), and the
    certificate that stopped its forward run when one did."""
    out = {
        "target": _jsonable(report.target),
        "x0": _jsonable(report.x0) if report.x0 is not None else None,
        "delta_used": _jsonable(report.delta_used),
        "delta_source": report.delta_source,
        "seed_radius": report.seed_radius,
        "final_distance": _jsonable(report.final_distance),
        "status": report.status,
        "forward_csv_path": forward_csv_path,
        "reverse_csv_path": reverse_csv_path,
    }
    fwd = report.forward_part
    s = fwd.provenance.get("schedule") if fwd is not None else None
    out["schedule"] = format_schedule(s) if s is not None else None
    if fwd is not None and "certificate" in fwd.provenance:
        out["certificate"] = fwd.provenance["certificate"]
    return out


def write_json(obj, path):
    with _create(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
