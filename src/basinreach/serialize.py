"""CSV and JSON output, deterministic byte-for-byte given the same data.

Trajectory CSV columns: k,t,x_1..x_n,f,gnorm (header mandatory, one row
per recorded state).  Reverse orbits use the same layout plus a direction
flag column.  Floats are written with repr (shortest round-trip form).
Every output file is created afresh: an existing file at the path is
unlinked first, so a symlink there is replaced, not written through.
"""

import json
import os

import numpy as np

from .schedule import format_schedule


def trajectory_rows(traj):
    dim = traj.X.shape[1]
    header = ["k", "t"] + [f"x_{i + 1}" for i in range(dim)] + ["f", "gnorm"]
    rows = [header]
    columns = (traj.t.tolist(), traj.X.tolist(), traj.f.tolist(), traj.gnorm.tolist())
    for k, (t, x, fv, gn) in enumerate(zip(*columns)):
        rows.append([str(k), repr(t)] + [repr(c) for c in x] + [repr(fv), repr(gn)])
    return rows


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
    _write_rows(trajectory_rows(traj), path)


def orbit_rows(orbit, f, s):
    """Orbit points in index order; t is the cumulative step sum, matching
    the piecewise-linear interpolation parameterization of the iterates;
    gnorm is the norm of the gradient the orbit kept at each point."""
    dim = orbit.anchor.size
    header = (["k", "t"] + [f"x_{i + 1}" for i in range(dim)]
              + ["f", "gnorm", "direction"])
    rows = [header]
    P = np.array(orbit.points)
    t = 0.0
    columns = (P.tolist(), f.values(P).tolist(), orbit.grad_norms)
    for i, (x, fv, gn) in enumerate(zip(*columns)):
        k = orbit.start_index + i
        rows.append([str(k), repr(t)] + [repr(c) for c in x] + [repr(fv), repr(gn), "reverse"])
        t += s.alpha(k)
    return rows


def write_reverse_part_csv(reverse_part, f, s, path):
    """A reach report's reverse part is an orbit (discrete) or a reverse
    trajectory (continuous); both export to the flagged CSV layout."""
    if hasattr(reverse_part, "anchor"):
        rows = orbit_rows(reverse_part, f, s)
    else:
        rows = trajectory_rows(reverse_part)
        rows[0].append("direction")
        for row in rows[1:]:
            row.append("reverse")
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
