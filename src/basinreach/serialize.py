"""CSV and JSON output, deterministic byte-for-byte given the same data.

Trajectory CSV columns: k,t,x_1..x_n,f,gnorm (header mandatory, one row
per recorded state).  Reverse orbits use the same layout plus a direction
flag column.  Floats are written with repr (shortest round-trip form),
and in JSON every non-finite number is null.  Each file's text is built
whole, a CSV's column by column, and written in one call, so a value that
cannot be written leaves no half-written file.  Every output file is
created afresh: an existing file at the path is unlinked first, so a
symlink there is replaced, not written through.
"""

import json
import math
import os
from itertools import accumulate, chain, count, repeat

import numpy as np

from .schedule import format_schedule


def _rows(k0, t, X, fv, gnorm, direction=None):
    """The CSV text of a sampled path: the header, then k, t, x_1..x_n, f,
    gnorm (and ``direction``, when given) per point, k counting from k0,
    built column by column and joined once per row and once per file."""
    header = ["k", "t", *(f"x_{i + 1}" for i in range(X.shape[1])), "f", "gnorm"]
    columns = [map(str, range(k0, k0 + len(X))), map(repr, t),
               *(map(repr, c) for c in X.T.tolist()), map(repr, fv), map(repr, gnorm)]
    if direction is not None:
        header.append("direction")
        columns.append(repeat(direction))
    return "\n".join(chain([",".join(header)], map(",".join, zip(*columns)))) + "\n"


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


def _write_rows(text, path):
    with _create(path, newline="") as fh:
        fh.write(text)


def write_trajectory_csv(traj, path):
    _write_rows(_trajectory_rows(traj), path)


def write_reverse_part_csv(reverse_part, f, s, path):
    """A reach report's reverse part is an orbit (discrete) or a reverse
    trajectory (continuous); both export to the flagged CSV layout.  An
    orbit's t is the cumulative step sum, matching the piecewise-linear
    interpolation parameterization of the iterates, and its gnorm the norm
    of the gradient the orbit kept at each point."""
    if hasattr(reverse_part, "anchor"):
        P, k0 = reverse_part.points, reverse_part.start_index
        t = accumulate(map(s.alpha, count(k0)), initial=0.0)
        text = _rows(k0, t, P, f.values(P).tolist(), reverse_part.grad_norms, "reverse")
    else:
        text = _trajectory_rows(reverse_part, "reverse")
    _write_rows(text, path)


def _jsonable(v):
    """v as plain JSON: numpy numbers as floats, each non-finite one null."""
    if isinstance(v, np.ndarray):
        return list(map(_jsonable, map(float, v)))
    if isinstance(v, (float, np.floating, np.integer)):
        v = float(v)
        return v if math.isfinite(v) else None
    return v


def trajectory_summary(traj):
    return {
        "status": traj.terminal_status,
        "states": len(traj),
        "final_x": _jsonable(traj.X[-1]),
        "final_f": _jsonable(traj.f[-1]),
        "final_gnorm": _jsonable(traj.gnorm[-1]),
        "final_t": _jsonable(traj.t[-1]),
        "limit": _jsonable(traj.limit),
    }


def reach_report_json(report, forward_csv_path=None, reverse_csv_path=None):
    """The report's fields, the schedule its forward run replayed (in the
    CLI grammar; null for a flow or when nothing escaped), and the
    certificate that stopped its forward run when one did."""
    out = {
        "target": _jsonable(report.target),
        "x0": _jsonable(report.x0),
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
    # strict JSON: a non-finite float raises here, before the file is touched
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _create(path) as fh:
        fh.write(text)
