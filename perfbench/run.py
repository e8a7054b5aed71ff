"""basinreach benchmark: evaluations and latency to a certified reach.

    python3 perfbench/run.py --workload minima_const --seed 0 --seconds 20 --trace 0

Each workload runs as a closed loop with one caller in one thread: a reach
starts only after the previous one returned.  A run makes
round(--seconds / round_s) rounds of reaches, one per target of the
workload, where round_s is the time of a round at reference host speed
(below) when the benchmark was defined, and at least MIN_CALLS calls.  So
every run of a workload makes the same number of calls, and the
percentiles fall on the same ranks.  Every result is checked outside the
timed region.

The latency metrics are wall times at a reference host speed.  A shared
host runs this process 20-40% slower or faster for tens of seconds at a
time, which would hide any regression smaller than that.  So a fixed
calibration kernel that does not touch basinreach runs between
consecutive reach calls, and each call's wall time is scaled by
CALIBRATION_S over the mean kernel time on either side of it, and each
set-up time by CALIBRATION_S over the kernel time right after it.  The
raw figures are printed as well.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first round
of the workload in passes, each reach untraced and traced back to back,
and prints the per-layer metrics of the traced runs and the tracing
overhead.  --case LABEL runs one reach of the workload untraced and
traced and prints its per-layer table; --frac, --seed-radius and
--dir-seed override its drawn inputs, e.g.

    python3 perfbench/run.py --workload minima_const --case himmelblau:0 \\
        --frac 0.5 --seed-radius 1e-3 --dir-seed 0

The last line of the output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# as in workloads.py, which is imported only inside the timed set-up
WORKLOADS = ("minima_const", "minima_power", "flow_minima", "saddles_cli")
SETUP_CHILDREN = 2  # fresh processes that only set up; the measuring process is the third
MIN_CALLS = 20      # so that the tail percentile (ten calls beyond it) is at least p50
# time of calibration_kernel at the reference host speed, about its median
# on a 2-vCPU 2.0 GHz x86-64 VM with Python 3.11 and numpy 2.4
CALIBRATION_S = 10e-3

# one thread: numpy's BLAS would otherwise start a pool (unused at these sizes)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def setup(name, seed, tmp):
    """Import, objective construction, input generation and precomputed
    probe radii, timed from before the first import of numpy.  Returns
    (seconds at reference host speed, raw seconds, workload, counts); the
    calibration kernel runs after set-up, since it needs numpy."""
    start = perf_counter()
    import workloads
    counts = workloads.Counts()
    workload = workloads.build(name, seed, counts, tmp)
    workload.make_round(0)
    seconds = perf_counter() - start
    kernel = statistics.median(calibration_kernel() for _ in range(3))
    return seconds * CALIBRATION_S / kernel, seconds, workload, counts


def child_setup_seconds(args):
    """(seconds at reference host speed, raw seconds) of a fresh process's set-up."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup child failed:\n{done.stderr}")
    return tuple(float(v) for v in done.stdout.split()[-2:])


def run_case(case, counts, tracer=None, root=None):
    """One reach, timed; checks it and returns (seconds, evaluations, failed)."""
    from workloads import GRAD
    snap = counts.snapshot()
    start = perf_counter()
    if tracer is None:
        result = case.run()
    else:
        with tracer.installed():
            result = tracer.root(root, case.run)
    seconds = perf_counter() - start
    evals = counts.since(snap)
    failures = case.check(result, evals[GRAD])
    if failures:
        print(f"FAIL {case.label}{' (traced)' if tracer else ''}: " + "; ".join(failures))
    return seconds, evals, bool(failures)


@dataclass(frozen=True, eq=False)
class _Record:
    """Stands in for the per-step state record of a descent loop."""

    k: int
    t: float
    x: object
    f: float
    gnorm: float


def calibration_kernel():
    """Fixed work shaped like the inner loop of a reach, without touching
    basinreach: 500 gradient steps on a 2-D quadratic, each with small numpy
    operations, a box test and a frozen record.  Returns its wall time,
    which tracks the speed the host gives this process."""
    import numpy as np
    start = perf_counter()
    lam = np.array([1.0, 4.0])
    x = np.array([0.3, -0.2])
    t = 0.0
    records = []
    for k in range(500):
        g = lam * x
        gnorm = float(np.linalg.norm(g))
        x = x - 0.1 * g
        t += 0.1
        records.append(_Record(k, t, x.copy(), 0.5 * float(lam @ (x * x)), gnorm))
        if np.any(x < -10.0) or np.any(x > 10.0):
            break
    return perf_counter() - start


def warm_up(workload, counts):
    """One untimed reach, so that lazy set-up in numpy and the program is
    done before timing; returns whether it failed its checks."""
    return run_case(workload.make_round(0)[0], counts)[2]


def tail(latencies):
    """The highest percentile with at least ten calls beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def print_result(correct, attempted, failed, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def timed_run(args, tmp):
    setups = [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]
    scaled, seconds, workload, counts = setup(args.workload, args.seed, tmp)
    setups.append((scaled, seconds))

    failed = warm_up(workload, counts)
    raw, latencies, labels, round_rates = [], [], [], []
    evals = [0, 0, 0]
    kernel = calibration_kernel()
    per_round = len(workload.labels)
    rounds = max(round(args.seconds / workload.round_s), -(-MIN_CALLS // per_round))
    for r in range(rounds):
        cases = workload.make_round(r)
        for case in cases:
            dt, ev, bad = run_case(case, counts)
            before, kernel = kernel, calibration_kernel()
            raw.append(dt)
            latencies.append(dt * CALIBRATION_S / (0.5 * (before + kernel)))
            labels.append(case.label)
            evals = [a + b for a, b in zip(evals, ev)]
            failed += bad
        round_rates.append(len(cases) / sum(latencies[-len(cases):]))

    import workloads
    n = len(latencies)
    tail_s, tail_pct, beyond = tail(latencies)
    raw_tail = tail(raw)[0]
    print(f"{args.workload}: seed {args.seed}, {len(round_rates)} rounds, {n} reach calls, "
          f"{sum(raw):.2f} s in reach calls")
    print(f"raw wall time: {n / sum(raw):.4g} calls/s overall, p50 "
          f"{1e3 * statistics.median(raw):.4g} ms, tail {1e3 * raw_tail:.4g} ms; "
          f"host speed factor {sum(latencies) / sum(raw):.4f} (latency metrics = raw x factor)")
    print(f"reach_ms_p50 over {n} calls; reach_ms_tail is p{tail_pct:.1f} "
          f"with {beyond} calls beyond it")
    print(f"fail_ratio: {failed}/{n + 1} = {failed / (n + 1):.6g} (the warm-up reach included)")
    print(f"hess_evals_per_reach: {evals[workloads.HESS] / n:.6g} count "
          f"(reported per layer as landscape.hess_evals)")
    print("median latency per case at reference speed:")
    for label in workload.labels:
        mine = [t for t, lab in zip(latencies, labels) if lab == label]
        print(f"  {label:<32} {len(mine):3d} calls, median {1e3 * statistics.median(mine):9.2f} ms")
    print(f"setup_s samples at reference speed: {' '.join(f'{s:.4f}' for s, _ in setups)}; "
          f"raw: {' '.join(f'{s:.4f}' for _, s in setups)}")
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "reaches_per_s": (statistics.median(round_rates), "1/s"),
        "reach_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "reach_ms_tail": (1e3 * tail_s, "ms"),
        "grad_evals_per_reach": (evals[workloads.GRAD] / n, "count"),
        "value_evals_per_reach": (evals[workloads.VALUE] / n, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print_result(failed == 0, n + 1, failed, metrics)
    return 0


def traced_passes(workload, cases, counts, seconds, min_passes=1):
    """Passes over the same cases, each case run untraced and traced back
    to back in alternating order, until they have taken ``seconds``;
    returns (passes, attempted, failed)."""
    import tracer
    passes, attempted, failed, spent = [], 1, warm_up(workload, counts), 0.0
    while spent < seconds or len(passes) < min_passes:
        walls = {False: 0.0, True: 0.0}
        tr = tracer.Tracer(counts)
        for i, case in enumerate(cases):
            for traced in ((False, True) if (i + len(passes)) % 2 == 0 else (True, False)):
                dt, _, bad = run_case(case, counts, tr if traced else None, workload.root)
                walls[traced] += dt
                attempted += 1
                failed += bad
        rows, self_time = tracer.layer_metrics(tr.spans, len(cases))
        passes.append((walls, rows, self_time))
        spent += walls[False] + walls[True]
    return passes, attempted, failed


def per_layer_result(args, passes, attempted, failed, n_calls):
    def counts(rows):
        return [v for _, v, unit in rows if unit not in ("s", "us")]

    rows0 = passes[0][1]
    counts_differ = any(counts(rows) != counts(rows0) for _, rows, _ in passes)
    if counts_differ:
        print("FAIL per-layer counts differ between traced passes")
    metrics = {}
    for i, (name, _, unit) in enumerate(rows0):
        metrics[name] = (statistics.median(p[1][i][1] for p in passes), unit)
    overhead = sum(p[0][True] for p in passes) / sum(p[0][False] for p in passes) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")

    print(f"{args.workload}: {len(passes)} traced passes of {n_calls} reach calls; "
          f"values are per reach call, times are medians over the passes")
    self_sum = statistics.median(sum(p[2].values()) for p in passes) / n_calls
    traced_wall = statistics.median(p[0][True] for p in passes) / n_calls
    untraced_wall = statistics.median(p[0][False] for p in passes) / n_calls
    for layer in passes[0][2]:
        value = statistics.median(p[2][layer] for p in passes) / n_calls
        print(f"  self time {layer:<10} {1e3 * value:10.3f} ms")
    print(f"  layer self times sum to {1e3 * self_sum:.3f} ms per reach; traced wall "
          f"{1e3 * traced_wall:.3f} ms, untraced wall {1e3 * untraced_wall:.3f} ms")
    print_result(failed == 0 and not counts_differ, attempted, failed + counts_differ, metrics)
    return 0


def trace_run(args, tmp):
    _, _, workload, counts = setup(args.workload, args.seed, tmp)
    cases = workload.make_round(0)
    passes, attempted, failed = traced_passes(workload, cases, counts, args.seconds)
    return per_layer_result(args, passes, attempted, failed, len(cases))


def case_run(args, tmp):
    _, _, workload, counts = setup(args.workload, args.seed, tmp)
    if args.case not in workload.labels:
        print(f"error: --case must be one of {', '.join(workload.labels)}", file=sys.stderr)
        return 2
    overrides = {k: v for k, v in (("frac", args.frac), ("seed_radius", args.seed_radius),
                                   ("dir_seed", args.dir_seed)) if v is not None}
    cases = [c for c in workload.make_round(0, overrides) if c.label == args.case]
    print(f"case {args.case} of {args.workload}, overrides {overrides or 'none'}")
    passes, attempted, failed = traced_passes(workload, cases, counts, 0.0, min_passes=3)
    return per_layer_result(args, passes, attempted, failed, 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--case", help="run one reach of this case label under the tracer")
    parser.add_argument("--frac", type=float, help="--case: step scale as a fraction of 1/L")
    parser.add_argument("--seed-radius", type=float, help="--case: ascent-seed radius")
    parser.add_argument("--dir-seed", type=int, help="--case: direction seed of the reach")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "basinreach" / "__init__.py").is_file():
        print(f"error: no basinreach sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.setup_only:
            print(*setup(args.workload, args.seed, tmp)[:2])
            return 0
        if args.case:
            return case_run(args, tmp)
        if args.trace:
            return trace_run(args, tmp)
        return timed_run(args, tmp)


if __name__ == "__main__":
    sys.exit(main())
