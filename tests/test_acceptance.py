"""Acceptance suite: one test per criterion, each printing a pass/fail
line, at the stated tolerances.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines live.

Every trajectory produced while this module runs is captured into a
registry; the final criterion re-validates the descent certificates on
all of them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import basinreach as br
from basinreach.sampling import unit_directions
from basinreach.trajectory import record_trajectories

from conftest import make_saddle_quad

RECORDED = []


@pytest.fixture(scope="module", autouse=True)
def _capture_trajectories():
    with record_trajectories(RECORDED):
        yield


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


BUILTINS = [("quad", (1.0, 4.0)), ("double_well", ()), ("himmelblau", ())]


def test_A1_prox_identity_and_certificates():
    with criterion("A1 (implicit-step identity and certificates)"):
        rng = np.random.default_rng(101)
        for name, params in BUILTINS:
            f = br.make_builtin(name, params)
            lo, hi = f.box[:, 0], f.box[:, 1]
            for _ in range(500):
                x = lo + rng.random(f.dim) * (hi - lo)
                lam = (1e-3 + 0.899 * rng.random()) / f.lipschitz_L
                xp = br.prox(f, x, lam)
                residual = np.linalg.norm(xp - (x - lam * f.gradient(xp)))
                assert residual <= 1e-10 * (1.0 + np.linalg.norm(x))
                assert br.prox_certificates(f, x, lam, xp) == (True, True)


def test_A2_exact_reverse():
    with criterion("A2 (exact reverse orbit)"):
        f = br.make_builtin("quad", (1.0,))
        orbit = br.reverse_orbit(f, [0.1], br.constant(0.5), 3)
        expected = (0.8, 0.4, 0.2, 0.1)
        for p, e in zip(orbit.points, expected):
            assert abs(p[0] - e) <= 1e-12
        for p, nxt in zip(orbit.points, orbit.points[1:]):
            assert abs(br.gd_step(f, p, 0.5)[0] - nxt[0]) <= 1e-12


def test_A3_discrete_reachability():
    with criterion("A3 (discrete reachability to every designated minimum)"):
        cases = [(br.make_builtin("double_well"), np.array([1.0]), 0.4)]
        hb = br.make_builtin("himmelblau")
        for cp in hb.critical_points:
            if cp.kind == "local_min":
                cases.append((hb, cp.point, 1.0))
        assert len(cases) == 5
        for f, target, eps in cases:
            start = time.perf_counter()
            c = 0.5 / f.lipschitz_L
            rep = br.reach_discrete(f, target, eps, br.constant(c), 1e-3, 1e-4)
            assert rep.status == "success"
            assert rep.final_distance <= 1e-4
            assert np.linalg.norm(rep.x0 - target) > 0.0
            budgets = br.ReachBudgets(delta_override=rep.delta_used)
            rep2 = br.reach_discrete(f, target, eps, br.power(c, 0.5), 1e-3, 1e-4,
                                     budgets)
            assert rep2.status == "success"
            assert rep2.final_distance <= 1e-4
            assert np.linalg.norm(rep2.x0 - target) > 0.0
            assert time.perf_counter() - start < 10.0


def test_A4_continuous_reachability():
    with criterion("A4 (continuous reachability)"):
        quad = br.make_builtin("quad", (1.0,))
        st = br.FlowSettings(h=1e-2, t_max=50.0, gtol=1e-6)
        rep = br.reach_continuous(quad, [0.0], 1.0, st, 1e-3, 1e-6)
        assert rep.status == "success"
        assert abs(abs(rep.x0[0]) - 1.0) <= 1e-8  # crossing lands on +-delta
        assert abs(rep.forward_part.limit[0]) <= 1e-6
        # a 2-D target, whose escape crosses a circle rather than two points
        quad2 = br.make_builtin("quad", (1.0, 4.0))
        rep = br.reach_continuous(quad2, [0.0, 0.0], 1.0, st, 1e-3, 1e-6)
        assert rep.status == "success" and rep.final_distance <= 1e-6
        dw = br.make_builtin("double_well")
        st = br.FlowSettings(h=1e-3, t_max=50.0, gtol=1e-4)
        rep = br.reach_continuous(dw, [-1.0], 0.4, st, 1e-3, 1e-3)
        assert rep.status == "success"
        assert rep.final_distance <= 1e-3


def test_A5_stability_radii():
    with criterion("A5 (stability radii)"):
        dw = br.make_builtin("double_well")
        s = br.constant(0.05)
        est = br.stability_probe(dw, [1.0], 0.5, s, seed=0)
        assert est.delta_hat >= 0.4
        # zero containment violations on re-run of every tested start
        target = np.array([1.0])
        for d in unit_directions(1, 8, seed=0):
            start = target + est.delta_hat * d
            traj = br.run_gd(dw, start, s, gtol=1e-8, max_iter=20000)
            assert traj.terminal_status == "converged"
            assert all(abs(stt.x[0] - 1.0) <= 0.5 * (1 + 1e-9) for stt in traj.states)
        est2 = br.stability_probe(dw, [1.0], 0.5, s, seed=0)
        assert est2.delta_hat == est.delta_hat
        quad = br.make_builtin("quad", (1.0,))
        est = br.stability_probe(quad, [0.0], 1.0, br.constant(0.5), seed=0)
        assert est.delta_hat == 1.0  # delta_hat = epsilon within resolution


def test_A6_length_bound_with_equality_witness():
    with criterion("A6 (trajectory length bound, equality witness)"):
        quad = br.make_builtin("quad", (1.0,))
        st = br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-3)
        traj = br.integrate(quad, [2.0], "forward", st)
        assert traj.terminal_status == "converged"
        length = br.path_length(traj)
        assert abs(length - 2.0) <= 5e-3
        # the KL length bound with psi(s) = sqrt(2 s), tight on 0.5 x^2
        drop = quad.value(traj.initial_x) - quad.value(traj.final_x)
        assert length <= math.sqrt(2.0 * drop) * (1.0 + 1e-6) + 1e-9
        disc = br.run_gd(quad, [2.0], br.constant(0.5), gtol=1e-9)
        assert abs(br.path_length(disc) - 2.0) <= 1e-9  # telescoping sum


def test_A7_edge_of_stability():
    with criterion("A7 (sharpness exclusion at the step-size threshold)"):
        quad = br.make_builtin("quad", (1.0,))
        x0 = [1.0]
        for alpha, expected in ((1.9, "converges"), (2.1, "diverges"), (2.0, "neutral")):
            verdict = br.edge_of_stability(quad, alpha, x0)
            r = abs(1.0 - alpha * 1.0)  # spectral oracle
            oracle = "converges" if r < 1 else ("diverges" if r > 1 else "neutral")
            assert verdict == expected == oracle


def test_A8_general_saddle_case():
    with criterion("A8 (saddle targeting, shrinking distances)"):
        f = make_saddle_quad()
        target = [0.0, 0.0]
        st = br.FlowSettings(h=1e-3, t_max=50.0, gtol=1e-6)
        cont, disc = [], []
        for seed_radius in (1e-1, 1e-2, 1e-3):
            rep = br.reach_general(f, target, 1.0, st, seed_radius, tol=1e-2)
            cont.append(rep.final_distance)
            rep = br.reach_general(f, target, 1.0, br.constant(0.25), seed_radius, tol=1e-2)
            disc.append(rep.final_distance)
        assert cont[0] > cont[1] > cont[2] and cont[2] <= 1e-2
        assert disc[0] > disc[1] > disc[2] and disc[2] <= 1e-2


def _simplex_lattice(m, n):
    if m == 1:
        return np.array([[1.0]])
    if m == 2:
        i = np.arange(n + 1)
        return np.stack([i, n - i], axis=1) / n
    if m == 3:
        blocks = []
        for i in range(n + 1):
            j = np.arange(n - i + 1)
            blocks.append(np.stack([np.full_like(j, i), j, n - i - j], axis=1))
        return np.concatenate(blocks) / n
    raise ValueError(m)


def _brute_force_min_norm(points):
    """Best |sum w_i g_i| over the 1e-3-resolution simplex lattice.

    Sizes <= 3 enumerate the full lattice; size 4 walks the exact lattice
    hierarchically (full 1e-2 pass, then every 1e-3 lattice point within
    a window of the coarse argmin), valid because the objective is convex
    in the weights.
    """
    m = points.shape[0]
    if m <= 3:
        w = _simplex_lattice(m, 1000)
        return float(np.sqrt(np.einsum("ij,ij->i", w @ points, w @ points).min()))
    coarse = []
    for i in range(101):
        for j in range(101 - i):
            k = np.arange(101 - i - j)
            coarse.append(np.stack([np.full_like(k, i), np.full_like(k, j), k,
                                    100 - i - j - k], axis=1))
    wc = np.concatenate(coarse) / 100.0
    vals = np.einsum("ij,ij->i", wc @ points, wc @ points)
    base = np.round(wc[int(np.argmin(vals))] * 1000).astype(int)
    best = np.inf
    span = 25
    for i in range(max(0, base[0] - span), min(1000, base[0] + span) + 1):
        for j in range(max(0, base[1] - span), min(1000 - i, base[1] + span) + 1):
            k_lo = max(0, base[2] - span)
            k_hi = min(1000 - i - j, base[2] + span)
            if k_hi < k_lo:
                continue
            k = np.arange(k_lo, k_hi + 1)
            w = np.stack([np.full_like(k, i), np.full_like(k, j), k,
                          1000 - i - j - k], axis=1) / 1000.0
            v = np.einsum("ij,ij->i", w @ points, w @ points).min()
            best = min(best, float(v))
    return math.sqrt(best)


def test_A9_min_norm_oracle():
    with criterion("A9 (minimum-norm element vs simplex-grid oracle)"):
        rng = np.random.default_rng(909)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            gens = rng.uniform(-1.0, 1.0, (m, d))
            mn = br.min_norm_element(list(gens))
            v_solver = float(np.linalg.norm(mn))
            v_grid = _brute_force_min_norm(gens)
            # the solver is at least as good as any lattice point
            assert v_solver <= v_grid + 1e-6
            # and certified optimal from below, so the grid cannot beat it
            for g in gens:
                assert float(mn @ (g - mn)) >= -1e-8
            assert v_grid >= v_solver - (1e-6 + 1e-8 / max(v_solver, 1e-3))


# (objective, epsilon, the certified radius at each cataloged minimum in
# catalog order): the radius a minimum reach runs on
CERTIFIED_RADII = [
    (("double_well", ()), 0.4, (0.18873, 0.18873)),
    (("himmelblau", ()), 1.0, (0.21309, 0.36431, 0.39916, 0.21713)),
    (("quad", (1.0,)), 1.0, (1.0,)),
    (("quad", (1.0, 4.0)), 1.0, (1.0,)),
    (("quad", (1.0, 25.0)), 1.0, (1.0,)),
]


def test_A11_probe_cross_checks_the_certified_radius():
    # defined before A10, so that A10 re-validates every run its probes record
    with criterion("A11 (sampled stability radius >= certified radius at every minimum)"):
        for (name, params), eps, radii in CERTIFIED_RADII:
            f = br.make_builtin(name, params)
            minima = [cp.point for cp in f.critical_points if cp.kind == "local_min"]
            assert len(minima) == len(radii)
            for target, radius in zip(minima, radii):
                rep = br.reach_discrete(f, target, eps, br.constant(0.5 / f.lipschitz_L), 1e-3,
                                        1e-4)
                assert rep.status == "success" and rep.delta_source == "certified"
                assert rep.delta_used == pytest.approx(radius, abs=1e-5)
                for dynamics in (br.constant(0.25 / f.lipschitz_L),
                                 br.constant(0.9 / f.lipschitz_L),
                                 br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-6)):
                    est = br.stability_probe(f, target, eps, dynamics)
                    assert est.delta_cert == rep.delta_used
                    assert est.delta_hat >= est.delta_cert


def test_A10_descent_certificates_everywhere():
    with criterion("A10 (descent certificates on every recorded trajectory)"):
        discrete = flows = 0
        for traj in RECORDED:
            prov = traj.provenance
            if prov.get("producer") == "gd":
                violations = br.descent_certificate_violations(
                    prov["f"], traj, prov["schedule"])
                assert violations == [], violations[:3]
                discrete += 1
            elif prov.get("producer") == "flow" and prov.get("direction") == "forward":
                fs = [s.f_value for s in traj.states]
                assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(fs, fs[1:]))
                flows += 1
        assert discrete >= 50  # the suite really did exercise the engine
        assert flows >= 10
        print(f"  ({discrete} discrete runs, {flows} forward flows certified)")
