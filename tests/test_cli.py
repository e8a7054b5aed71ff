import argparse
import errno
import hashlib
import itertools
import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import basinreach as br
import basinreach.cli as cli
from basinreach import serialize
from basinreach.cli import main
from basinreach.descent import run_gd
from basinreach.landscape import LeftBoxError
from basinreach.schedule import parse_schedule
from basinreach.trajectory import Trajectory

from conftest import reference_rows, write_reference_rows


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_bench_list(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("quad", "double_well", "himmelblau"):
        assert name in out
    assert "local_min" in out and "saddle" in out


def test_bench_json(capsys):
    assert main(["bench", "list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    hb = next(c for c in catalog if c["name"] == "himmelblau")
    assert len(hb["critical_points"]) == 9
    assert hb["lipschitz_L"] == pytest.approx(326.79215610874223)


def test_run_gd_outputs(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["run", "--function", "quad:1", "--x0", "1", "--schedule",
               "constant:0.5", "--gtol", "1e-8", "--out", out])
    assert rc == 0
    csv = read(os.path.join(out, "trajectory.csv"))
    assert csv.splitlines()[0] == b"k,t,x_1,f,gnorm"
    summary = json.loads(read(os.path.join(out, "summary.json")))
    assert summary["status"] == "converged"
    cfg = json.loads(read(os.path.join(out, "config.json")))
    assert cfg["procedure"] == "gd" and cfg["function"] == "quad:1"
    # byte-identical rerun
    before = {n: read(os.path.join(out, n)) for n in os.listdir(out)}
    assert main(["run", "--function", "quad:1", "--x0", "1", "--schedule",
                 "constant:0.5", "--gtol", "1e-8", "--out", out]) == 0
    after = {n: read(os.path.join(out, n)) for n in os.listdir(out)}
    assert before == after


def test_run_flow(tmp_path):
    out = str(tmp_path / "flow")
    rc = main(["run", "--function", "quad:1", "--x0", "1", "--out", out,
               "--h", "0.01", "--t-max", "2.0", "--gtol", "1e-6"]
              + ["--procedure", "flow"])
    assert rc == 0
    rows = read(os.path.join(out, "trajectory.csv")).splitlines()
    assert rows[0] == b"k,t,x_1,f,gnorm"
    assert len(rows) > 10
    k, t, x = rows[-1].split(b",")[:3]
    assert int(k) == len(rows) - 2 and float(t) == 2.0
    assert abs(float(x) - math.exp(-2.0)) <= 1e-8


def test_run_flow_takes_the_default_first_step(tmp_path):
    # the default h = 1e-3 lies under himmelblau's step cap 6/L = 1.84e-2:
    # the adaptive flow takes it as its first step and converges; an h past
    # the cap is clamped onto it, as every step is, not rejected
    rows = {}
    for h in ([], ["--h", "1.0"], ["--h", repr(6.0 / 326.79215610874223)]):
        out = str(tmp_path / f"flow{len(rows)}")
        assert main(["run", "--procedure", "flow", "--function", "himmelblau", "--x0", "0,0",
                     "--out", out] + h) == 0
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["status"] == "converged"
        rows[tuple(h)] = read(os.path.join(out, "trajectory.csv")).splitlines()
    assert float(rows[()][2].split(b",")[1]) == 1e-3
    capped, at_cap = list(rows.values())[1:]
    assert capped == at_cap and capped != rows[()]


def test_reach_from_config(tmp_path):
    cfg_path = tmp_path / "dw.json"
    cfg_path.write_text(json.dumps({
        "function": "double_well",
        "schedule": "constant:0.021",
        "target": [1.0],
        "epsilon": 0.4,
        "seed_radius": 1e-3,
        "tol": 1e-4,
    }))
    out = str(tmp_path / "reach")
    rc = main(["reach", "--config", str(cfg_path), "--out", out])
    assert rc == 0
    report = json.loads(read(os.path.join(out, "reach.json")))
    assert report["status"] == "success"
    assert report["final_distance"] <= 1e-4
    assert report["x0"] != [1.0]
    # the radius is the certified one that the probe reports as delta_cert
    probe = str(tmp_path / "probe")
    assert main(["probe", "--config", str(cfg_path), "--out", probe]) == 0
    assert report["delta_source"] == "certified"
    certified = json.loads(read(os.path.join(probe, "probe.json")))["delta_cert"]
    assert report["delta_used"] == certified == 0.18872570387826834
    assert os.path.exists(os.path.join(out, report["forward_csv_path"]))
    assert os.path.exists(os.path.join(out, report["reverse_csv_path"]))
    rev = read(os.path.join(out, "reverse.csv")).splitlines()
    assert rev[0].endswith(b",direction") and rev[1].endswith(b",reverse")


def test_reach_config_roundtrip(tmp_path):
    out1 = str(tmp_path / "a")
    rc = main(["reach", "--function", "double_well", "--target", "1",
               "--schedule", "constant:0.021", "--epsilon", "0.4",
               "--seed-radius", "0.001", "--tol", "1e-4", "--out", out1])
    assert rc == 0
    out2 = str(tmp_path / "b")
    rc = main(["reach", "--config", os.path.join(out1, "config.json"), "--out", out2])
    assert rc == 0
    for name in ("reach.json", "forward.csv", "reverse.csv"):
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))



def test_only_a_saddle_reach_takes_delta(tmp_path, capsys):
    # a minimum reach runs on its certified radius, so a given delta would
    # be recorded in config.json and ignored: exit 2, no directory, whether
    # the flag or a config file gives it
    out = tmp_path / "o"
    given = tmp_path / "given.json"
    given.write_text(json.dumps({"function": "double_well", "target": [1.0], "delta": 0.05}))
    for argv in (["--function", "double_well", "--target-index", "2", "--delta", "0.05"],
                 ["--function", "double_well", "--target", "1", "--epsilon", "0.4", "--delta",
                  "0.05", "--mode", "continuous"],
                 ["--config", str(given)]):
        assert main(["reach", *argv, "--out", str(out)]) == 2, argv
        assert capsys.readouterr().err == (
            "error: delta: only a saddle reach (--general) takes delta\n")
        assert not out.exists()
    # a saddle reach runs on it, and re-runs from the config.json recording it
    first, again = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(SADDLE + ["--schedule", "constant:0.0015", "--delta", "0.3", "--out", first]) == 0
    assert json.loads(read(os.path.join(first, "config.json")))["delta"] == 0.3
    assert main(["reach", "--config", os.path.join(first, "config.json"), "--out", again]) == 0
    report = json.loads(read(os.path.join(again, "reach.json")))
    assert report["delta_source"] == "given" and report["delta_used"] == 0.3
    for name in ("reach.json", "forward.csv", "reverse.csv"):
        assert read(os.path.join(first, name)) == read(os.path.join(again, name))

def test_rerun_into_its_own_directory_replaces_each_file(tmp_path):
    # each output is created afresh: a file there is replaced with the same
    # bytes, and a symlink is replaced, not written through
    out = str(tmp_path / "a")
    argv = ["reach", "--function", "double_well", "--target", "1", "--schedule",
            "constant:0.021", "--epsilon", "0.4", "--seed-radius", "0.001", "--tol", "1e-4"]
    assert main(argv + ["--out", out]) == 0
    names = ("config.json", "reach.json", "forward.csv", "reverse.csv")
    before = {name: read(os.path.join(out, name)) for name in names}
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"not an output\n")
    os.replace(os.path.join(out, "forward.csv"), tmp_path / "moved.csv")
    os.symlink(kept, os.path.join(out, "forward.csv"))
    assert main(["reach", "--config", os.path.join(out, "config.json"), "--out", out]) == 0
    assert {name: read(os.path.join(out, name)) for name in names} == before
    assert not os.path.islink(os.path.join(out, "forward.csv"))
    assert kept.read_bytes() == b"not an output\n"


def test_reach_replays_to_the_configured_gtol(tmp_path):
    # the replay of a discrete reach ends on its first row within s = r =
    # 8/72 of the target, the certified ball's radius, whatever tol: at the
    # README's tol and at 1e-12 it writes the same rows and reports distance
    # 0.  A gtol the replay meets before B_r ends it there instead, on a
    # shorter prefix whose last row is its limit, so the reach fails
    argv = ["reach", "--function", "double_well", "--target", "1", "--epsilon", "0.4",
            "--schedule", "constant:0.002", "--seed-radius", "1e-3"]
    rows = {}
    for tol, gtol, rc in (("1e-4", "1e-10", 0), ("1e-12", "1e-6", 0), ("1e-4", "1.5", 1)):
        out = str(tmp_path / gtol)
        extra = [] if gtol == "1e-10" else ["--gtol", gtol]  # 1e-10 is the default
        assert main(argv + ["--tol", tol] + extra + ["--out", out]) == rc
        assert json.loads(read(os.path.join(out, "config.json")))["gtol"] == float(gtol)
        rows[gtol] = read(os.path.join(out, "forward.csv")).splitlines()[1:]
        last = [[float(c) for c in row.split(b",")] for row in rows[gtol][-2:]]
        distances = [abs(row[2] - 1.0) for row in last]
        report = json.loads(read(os.path.join(out, "reach.json")))
        if rc == 0:
            cert = report["certificate"]
            assert cert["s"] == 8.0 / 72.0 > float(tol) and report["final_distance"] == 0.0
            assert distances[0] > cert["s"] >= distances[1] == cert["distance_bound"]
        else:
            assert last[0][-1] >= float(gtol) > last[1][-1] and distances[1] > 8.0 / 72.0
            assert report["status"] == "no_converge" and "certificate" not in report
    stopped, early = rows["1e-10"], rows["1.5"]
    assert rows["1e-6"] == stopped and len(early) < len(stopped) == 24
    assert stopped[:len(early)] == early


# sha256 of outputs that no minimum replay writes, recorded before minimum
# replays stopped in B_r: both saddle modes' CSVs and the CI's probes; the
# discrete saddle's re-recorded when every ascent solve came to stop at 1e-11,
# again when each orbit solve came to start from the last one's miss, and
# again when each came to stop on its first y with |T(y) - y| <= 0.999e-10 (1
# + min(|x_{k+1}|, |y|)) (the same success and final distance, 9.22457e-4);
# the continuous saddle's forward.csv re-recorded when its Clarke flow came to
# open at the step its reverse flow's controller proposed last, not at min(h,
# 6/L): 11 states where it took 14, the same reverse.csv, and the final
# distance 9.284441528854945e-4 -> 9.284441519645128e-4; both re-recorded when
# its reverse flow came to open at the cap 6/L, not at min(h, 6/L): the bytes
# the run wrote at --h 5e-2, past the cap, before: 9 reverse states where it
# wrote 12, the same 11 forward states, and the final distance
# 9.284441519645128e-4 -> 9.284441523272009e-4
# reach.json, whose delta_used, delta_source and certificate come from the
# radius and the certificate of the reach's goal, is pinned beside the CSVs
# of every reach, as are CI's constant-schedule and flow minimum reaches
# (reach-out, flow-out), all recorded before a saddle's goal came to be an
# object of its own beside the minimum's
SADDLE = ["reach", "--general", "--function", "himmelblau", "--target-index", "8",
          "--epsilon", "1.0", "--seed-radius", "1e-3", "--tol", "1e-2"]
UNMOVED = {
    "saddle-discrete": (SADDLE + ["--schedule", "constant:0.0015"], {
        "reach.json": "e773a74b7dfe32c80a4409f89c1da1f509ba413dd732447cb69e3972a2116620",
        "forward.csv": "cb5063dfc723a6b40744f68c343b19e10211719fb4618850580665e9cf6ffdbb",
        "reverse.csv": "024440f71f1cec63a7e9f96bee375da12c074aa45092d5609020df5f46c64f42"}),
    "saddle-continuous": (SADDLE + ["--mode", "continuous", "--h", "3e-4", "--t-max", "50",
                                    "--gtol", "1e-6", "--delta", "0.1"], {
        "reach.json": "e44665a1c682196ccbb06b1df81537f28d0d1a0600f3d649beb31703003dcb05",
        "forward.csv": "48d534db18f3c405d45ba36cbbf8d356b63b9ff6798c94ced60f40dd7c21a5ff",
        "reverse.csv": "08c30b48b695ce9c40af039e0ff0d05b944f8878046c429636551b069994d649"}),
    "dw-probe": (["probe", "--function", "double_well", "--target", "1", "--epsilon", "0.4",
                  "--schedule", "constant:0.021"], {
        "probe.json": "a8534633bbe07b69c0d3e6460e8f3c2b816ccddd237fc59a7e65679ab5a2845f"}),
    "readme-probe": (["probe", "--function", "double_well", "--target", "1", "--epsilon", "0.5",
                      "--schedule", "constant:0.05"], {
        "probe.json": "db041d44eb39c619c792982572d32bb48a3b199c83bf96c94e6edcdb4d86d056"}),
    "hb-probe": (["probe", "--function", "himmelblau", "--target-index", "0", "--epsilon", "1.0",
                  "--schedule", "constant:0.0015"], {
        "probe.json": "22353110829aae7c312879c1411399b90dd15498f5a4a6ed299d819c537d1fbf"}),
    "hb-flow-probe": (["probe", "--mode", "continuous", "--function", "himmelblau",
                       "--target-index", "0", "--epsilon", "2.0", "--seed", "4", "--h", "1e-2",
                       "--t-max", "20", "--gtol", "1e-6"], {
        "probe.json": "f50c032bb55afb935fc75655529ff5f4b7323be9f0975b4d8bf184498168b3d3"}),
    # the other himmelblau minima's capture levels, as CI pins them
    **{f"hb-probe-{i}": (["probe", "--function", "himmelblau", "--target-index", str(i),
                          "--epsilon", "1.0", "--schedule", "constant:0.0015"],
                         {"probe.json": digest}) for i, digest in (
        (1, "f078460ec87e4382a1e526661e6889a2470062b6505999f96f83670266d48cd1"),
        (2, "8ed5ac898335f6e8ecfd7bad32e9b766f0758deefe3f0154df1d76625421aea4"),
        (3, "0b8c8580da7f0e08b2e29250a75a13fb2c41f33ccc0fb7cf50d2ee463042723d"))},
    # CI's power-schedule minimum reaches on the 2-D and the 1-D float lane,
    # recorded before each float-lane orbit came to run in one frame
    "hb-power": (["reach", "--function", "himmelblau", "--target-index", "0", "--epsilon", "1.0",
                  "--schedule", "power:0.0015:0.5", "--seed-radius", "1e-3", "--tol", "1e-4"], {
        "reach.json": "84b77ce3c2d6597d9a23200503c64bfeb8abb07230af85fe65e4918d3950600a",
        "forward.csv": "9f517929427cb49f78bede42da855fdb74e08a83b46e25c66a550146c1a0ff04",
        "reverse.csv": "e2859fb7361ba45688f385cd710abef785112f87a2fe5e0a9f22060b8eca4d25"}),
    "dw-power": (["reach", "--function", "double_well", "--target", "1", "--epsilon", "0.4",
                  "--schedule", "power:0.021:0.5", "--seed-radius", "1e-3", "--tol", "1e-4"], {
        "reach.json": "c9725631e274ebdd3e5ee510bc948d0544ab7380130afacaec67fe40da4ef2cb",
        "forward.csv": "0925c6056df7992a661057c88f2b773522c664fb4b1cbb353931a71f781c412c",
        "reverse.csv": "20709980b2a9dbe6f834fb9d057e5a2184424dbc9d9ba96a2089e49a84937761"}),
    "reach-out": (["reach", "--function", "double_well", "--target", "1", "--epsilon", "0.4",
                   "--schedule", "constant:0.021", "--seed-radius", "1e-3", "--tol", "1e-4"], {
        "reach.json": "396b51ea58ceeb2e8b02aa028df6edd712766d1abf29943e9c772be055756932",
        "forward.csv": "c673e78dd1f168dee345eec1cc124a954e2a112ea9f39df89a80fdc025dda519",
        "reverse.csv": "5bad3f66bc562b59588e7f5100927e6d763f7012be70e6ec8a49cddfabcd0a5d"}),
    "flow-out": (["reach", "--mode", "continuous", "--function", "double_well", "--target", "1",
                  "--epsilon", "0.4", "--seed-radius", "1e-3", "--tol", "1e-4", "--h", "1e-3",
                  "--t-max", "20", "--gtol", "1e-6"], {
        "reach.json": "f4013564404903dad771c0b7eaaff68346c5f5eb90996ec257441902d5654ca1",
        "forward.csv": "07a98372935a6c716f6871b76b348bbcd96cfa8c1a9cf32f65775fc814c2c168",
        "reverse.csv": "140934a2039b6ca1513b111eca090a3c6ad880430766100115e9bc598f506aaf"}),
    # the ndarray lane (dim > 2): a 39-point power-schedule orbit and 500
    # prox solves, recorded before its solves came to run in one frame
    "q3-power": (["reach", "--function", "quad:1,2,5", "--target", "0,0,0", "--epsilon", "1.0",
                  "--schedule", "power:0.1:0.5", "--seed-radius", "1e-3", "--tol", "1e-4"], {
        "reach.json": "117109518b8d2d965a280e3f203a86f514f2740cdd6704febf2948a8c54a044a",
        "forward.csv": "da11acb0bbad44b012f8b9cd2d563baaebe63db1676fab050fb4296bc40e4647",
        "reverse.csv": "82e01372912ebab758577d48e520351f3c3310130d176008bb748a40e3328967"}),
    "q3-check": (["check", "--function", "quad:1,2,5"], {
        "check.json": "ce4a381ce99b91bc8f373f6432769e040b6fb8be744857cf7fb2cc3fcd5c29d2"}),
    # a gd run's 642 rows and a flow run's, and the slowest saddles_cli
    # reach (a 332-row forward.csv, a 314-row reverse.csv), recorded
    # before the writers came to build each file's text in bulk
    "run-gd": (["run", "--function", "himmelblau", "--x0", "1,1", "--schedule",
                "constant:0.0015"], {
        "trajectory.csv": "e5604e49db22c66fe716c7ba0e2bd0de1bf985993192bfddd865628cbce27e13",
        "summary.json": "594c4cdb72933ee63f7bdd17bce254008d78b6bfaad8db28abeee9bbff62092d"}),
    "run-flow": (["run", "--function", "double_well", "--x0", "0.5", "--procedure", "flow",
                  "--h", "1e-3", "--t-max", "5"], {
        "trajectory.csv": "5b03ad4a1ff1b32bb6ff01483d714cb5d488224ad9f77d69f89e650578bca02d",
        "summary.json": "5b66c215264d25dabc1dcf08f8e084323f32990d39d46635780d853421327690"}),
    "saddle-tail": (["reach", "--general", "--function", "himmelblau", "--target-index", "6",
                     "--epsilon", "1.0", "--tol", "1e-2", "--seed-radius", "1e-3",
                     "--schedule", "constant:0.0009"], {
        "reach.json": "d71fa1cbb6088d05ca9805c9d17f829eb7b84c20cd07d9e0553ae4e2dd2ca115",
        "forward.csv": "fd1a7e03f4cc89ff4ddfd006baef794419dbb6093fdd24d14381c6108c00ff2e",
        "reverse.csv": "603b834e9d6c105ad7c6970def24eb655e08563dac4f0be4ad75732f6fbca115"}),
}


@pytest.mark.parametrize("name", UNMOVED)
def test_the_ball_stop_moves_no_other_output(tmp_path, name):
    argv, digests = UNMOVED[name]
    out = str(tmp_path / name)
    assert main(argv + ["--out", out]) == 0
    for file, digest in digests.items():
        assert hashlib.sha256(read(os.path.join(out, file))).hexdigest() == digest, file


def test_main_reuses_one_parser(tmp_path, capsys):
    # a --general call then a plain reach, and again in the opposite order:
    # the flag does not stick, and each call writes the same bytes either way
    saddle = ["reach", "--general", "--function", "himmelblau", "--target-index", "8",
              "--epsilon", "1.0", "--schedule", "constant:0.0015", "--seed-radius", "1e-3",
              "--tol", "1e-2"]
    minimum = ["reach", "--function", "double_well", "--target", "1", "--epsilon", "0.4",
               "--schedule", "constant:0.021", "--seed-radius", "1e-3", "--tol", "1e-4"]
    runs = {}
    for order in ("ab", "ba"):
        for name in order:
            out = str(tmp_path / (order + name))
            assert main((saddle if name == "a" else minimum) + ["--out", out]) == 0
            cfg = json.loads(read(os.path.join(out, "config.json")))
            assert cfg.pop("output_dir") == out
            files = {f: read(os.path.join(out, f))
                     for f in ("reach.json", "forward.csv", "reverse.csv")}
            runs.setdefault(name, []).append((cfg, files, capsys.readouterr().out))
    assert runs["a"][0][0]["procedure"] == "reach-general"
    assert runs["b"][0][0]["procedure"] == runs["b"][1][0]["procedure"] == "reach"
    assert runs["a"][0] == runs["a"][1] and runs["b"][0] == runs["b"][1]
    # a saddle reach runs on the delta it was given, epsilon / 2 by default
    saddle_report = json.loads(runs["a"][0][1]["reach.json"])
    assert saddle_report["delta_source"] == "given" and saddle_report["delta_used"] == 0.5
    assert cli.build_parser() is cli.build_parser()


def test_reach_continuous_cli(tmp_path):
    out = str(tmp_path / "cont")
    rc = main(["reach", "--function", "quad:1", "--target", "0",
               "--mode", "continuous", "--epsilon", "1.0",
               "--seed-radius", "0.001", "--tol", "1e-5",
               "--h", "0.01", "--t-max", "60", "--gtol", "1e-6", "--out", out])
    assert rc == 0
    report = json.loads(read(os.path.join(out, "reach.json")))
    assert report["status"] == "success" and report["schedule"] is None
    assert report["delta_source"] == "certified" and report["delta_used"] == 1.0
    assert abs(abs(report["x0"][0]) - 1.0) <= 1e-8
    rev = read(os.path.join(out, "reverse.csv")).splitlines()
    assert rev[0] == b"k,t,x_1,f,gnorm,direction"
    assert rev[-1].endswith(b",reverse")


def test_reverse_csv_columns_follow_the_replay(tmp_path):
    # no seed escapes at the configured step; the orbit and the replay run
    # at the halved one, by which reverse.csv steps t; the replay stops on
    # x0, in B_r, and run on under reach.json's schedule it steps t the same
    out = str(tmp_path / "halved")
    rc = main(["reach", "--function", "double_well", "--target-index", "2",
               "--epsilon", "0.4", "--seed-radius", "0.02",
               "--schedule", "constant:0.0413", "--out", out])
    assert rc == 0
    columns = {}
    for name in ("forward.csv", "reverse.csv"):
        rows = read(os.path.join(out, name)).decode().splitlines()[1:]
        columns[name] = [float(row.split(",")[1]) for row in rows]
    assert columns["forward.csv"] == [0.0] and columns["reverse.csv"][1] == 0.0413 / 2
    # reach.json names the schedule the replay ran, config.json the one asked for
    report = json.loads(read(os.path.join(out, "reach.json")))
    assert report["schedule"] == "constant:0.02065"
    assert parse_schedule(report["schedule"]) == parse_schedule("constant:0.0413").scaled(0.5)
    assert json.loads(read(os.path.join(out, "config.json")))["schedule"] == "constant:0.0413"
    n = len(columns["reverse.csv"])
    f = cli.make_builtin("double_well")
    full = run_gd(f, report["x0"], parse_schedule(report["schedule"]), gtol=0.0, max_iter=n - 1)
    assert n > 2 and columns["reverse.csv"] == full.t.tolist()
    # the batched f and |grad f| columns match each orbit point's own
    for row in read(os.path.join(out, "reverse.csv")).decode().splitlines()[1:]:
        _, _, x, fx, gnorm, _ = row.split(",")
        assert float(fx) == f.value([float(x)]) and float(gnorm) == f.grad_norm([float(x)])


def test_reach_target_index(tmp_path):
    out = str(tmp_path / "ti")
    rc = main(["reach", "--function", "double_well", "--target-index", "2",
               "--schedule", "constant:0.021", "--epsilon", "0.4",
               "--seed-radius", "0.001", "--tol", "1e-4", "--out", out])
    assert rc == 0


def test_probe_cli(tmp_path):
    out = str(tmp_path / "probe")
    rc = main(["probe", "--function", "double_well", "--target", "1",
               "--epsilon", "0.5", "--schedule", "constant:0.05", "--out", out])
    assert rc == 0
    data = json.loads(read(os.path.join(out, "probe.json")))
    assert data["delta_hat"] >= 0.4
    assert data["capture_level"] == 0.5625  # f(0.5), the floor of f on the sphere
    assert data["delta_cert"] > 0.0
    again = str(tmp_path / "again")
    assert main(["probe", "--config", os.path.join(out, "config.json"), "--out", again]) == 0
    assert read(os.path.join(out, "probe.json")) == read(os.path.join(again, "probe.json"))
    rc = main(["probe", "--function", "quad:1,2,5", "--target", "0,0,0", "--epsilon", "1",
               "--schedule", "constant:0.1", "--out", out])
    assert rc == 0
    data = json.loads(read(os.path.join(out, "probe.json")))
    # M = 0: B_r is all of B_eps, so no capture level and delta_cert = r = eps
    assert data["capture_level"] is None and data["delta_cert"] == 1.0


def test_probe_runs_on_the_max_iter_its_config_records(tmp_path, monkeypatch):
    seen, probe = [], cli.stability_probe

    def spy(*args, **kwargs):
        seen.append(kwargs["max_iter"])
        return probe(*args, **kwargs)

    monkeypatch.setattr(cli, "stability_probe", spy)
    out = str(tmp_path / "probe")
    assert main(["probe", "--function", "double_well", "--target", "1", "--epsilon", "0.5",
                 "--schedule", "constant:0.05", "--out", out]) == 0
    assert seen == [json.loads(read(os.path.join(out, "config.json")))["max_iter"]]


def test_probe_cli_lists_each_1d_failure_once(tmp_path):
    out = str(tmp_path / "probe")
    rc = main(["probe", "--function", "double_well", "--target-index", "2", "--mode",
               "continuous", "--epsilon", "0.4", "--h", "1e-3", "--t-max", "1e-4", "--out", out])
    assert rc == 0
    data = json.loads(read(os.path.join(out, "probe.json")))
    assert data["samples"] == 2 and data["delta_hat"] == 0.275
    failures = [tuple(p) for p in data["failures"]]
    assert len(failures) > 2 and len(set(failures)) == len(failures)


def test_eos_cli(tmp_path, capsys):
    out = str(tmp_path / "eos")
    assert main(["eos", "--function", "quad:1", "--alpha", "2.1", "--out", out]) == 0
    assert "diverges" in capsys.readouterr().out
    data = json.loads(read(os.path.join(out, "eos.json")))
    assert data["verdict"] == "diverges"
    assert main(["eos", "--function", "quad:1", "--alpha", "1.9", "--out", out]) == 0
    assert "converges" in capsys.readouterr().out


def test_check_cli(tmp_path):
    out = str(tmp_path / "check")
    rc = main(["check", "--function", "double_well", "--n-checks", "50", "--out", out])
    assert rc == 0
    data = json.loads(read(os.path.join(out, "check.json")))
    assert data["identity_failures"] == 0 and data["certificate_failures"] == 0


def test_check_counts_its_failures_and_exits_1(tmp_path, monkeypatch, capsys):
    # a prox that returns every second point unmoved fails both the identity
    # and the decrease certificate there; check.json counts each failure
    calls, prox = itertools.count(), cli.prox
    monkeypatch.setattr(cli, "prox", lambda f, x, lam: x if next(calls) % 2 else prox(f, x, lam))
    out = tmp_path / "check"
    assert main(["check", "--function", "double_well", "--n-checks", "5", "--out", str(out)]) == 1
    line = capsys.readouterr().out
    assert line == "check: 5 samples, 2 identity failures, 2 certificate failures\n"
    data = json.loads(read(out / "check.json"))
    assert data == {"n": 5, "identity_failures": 2, "certificate_failures": 2}


def test_config_errors(tmp_path, capsys):
    assert main(["run", "--function", "nope", "--x0", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert "nope" in capsys.readouterr().err
    # inadmissible schedule for the regime
    assert main(["reach", "--function", "double_well", "--target", "1",
                 "--schedule", "constant:0.2", "--epsilon", "0.4",
                 "--seed-radius", "0.001", "--tol", "1e-4",
                 "--out", str(tmp_path / "y")]) == 2
    # malformed config file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "z")]) == 2
    # unknown config fields, the retired event_refine_tol among them even as null
    bad2 = tmp_path / "bad2.json"
    capsys.readouterr()
    for field, value in (("stepsize", 0.1), ("event_refine_tol", None)):
        bad2.write_text(json.dumps({field: value}))
        assert main(["run", "--config", str(bad2), "--out", str(tmp_path / "w")]) == 2
        assert capsys.readouterr().err == f"error: config: unknown field {field!r}\n"
    # missing required field
    assert main(["run", "--function", "quad:1", "--out", str(tmp_path / "v")]) == 2


def test_env_output_override(tmp_path, monkeypatch, capsys):
    env_dir = str(tmp_path / "envout")
    monkeypatch.setenv("BASINREACH_OUT", env_dir)
    assert main(["eos", "--function", "quad:1", "--alpha", "2.0"]) == 0
    assert "neutral" in capsys.readouterr().out
    assert os.path.exists(os.path.join(env_dir, "eos.json"))


@pytest.mark.parametrize("argv,message", [
    (["run", "--function", "quad:nan", "--x0", "1"], "must be finite"),
    (["run", "--function", "quad:a", "--x0", "1"],
     "function: could not convert string to float: 'a'"),
    (["run", "--function", "quad:1,2", "--x0", "1"], "x0: needs 2 coordinates"),
    (["reach", "--function", "quad:1,2", "--target", "0"], "target: needs 2 coordinates"),
    (["run", "--function", "quad:1", "--x0", "20"], "outside the operating box"),
    (["reach", "--config", {"function": "double_well", "target": 1, "epsilon": {"a": 1}}],
     'epsilon must be a number, got {"a": 1}'),
    (["run", "--config", {"function": 3}], "function must be a string, got 3"),
    (["run", "--config", {"function": "quad:1", "x0": [1.0], "max_iter": True}],
     "max_iter must be a number, got true"),
    (["probe", "--function", "double_well", "--target-index", "-1", "--epsilon", "0.4",
      "--schedule", "constant:0.02"], "target: catalog index -1 out of range"),
    (["probe", "--config", {"function": "double_well", "target": -1, "epsilon": 0.4,
                            "schedule": "constant:0.02"}], "target: catalog index -1 out of range"),
    (["probe", "--function", "double_well", "--target-index", "2", "--epsilon", "0.4",
      "--schedule", "constant:0.02", "--max-iter", "-5"],
     "max_iter must be a nonnegative integer, got -5"),
    (["run", "--function", "quad:1", "--x0", "1", "--max-iter", "-5"],
     "max_iter must be a nonnegative integer, got -5"),
    (["check", "--function", "quad:1", "--n-checks", "-3"],
     "n_checks must be a nonnegative integer, got -3"),
    (["reach", "--function", "double_well", "--target-index", "2", "--kbar-max", "-1"],
     "kbar_max must be a nonnegative integer, got -1"),
    (["probe", "--function", "double_well", "--target-index", "2", "--n-samples", "-1"],
     "n_samples must be a nonnegative integer, got -1"),
    (["probe", "--config", {"function": "double_well", "target": 2, "n_samples": 2.7}],
     "n_samples must be a nonnegative integer, got 2.7"),
    (["probe", "--config", {"function": "double_well", "target": 2, "seed": 1.9}],
     "seed must be an integer, got 1.9"),
    (["check", "--config", {"function": "quad:1", "n_checks": 5.0}],
     "n_checks must be a nonnegative integer, got 5.0"),
    (["run", "--config", {"function": "quad:1", "x0": [1.0], "max_iter": -5}],
     "max_iter must be a nonnegative integer, got -5"),
    (["reach", "--config", {"function": "double_well", "target": 2, "kbar_max": 1e3}],
     "kbar_max must be a nonnegative integer, got 1000.0"),
    (["reach", "--function", "himmelblau", "--target-index", "0"],
     "reach_discrete needs sup alpha < 1/L (prox regime): sup alpha = 0.02, 1/L = 0.00306"),
    (["reach", "--general", "--function", "himmelblau", "--target-index", "6",
      "--mode", "discrete"],
     "reach_general needs sup alpha < 1/L (prox regime): sup alpha = 0.02, 1/L = 0.00306"),
    (["probe", "--function", "quad:1", "--target", "0", "--epsilon", "1",
      "--schedule", "constant:2.5"],
     "discrete probe needs sup alpha < 2/L (stability regime): sup alpha = 2.5, 2/L = 2.0"),
    (["reach", "--config", {"function": "double_well", "target": 2, "mode": "foo"}],
     "mode: 'foo' is not discrete or continuous"),
    (["probe", "--config", {"function": "double_well", "target": 2, "mode": "foo"}],
     "mode: 'foo' is not discrete or continuous"),
    (["probe", "--function", "double_well", "--target", "1", "--schedule", "constant:0.05",
      "--epsilon", "-0.5"], "epsilon must be positive and finite, got -0.5"),
    (["probe", "--function", "double_well", "--target", "1", "--schedule", "constant:0.05",
      "--epsilon", "nan"], "epsilon must be positive and finite, got nan"),
    (["reach", "--mode", "continuous", "--function", "double_well", "--target", "1",
      "--h", "inf"], "h must be positive and finite, got inf"),
    (["reach", "--general", "--function", "himmelblau", "--target-index", "8", "--epsilon",
      "1.0", "--schedule", "constant:0.0015", "--seed-radius", "0.3", "--tol", "inf"],
     "tol must be positive and finite, got inf"),
    (["run", "--function", "quad:1", "--x0", "1", "--gtol", "nan"],
     "gtol must be nonnegative and finite, got nan"),
    (["run", "--function", "quad:1", "--x0", "1", "--gtol", "-1"],
     "gtol must be nonnegative and finite, got -1.0"),
    (["probe", "--function", "double_well", "--target", "1", "--schedule", "constant:0.05",
      "--epsilon", "0.5", "--gtol", "nan"], "gtol must be nonnegative and finite, got nan"),
    (["probe", "--function", "double_well", "--target", "1", "--schedule", "constant:0.05",
      "--epsilon", "0.5", "--gtol", "-1"], "gtol must be nonnegative and finite, got -1.0"),
    (["reach", "--function", "double_well"], "target: required for this procedure"),
    (["reach", "--function", "double_well", "--target", "1", "--epsilon", "1.0"],
     "B_epsilon(target) must fit inside the operating box"),
    (["reach", "--mode", "continuous", "--function", "double_well", "--target", "1",
      "--epsilon", "1.0"], "B_epsilon(target) must fit inside the operating box"),
    (["eos", "--function", "quad:1"], "alpha: required for eos"),
    (["run", "--function", "quad:1", "--x0", "inf"], "x0: coordinates must be finite"),
    (["run", "--config", {"function": "quad:1", "x0": [1.0], "procedure": "reach"}],
     "procedure: 'reach' is not a run procedure"),
    (["reach", "--function", "quad:1", "--target", "20"],
     "target: [20.0] lies outside the operating box [[-10.0, 10.0]]"),
    (["run", "--function", "quad:1", "--x0", "1", "--schedule", "constant:"],
     "error: bad schedule 'constant:'; use constant:C or power:C:P"),
], ids=["nonfinite-param", "non-numeric-param", "x0-dimension", "target-dimension",
        "x0-outside-box", "config-object-for-number", "config-number-for-string", "config-bool-for-number",
        "negative-target-index", "config-negative-target-index", "probe-negative-max-iter",
        "run-negative-max-iter", "negative-n-checks", "negative-kbar-max",
        "negative-n-samples", "config-fractional-n-samples", "config-fractional-seed",
        "config-float-n-checks", "config-negative-max-iter", "config-float-kbar-max",
        "reach-schedule-above-1-over-L", "general-schedule-above-1-over-L",
        "probe-schedule-above-2-over-L", "reach-unknown-mode", "probe-unknown-mode",
        "probe-negative-epsilon", "probe-nan-epsilon", "flow-infinite-h", "general-infinite-tol",
        "run-nan-gtol",
        "run-negative-gtol", "probe-nan-gtol", "probe-negative-gtol", "reach-no-target",
        "reach-ball-outside-box", "flow-reach-ball-outside-box",
        "eos-no-alpha", "run-infinite-x0", "run-config-reach-procedure",
        "reach-target-outside-box", "run-schedule-not-a-number"])
def test_bad_input_is_a_config_error(tmp_path, capsys, argv, message):
    if isinstance(argv[-1], dict):  # the contents of a config file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


# one command per subcommand and dynamics, with the number flags it reads;
# the first three are run, probe and reach commands that once took gtol = inf
NUMBER_FLAGS = {
    "run": (["run", "--function", "himmelblau", "--x0", "0,0", "--schedule", "constant:0.001"],
            ("gtol",)),
    "probe": (["probe", "--function", "himmelblau", "--target-index", "0", "--epsilon", "2.0",
               "--seed", "4", "--schedule", "constant:0.0058"], ("epsilon", "gtol")),
    "reach-flow": (["reach", "--mode", "continuous", "--function", "double_well", "--target",
                    "1", "--epsilon", "0.4"],
                   ("epsilon", "seed_radius", "tol", "gtol", "h", "t_max")),
    "run-flow": (["run", "--procedure", "flow", "--function", "quad:1", "--x0", "1"],
                 ("gtol", "h", "t_max")),
    "probe-flow": (["probe", "--mode", "continuous", "--function", "double_well", "--target",
                    "1", "--epsilon", "0.4"], ("gtol", "h", "t_max")),
    "reach": (["reach", "--function", "double_well", "--target", "1", "--schedule",
               "constant:0.021"], ("epsilon", "seed_radius", "tol", "gtol")),
    "reach-general": (["reach", "--general", "--function", "himmelblau", "--target-index", "8",
                       "--epsilon", "1.0", "--schedule", "constant:0.0015", "--seed-radius",
                       "1e-3", "--tol", "1e-2"], ("delta",)),
    "eos": (["eos", "--function", "quad:1"], ("alpha",)),
}
NUMBER_CASES = [(command, field, value) for command, (_, fields) in NUMBER_FLAGS.items()
                for field in fields for value in ("inf", "nan")]


@pytest.mark.parametrize("command,field,value", NUMBER_CASES,
                         ids=["-".join(case) for case in NUMBER_CASES])
def test_every_number_flag_rejects_inf_and_nan(tmp_path, capsys, command, field, value):
    # exit 2 with one error line naming the field and no directory; an
    # infinite time budget alone is legal, and the run it ends succeeds
    out = tmp_path / "o"
    argv = NUMBER_FLAGS[command][0] + ["--" + field.replace("_", "-"), value, "--out", str(out)]
    rc = main(argv)
    err = capsys.readouterr().err
    if (field, value) == ("t_max", "inf"):
        assert rc == 0 and err == ""
        config = json.loads(read(out / "config.json"), parse_constant=refuse_constant)
        assert config["t_max"] is None
        return
    assert rc == 2 and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(rf"\b{field}\b", err)


@pytest.mark.parametrize("field,value,message", [
    ("delta", "x", 'config: delta must be a number or null, got "x"'),
    ("alpha", [0.1], "config: alpha must be a number or null, got [0.1]"),
    ("output_dir", 3, "config: output_dir must be a string or null, got 3"),
    ("target", True, "config: target must be a catalog index (int) or a list of numbers "
                     "or null, got true"),
    ("x0", [1.0, "2"], 'config: x0 must be a list of numbers or null, got [1.0, "2"]'),
], ids=["delta", "alpha", "output_dir", "target", "x0"])
def test_config_fields_defaulting_to_null_are_type_checked(tmp_path, capsys, field, value,
                                                           message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "double_well", "target": 2, field: value}))
    argv = ["reach", "--config", str(cfg), "--mode", "continuous", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    cfg.write_text(json.dumps({"function": "double_well", field: None}))
    assert cli.resolve_config(argparse.Namespace(config=str(cfg)))[field] is None


@pytest.mark.parametrize("value,expected", [
    (np.array([0.5, -1.0]), [0.5, -1.0]), (np.float64(0.25), 0.25), (np.int64(3), 3.0),
    (math.inf, None), (math.nan, None), (0.5, 0.5), ("success", "success"),
    (np.float64("nan"), None), (np.float64("-inf"), None),
    (np.array([np.nan, 2.0, np.inf, -np.inf]), [None, 2.0, None, None]), (None, None),
], ids=["array", "numpy-float", "numpy-int", "inf", "nan", "float", "str", "numpy-nan",
        "numpy-inf", "array-nonfinite", "none"])
def test_report_values_become_plain_json(value, expected):
    # numpy values become Python floats, and every non-finite number,
    # scalar or array element, null
    out = serialize._jsonable(value)
    assert out == expected and type(out) is type(expected)
    if isinstance(out, list):
        assert all(c is None or type(c) is float for c in out)


def refuse_constant(token):
    raise ValueError(f"not JSON: {token}")


def test_non_finite_final_state_writes_null(tmp_path):
    # a run whose last state is not finite writes its summary as JSON:
    # every non-finite number, of the point and of f, |g| and t, is null
    traj = Trajectory(t=[0.0, math.inf], X=[[1.0, 2.0], [math.nan, -math.inf]],
                      f=[5.0, math.nan], gnorm=[1.0, math.inf],
                      terminal_status="budget_exhausted")
    path = tmp_path / "summary.json"
    serialize.write_json(serialize.trajectory_summary(traj), str(path))
    summary = json.loads(path.read_text(), parse_constant=refuse_constant)
    assert summary == {"status": "budget_exhausted", "states": 2, "final_x": [None, None],
                       "final_f": None, "final_gnorm": None, "final_t": None, "limit": None}


def test_unwritable_json_leaves_the_file_it_would_replace(tmp_path):
    # the text is built before the file is touched; a non-finite float,
    # which strict JSON cannot hold, is unwritable too
    path = tmp_path / "out.json"
    path.write_text("before\n")
    for obj, error in (({"x": object()}, TypeError), ({"t_max": math.inf}, ValueError)):
        with pytest.raises(error):
            serialize.write_json(obj, str(path))
        assert path.read_text() == "before\n"


# values whose repr the writers must keep: signed zero, the least
# subnormal, exponent forms on either side of repr's switch, and non-finite
SPECIAL = [-0.0, 5e-324, 1e16, 1e-5, 1.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 9])
@pytest.mark.parametrize("k0", [0, 4])
@pytest.mark.parametrize("direction", [None, "reverse"])
def test_bulk_csv_text_is_the_row_writers(tmp_path, dim, n, k0, direction):
    # the CSV text built column by column is the row-by-row writer's, byte
    # for byte, on 1-, 2- and 3-D paths of one row and of several, from k =
    # 0 and from a later k, with and without the direction flag
    rng = np.random.default_rng(100 * dim + 10 * n + k0)
    pool = SPECIAL + (rng.standard_normal(16) * 10.0 ** rng.integers(-20, 20, 16)).tolist()
    V = rng.permutation(np.resize(np.array(pool), n * (dim + 3))).reshape(n, dim + 3)
    t, X, fv, gnorm = V[:, 0].tolist(), V[:, 1:dim + 1], V[:, -2].tolist(), V[:, -1].tolist()
    write_reference_rows(reference_rows(k0, t, X, fv, gnorm, direction), tmp_path / "ref.csv")
    serialize._write_rows(serialize._rows(k0, t, X, fv, gnorm, direction),
                          str(tmp_path / "bulk.csv"))
    assert read(tmp_path / "bulk.csv") == read(tmp_path / "ref.csv")


@pytest.mark.parametrize("params", [(1.0,), (1.0, 5.0), (1.0, 2.0, 5.0)],
                         ids=["quad-1d", "quad-2d", "quad-3d"])
def test_written_records_are_the_row_writers(tmp_path, params):
    # a gd run's trajectory.csv and a partial (left_box) orbit's
    # reverse.csv, counting from its start index, are the row-by-row
    # writer's bytes on either lane
    f = br.make_builtin("quad", params)
    s = br.power(0.9 / f.lipschitz_L, 0.5)
    orbit = br.reverse_orbit(f, np.full(f.dim, 1.0), s, 60)
    assert orbit.status == "left_box" and orbit.start_index > 0
    P, k0 = orbit.points, orbit.start_index
    t = itertools.accumulate(map(s.alpha, itertools.count(k0)), initial=0.0)
    write_reference_rows(reference_rows(k0, t, P, f.values(P).tolist(), orbit.grad_norms,
                                        "reverse"), tmp_path / "ref.csv")
    serialize.write_reverse_part_csv(orbit, f, s, str(tmp_path / "reverse.csv"))
    assert read(tmp_path / "reverse.csv") == read(tmp_path / "ref.csv")
    traj = run_gd(f, np.full(f.dim, 1.0), br.constant(0.5 / f.lipschitz_L), max_iter=30)
    write_reference_rows(reference_rows(0, traj.t.tolist(), traj.X, traj.f.tolist(),
                                        traj.gnorm.tolist()), tmp_path / "ref.csv")
    serialize.write_trajectory_csv(traj, str(tmp_path / "trajectory.csv"))
    assert read(tmp_path / "trajectory.csv") == read(tmp_path / "ref.csv")


def test_unreadable_config_point_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "quad:1", "x0": {"a": 1}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == 'error: config: x0 must be a list of numbers or null, got {"a": 1}\n'


@pytest.mark.parametrize("exc", [
    LeftBoxError([7.0], "flow left the operating box before crossing"),
    ArithmeticError("sphere-crossing refinement did not converge"),
], ids=["left-box", "arithmetic"])
def test_procedure_breakdown_exits_1(tmp_path, capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "reach_discrete", broken)
    argv = ["reach", "--function", "double_well", "--target", "1", "--epsilon", "0.4",
            "--schedule", "constant:0.021", "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"


#: a config file for each subcommand that records its own procedure, and
#: the procedures it records
OWN_PROCEDURE = {
    "reach": ({"function": "double_well", "target": [1.0]}, ("reach", "reach-general")),
    "probe": ({"function": "double_well", "target": [1.0]}, ("probe",)),
    "eos": ({"function": "quad:1", "alpha": 0.5}, ("eos",)),
    "check": ({"function": "quad:1", "n_checks": 3}, ("prox-check",)),
}


@pytest.mark.parametrize("procedure", ["gd", "banana", "flow", "probe", "reach"])
@pytest.mark.parametrize("command", OWN_PROCEDURE)
def test_a_procedure_the_subcommand_does_not_record_is_refused(tmp_path, capsys, command,
                                                               procedure):
    # a subcommand other than run records its own procedure: a config may
    # hold one it records or the default gd, and any other ends the run with
    # exit 2, one line and no directory, where it was once overwritten
    # without a word
    fields, own = OWN_PROCEDURE[command]
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(json.dumps(dict(fields, procedure=procedure)))
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if procedure in ("gd", *own):
        assert rc == 0 and err == ""
        recorded = json.loads(read(out / "config.json"))["procedure"]
        assert recorded == (own[0] if procedure == "gd" else procedure)
        return
    assert rc == 2 and not out.exists()
    names = " or ".join(f'"{p}"' for p in own)
    assert err == (f'error: procedure: {command} records {names} itself; '
                   'leave it at its default "gd"\n')


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"])
def test_a_config_that_is_not_a_json_object_is_a_config_error(tmp_path, capsys, text):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(text)
    assert main(["reach", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config: must be a JSON object of fields, got {text}\n"
    assert not out.exists()


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_bytes(b'{"function": "quad:1", "x0": [1.0], "\xff": 1}')
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("where,sub", [
    ("--out", ""), ("--out", "sub"), ("BASINREACH_OUT", ""), ("output_dir", "sub"),
], ids=["out-file", "out-under-file", "env-file", "config-under-file"])
def test_an_output_path_that_cannot_be_a_directory_is_a_config_error(
        tmp_path, capsys, monkeypatch, where, sub):
    # a file where the output directory, or a parent of it, would go: exit 2
    # with one line naming output_dir and the path, the file as it was
    monkeypatch.delenv("BASINREACH_OUT", raising=False)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = str(blocker / sub) if sub else str(blocker)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "quad:1", "x0": [1.0]}
                              | ({"output_dir": out} if where == "output_dir" else {})))
    argv = ["run", "--config", str(cfg)]
    if where == "--out":
        argv += ["--out", out]
    elif where == "BASINREACH_OUT":
        monkeypatch.setenv("BASINREACH_OUT", out)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output_dir: [Errno ") and err.endswith(f": {out!r}\n")
    assert err.count("\n") == 1
    assert blocker.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "file"]


@pytest.mark.parametrize("name", ["summary.json", "config.json"])
def test_a_directory_at_an_output_path_is_a_config_error(tmp_path, capsys, name):
    # a directory where an output file goes: exit 2 with one line naming
    # output_dir and the path, refused before any file is written
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    (out / name / "kept").write_text("kept\n")
    assert main(["run", "--function", "quad:1", "--x0", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: output_dir: [Errno {errno.EISDIR}] Is a directory: {str(out / name)!r}\n"
    assert os.listdir(out) == [name] and os.listdir(out / name) == ["kept"]
    assert (out / name / "kept").read_text() == "kept\n"


def test_no_escape_reach_writes_only_its_report(tmp_path, capsys):
    # with a one-step horizon no ascent seed leaves the ball: a procedure
    # failure, reported with nothing to replay
    out = tmp_path / "o"
    assert main(["reach", "--function", "double_well", "--target", "1", "--schedule",
                 "constant:0.021", "--kbar-max", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().out == "reach: no_escape, final_distance=inf\n"
    assert sorted(os.listdir(out)) == ["config.json", "reach.json"]
    report = json.loads(read(out / "reach.json"))
    assert report["status"] == "no_escape"
    assert report["final_distance"] is None
    assert report["forward_csv_path"] is None and report["reverse_csv_path"] is None


@pytest.mark.parametrize("rc,broken", [
    (2, None), (1, LeftBoxError([7.0], "flow left the operating box before crossing")),
], ids=["config-error", "procedure-breakdown"])
def test_failed_run_writes_no_directory(tmp_path, capsys, monkeypatch, rc, broken):
    # the seed radius is rejected inside the reach, after its objective and
    # dynamics were resolved; a breakdown is raised from inside it
    if broken is not None:
        def reach(*args, **kwargs):
            raise broken
        monkeypatch.setattr(cli, "reach_discrete", reach)
    out = tmp_path / "o"
    assert main(["reach", "--function", "double_well", "--target", "1", "--epsilon", "0.4",
                 "--seed-radius", "0.3", "--out", str(out)]) == rc
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("gtol", ["nan", "-1"])
def test_saddle_reach_rejects_a_bad_gtol_before_it_runs(tmp_path, capsys, gtol):
    # a saddle reach's level run never passes through run_gd: its budgets
    # check gtol, so the reach exits 2 and writes no directory, let alone a
    # config.json holding NaN
    out = tmp_path / "o"
    assert main(["reach", "--general", "--function", "himmelblau", "--target-index", "8",
                 "--epsilon", "1.0", "--schedule", "constant:0.0015", "--seed-radius", "1e-3",
                 "--tol", "1e-2", "--gtol", gtol, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: gtol must be nonnegative and finite, got {float(gtol)}\n"
    assert not out.exists()


class RecordingConfig(dict):
    """A resolved config that records each field a subcommand reads."""

    def __init__(self, cfg, reads):
        super().__init__(cfg)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)


# one short run per (command, mode) of cli.READS, and the saddle reaches
# (--general), which read what their mode's minimum reach reads
MODE_RUNS = {
    ("run", "gd"): ["run", "--function", "quad:1", "--x0", "1", "--schedule", "constant:0.5",
                    "--max-iter", "50"],
    ("run", "flow"): ["run", "--procedure", "flow", "--function", "quad:1", "--x0", "1",
                      "--h", "0.01", "--t-max", "0.5"],
    ("reach", "discrete"): ["reach", "--function", "double_well", "--target", "1",
                            "--schedule", "constant:0.021"],
    ("reach", "continuous"): ["reach", "--function", "quad:1", "--target", "0", "--mode",
                              "continuous", "--epsilon", "1.0", "--h", "0.01", "--t-max", "60",
                              "--gtol", "1e-6", "--tol", "1e-5"],
    ("probe", "discrete"): ["probe", "--function", "double_well", "--target", "1", "--epsilon",
                            "0.5", "--schedule", "constant:0.05", "--n-samples", "2"],
    ("probe", "continuous"): ["probe", "--function", "double_well", "--target-index", "2",
                              "--mode", "continuous", "--h", "1e-3", "--t-max", "1e-4"],
    ("eos", None): ["eos", "--function", "quad:1", "--alpha", "2.1", "--x0", "0.5"],
    ("check", None): ["check", "--function", "double_well", "--n-checks", "5"],
}
GENERAL_RUNS = {
    ("reach", "discrete"): ["reach", "--general", "--function", "himmelblau", "--target-index",
                            "8", "--epsilon", "1.0", "--schedule", "constant:0.0015", "--tol",
                            "1e-2"],
    ("reach", "continuous"): ["reach", "--general", "--mode", "continuous", "--function",
                              "himmelblau", "--target-index", "8", "--epsilon", "1.0",
                              "--seed-radius", "1e-3", "--tol", "1e-2", "--h", "3e-4",
                              "--t-max", "50", "--gtol", "1e-6", "--delta", "0.1"],
}


def flags(command):
    """The fields the subcommand takes a --flag for."""
    return set(vars(cli.build_parser().parse_args([command]))) & set(cli.FIELDS)


def test_each_subcommand_flags_exactly_the_fields_it_reads(tmp_path, monkeypatch, capsys):
    # each run reads exactly the fields READS gives its (command, mode), and
    # besides them only output_dir (after --out and BASINREACH_OUT, neither
    # given here) and a reach's procedure (--general sets it); a subcommand
    # flags the fields that some mode of it reads, and no other
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BASINREACH_OUT", raising=False)
    resolve = cli.resolve_config
    assert set(MODE_RUNS) == set(cli.READS)
    for key, argv in [*MODE_RUNS.items(), *GENERAL_RUNS.items()]:
        reads = set()
        monkeypatch.setattr(cli, "resolve_config",
                            lambda args, reads=reads: RecordingConfig(resolve(args), reads))
        assert main(argv) == 0, argv
        unflagged = {"output_dir"} | ({"procedure"} if key[0] == "reach" else set())
        assert reads == set(cli.READS[key]) | unflagged, key
    capsys.readouterr()
    for command in {command for command, _ in cli.READS}:
        modes = [keys for (c, _), keys in cli.READS.items() if c == command]
        assert flags(command) == set().union(*modes), command


def unread(command, mode):
    """The fields a (command, mode) run refuses at any value but its default."""
    return [key for key in cli.FIELDS
            if key not in (*cli.READS[command, mode], "procedure", "output_dir")]


#: a value of each field other than its default, as a config file gives it
OTHER = {"function": "quad:2", "schedule": "constant:0.01", "target": [0.5], "x0": [0.5],
         "direction": "reverse", "mode": "continuous", "epsilon": 0.3, "seed_radius": 0.01,
         "tol": 0.01, "delta": 0.1, "gtol": 1e-7, "h": 0.5, "t_max": 3.0, "max_iter": 7,
         "kbar_max": 7, "n_samples": 3, "alpha": 0.5, "n_checks": 3, "seed": 3}
UNREAD = [(command, mode, key) for command, mode in MODE_RUNS for key in unread(command, mode)]


def refusal(command, mode, key):
    """The one line a (command, mode) run prints when given the field key,
    which it does not read, at a value other than its default."""
    field = {"run": "procedure", "reach": "mode", "probe": "mode"}.get(command)
    where = f"{command} --{field} {mode}" if field else command
    default = json.dumps(cli.FIELDS[key][0])
    return f"error: {key}: {where} does not read it; leave it at its default {default}\n"


def test_fourteen_flags_are_unread_in_some_mode():
    # the flags some mode of their subcommand reads and another does not:
    # each was accepted and dropped in that other mode, and now refused
    unread_flags = [(c, m, k) for c, m, k in UNREAD if k in flags(c)]
    assert len(unread_flags) == 14
    assert {(c, m): [k for c2, m2, k in unread_flags if (c2, m2) == (c, m)]
            for c, m in MODE_RUNS} == {
        ("run", "gd"): ["direction", "h", "t_max"], ("run", "flow"): ["schedule", "max_iter"],
        ("reach", "discrete"): ["h", "t_max"],
        ("reach", "continuous"): ["schedule", "max_iter", "kbar_max"],
        ("probe", "discrete"): ["h", "t_max"], ("probe", "continuous"): ["schedule", "max_iter"],
        ("eos", None): [], ("check", None): []}


@pytest.mark.parametrize("command,mode,key", UNREAD,
                         ids=[f"{c}-{m}-{k}" if m else f"{c}-{k}" for c, m, k in UNREAD])
def test_a_field_its_mode_does_not_read_is_refused(tmp_path, capsys, command, mode, key):
    # away from its default, from a config file or by its flag where the
    # subcommand has one, the field ends the run with exit 2, one line naming
    # it and the mode, and no directory; at its default the run goes ahead
    argv = MODE_RUNS[command, mode] + ["--config", str(tmp_path / "cfg.json")]
    default = cli.FIELDS[key][0]
    flag, other = "--" + key.replace("_", "-"), OTHER[key]
    text = ",".join(map(str, other)) if isinstance(other, list) else str(other)
    given = [([], {key: other})]
    if key in flags(command):
        given.append(([flag, text], {}))
    for extra, config in given:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(argv + extra + ["--out", str(tmp_path / "o")]) == 2, (extra, config)
        assert capsys.readouterr().err == refusal(command, mode, key)
        assert not (tmp_path / "o").exists()
    (tmp_path / "cfg.json").write_text(json.dumps({key: default}))
    extra = [flag, str(default)] if key in flags(command) and default is not None else []
    assert main(argv + extra + ["--out", str(tmp_path / "d")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv,key,mode", [
    (["run", "--function", "quad:1", "--x0", "1", "--schedule", "constant:0.5", "--direction",
      "reverse", "--h", "9"], "direction", "gd"),
    (["reach", "--function", "himmelblau", "--target", "3,2", "--epsilon", "0.5", "--mode",
      "continuous", "--schedule", "power:0.001:0.7"], "schedule", "continuous"),
    (["reach", "--function", "himmelblau", "--target", "3,2", "--epsilon", "0.5",
      "--schedule", "constant:0.0015", "--h", "0.5", "--t-max", "1"], "h", "discrete"),
    (["reach", "--mode", "continuous", "--function", "double_well", "--target", "1",
      "--epsilon", "0.4", "--seed-radius", "1e-3", "--tol", "1e-4", "--h", "1e-3", "--t-max",
      "20", "--gtol", "1e-6", "--max-iter", "1", "--kbar-max", "1"], "max_iter", "continuous"),
    (["reach", "--function", "double_well", "--target", "1", "--h", "nan"], "h", "discrete"),
    (["run", "--config", {"function": "quad:1", "x0": [1.0], "seed": 3}], "seed", "gd"),
], ids=["gd-run-reverse-direction", "flow-reach-schedule", "gd-reach-flow-settings",
        "flow-reach-gd-budgets", "gd-reach-nan-h", "run-config-seed"])
def test_inputs_once_dropped_without_a_message_are_refused(tmp_path, capsys, argv, key, mode):
    # each of these ran and wrote the outputs of the run without the
    # unread input, and config.json recorded it as if it had been used (the
    # NaN h as the non-JSON token NaN); now each exits 2 with one line
    # naming the field and the mode, and writes no directory
    if isinstance(argv[-1], dict):  # the contents of a config file
        (tmp_path / "cfg.json").write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(tmp_path / "cfg.json")]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == refusal(argv[0], mode, key)
    assert not out.exists()


@pytest.mark.parametrize("key", [*MODE_RUNS, *(("general",) + key for key in GENERAL_RUNS)],
                         ids=lambda key: "-".join(map(str, key)))
def test_each_mode_runs_again_from_its_config(tmp_path, capsys, key):
    # config.json records every field, those the run does not read at their
    # defaults, so it runs again as it is and writes the same bytes
    argv = (GENERAL_RUNS[key[1:]] if key[0] == "general" else MODE_RUNS[key])
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(argv + ["--out", str(first)]) == 0
    assert main([argv[0], "--config", str(first / "config.json"), "--out", str(again)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(first)) == sorted(os.listdir(again))
    for name in os.listdir(first):
        if name != "config.json":
            assert read(first / name) == read(again / name), name
    configs = [json.loads(read(d / "config.json")) for d in (first, again)]
    assert [dict(c, output_dir=None) for c in configs] == [dict(configs[0], output_dir=None)] * 2


# a run of each dynamics that reads t_max, to take --t-max inf
TIMED_RUNS = {key: MODE_RUNS[key] for key in MODE_RUNS if "t_max" in cli.READS[key]}


@pytest.mark.parametrize("key", TIMED_RUNS, ids=lambda key: "-".join(map(str, key)))
def test_an_infinite_time_budget_is_written_as_null(tmp_path, capsys, key):
    # strict JSON has no infinity: config.json records --t-max inf as null,
    # every JSON file the run writes parses under a strict reader, and the
    # run again from config.json, which reads null back as no time budget,
    # writes the same bytes into the same directory
    out = tmp_path / "o"
    assert main(TIMED_RUNS[key] + ["--t-max", "inf", "--out", str(out)]) == 0
    written = {name: read(out / name) for name in os.listdir(out)}
    for name, text in written.items():
        if name.endswith(".json"):
            json.loads(text, parse_constant=refuse_constant)
    assert json.loads(written["config.json"])["t_max"] is None
    assert main([key[0], "--config", str(out / "config.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert {name: read(out / name) for name in os.listdir(out)} == written


ONE_D_RUNS = {key: argv for key, argv in MODE_RUNS.items() if key[0] in ("reach", "probe")}


@pytest.mark.parametrize("key", ONE_D_RUNS, ids=lambda key: "-".join(map(str, key)))
def test_a_1d_reach_or_probe_refuses_a_seed(tmp_path, capsys, key):
    # a 1-D reach or probe draws no quasi-random direction: a seed away from
    # its default, by its flag or from a config file, ends the run with exit
    # 2, one line naming seed and no directory; at the default it runs
    argv = ONE_D_RUNS[key]
    assert cli.parse_function(argv[argv.index("--function") + 1]).dim == 1
    cfg = tmp_path / "cfg.json"
    for extra, config in ((["--seed", "3"], {}), ([], {"seed": 3})):
        cfg.write_text(json.dumps(config))
        assert main(argv + ["--config", str(cfg)] + extra + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: seed: {key[0]} on a 1-D function draws no quasi-random direction; "
            "leave it at its default 0\n")
        assert not (tmp_path / "o").exists()
    cfg.write_text(json.dumps({"seed": 0}))
    assert main(argv + ["--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "d")]) == 0
    capsys.readouterr()


def test_double_well_refuses_a_second_parameter(tmp_path, capsys):
    # double_well reads one parameter, its box half-width b: a second one,
    # by flag or from a config file, ends the run with exit 2, one line
    # naming double_well and no directory; double_well:1.5 runs as
    # double_well does
    argv = ["probe", "--target", "1", "--epsilon", "0.5", "--schedule", "constant:0.05"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "double_well:1.5,7"}))
    for given in (["--function", "double_well:1.5,7"], ["--config", str(cfg)]):
        assert main(argv + given + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: function: double_well takes at most one parameter (b), got (1.5, 7.0)\n")
        assert not (tmp_path / "o").exists()
    for name, function in (("b", "double_well:1.5"), ("default", "double_well")):
        assert main(argv + ["--function", function, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert read(tmp_path / "b" / "probe.json") == read(tmp_path / "default" / "probe.json")


def test_reach_takes_no_n_samples_flag(capsys):
    # every CLI objective certifies a minimum reach's radius, so no CLI
    # reach probes; the probe keeps the flag
    with pytest.raises(SystemExit) as exc:
        main(["reach", "--function", "double_well", "--target", "1", "--n-samples", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-samples 2" in capsys.readouterr().err


def readme_commands():
    """Each `basinreach ...` command of the README's "Command line" block,
    its continuation lines joined and its comments dropped, as argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "basinreach"
            commands.append(argv[1:])
    return commands


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BASINREACH_OUT", str(tmp_path / "default"))
    commands = readme_commands()
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, argv
