import dataclasses
import math
import re

import numpy as np
import pytest

import basinreach as br
from basinreach.schedule import format_schedule


def test_alpha_examples():
    assert br.constant(0.5).alpha(7) == 0.5
    p = br.power(1.0, 1.0)
    assert p.alpha(0) == 1.0 and p.alpha(1) == 0.5
    assert br.power(2.0, 0.5).alpha(3) == 1.0
    assert br.power(0.3, 0.0).alpha(9) == br.constant(0.3).alpha(9) == 0.3


@pytest.mark.parametrize("s", [br.constant(0.5), br.power(1.0, 1.0),
                               br.power(2.0, 0.5), br.power(0.01, 0.25)])
def test_partial_sum_increasing_and_unbounded(s):
    # the running sums of alpha(k) rise strictly and pass each M; the first
    # K past M has sum_{k<K-1} alpha(k) <= M, and that sum is at least
    # c ln K (StepSchedule), so ln K <= M / c
    total, K = 0.0, 0
    for M in (1.0, 10.0):
        while total <= M:
            nxt = total + s.alpha(K)
            assert nxt > total
            total, K = nxt, K + 1
        assert math.log(K) <= M / s.c


@pytest.mark.parametrize("s", [br.constant(0.5), br.power(1.0, 1.0), br.power(2.0, 0.5)])
def test_alpha_bounded_by_sup(s):
    for k in list(range(100)) + [10**3, 10**4, 10**5, 10**6]:
        assert s.alpha(k) <= s.sup_alpha
        assert s.alpha(k) > 0.0
    # monotone nonincreasing
    assert all(s.alpha(k + 1) <= s.alpha(k) for k in range(1000))


def test_summable_rejected():
    with pytest.raises(ValueError):
        br.power(1.0, 1.5)
    with pytest.raises(ValueError):
        br.power(1.0, -0.1)
    with pytest.raises(ValueError):
        br.constant(0.0)


def test_every_schedule_is_admissible_on_an_affine_objective():
    # L = 0: no step bound, in either regime
    f = br.ObjectiveFunction(dim=1, f=lambda x: float(x[0]), grad=lambda x: np.ones(1),
                             lipschitz_L=0.0, box=np.array([[-1.0, 1.0]]))
    for regime in ("stability", "prox"):
        assert br.admissible(br.constant(1e6), f, regime)


def test_admissible_examples(quad1):
    assert br.admissible(br.constant(1.5), quad1, "stability")
    assert not br.admissible(br.constant(1.5), quad1, "prox")
    assert br.admissible(br.constant(0.5), quad1, "stability")
    assert br.admissible(br.constant(0.5), quad1, "prox")
    q2 = br.make_builtin("quad", (2.0,))
    assert not br.admissible(br.power(0.6, 1.0), q2, "prox")
    with pytest.raises(ValueError):
        br.admissible(br.constant(0.5), quad1, "both")


def test_parse_schedule_grammar():
    s = br.parse_schedule("constant:0.5")
    assert s.p == 0.0 and s.c == 0.5
    s = br.parse_schedule("power:1.0:0.5")
    assert s.p == 0.5 and s.c == 1.0
    # p = 0 is the constant schedule, whichever way it is written
    assert br.parse_schedule("power:0.5:0") == br.parse_schedule("constant:0.5") == br.constant(0.5)
    assert [f.name for f in dataclasses.fields(br.StepSchedule)] == ["c", "p"]
    # a C or P that is not a number gets the malformed shape's message
    for bad in ("constant", "power:1.0", "linear:0.1", "constant:0.5:0.5", "constant:",
                "constant:x", "power:0.1:x"):
        message = f"bad schedule {bad!r}; use constant:C or power:C:P"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            br.parse_schedule(bad)


@pytest.mark.parametrize("s,text", [
    (br.constant(0.5), "constant:0.5"), (br.constant(0.0413 / 2), "constant:0.02065"),
    (br.constant(1e-300), "constant:1e-300"), (br.power(2.0, 0.0), "constant:2.0"),
    (br.power(0.1 / 3.0, 0.5), "power:0.03333333333333333:0.5"), (br.power(0.3, 1.0), "power:0.3:1.0"),
])
def test_format_schedule_round_trips(s, text):
    assert format_schedule(s) == text and br.parse_schedule(text) == s
