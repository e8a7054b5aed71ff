"""Continuous-time dynamics: forward/reverse gradient flow by the
explicit Runge-Kutta pair DOP853 of order 8(5,3) with step-size control
and a 7th-order dense output (Prince & Dormand 1981, J. Comput. Appl.
Math. 7:67-75; Hairer, Norsett & Wanner, Solving ODEs I, II.10), the
minimum-norm Clarke flow of the capped function max{f, level}, crossing
events located on the dense output, each to its own tolerance on the
function it locates, and path-length analytics.

Each run is a :func:`~basinreach.trajectory.march` of the one runner,
``_Flow``, whose step rule is :func:`_dop853_step`, on points of the
objective's lane (``landscape.Lane``): ``integrate``, sphere exits, each
start of the continuous stability probe and ``integrate_minnorm``.
Every sum of stages, a step's or the dense output's, is one ``lane.comb``
call over the nonzero pairs of its table row, precomputed at import: 14
calls a step for its 12 gradients.  A crossing is a stop event: it tests the
state a step reached and locates the crossing on that step's
interpolant, whose three extra stages are the only gradients it costs.
Every run steps at the relative tolerance RTOL, a minimum's sphere exit
at REVERSE_RTOL, under the I controller of Hairer's dop853.f (the comment
at PI_ALPHA; it replaced a PI controller whose PI_BETA = 0.04 kept steps
short outside steady state), and opens by one rule, at the first trial
step min(settings.h, H_STABLE / L): a leg picks its opening only through
the settings it hands in.  A sphere exit, a reach's reverse flow to its
sphere, returns its recorded run however it ends, with the crossing, or
None when it stopped inside the sphere (its status says how: the box,
gtol or t_max).  A minimum's runs on settings whose h is the cap H_STABLE
/ L, a saddle's on settings whose h is h0, the step whose error on the
saddle's linearization is the controller's steady state
(``_sphere_exit_detail``); a flow reach's forward flow from x0 on
settings whose h is that exit's h_forward, with the gradient the exit
took at x0 as its first state's field.  So no flow reach reads h; the
comments at REVERSE_RTOL and at h_forward say why.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .landscape import require_positive_finite, row_norms, sumsq
# not called here: the benchmark's tracer wraps flow.min_norm_element by name
from .landscape import min_norm_element  # noqa: F401
from .trajectory import _to_level, march, recorded, start

DIRECTIONS = ("forward", "reverse")
# a DOP853 step passes when its error estimate err = |e5|^2 / sqrt(|e5|^2 +
# 0.01 |e3|^2) (Hairer's combination of the 5th- and 3rd-order estimates) has
# err <= ATOL + RTOL max(|x|, |x_new|); no step exceeds H_STABLE / L, inside
# DOP853's real stability interval [-6.39, 0], so no mode of -grad f (whose
# Jacobian's eigenvalues lie in [-L, L]) chatters at the stability boundary,
# held there at the tolerance
RTOL, ATOL, H_STABLE = 1e-10, 1e-13, 6.0
# the resolution at which a reach tells an f-value from a level: its ascent
# seed lies more than SEED_FLOOR_RTOL (1 + |level|) above the target's value,
# and a level crossing on the dense output lies at most that far below it
SEED_FLOOR_RTOL = 1e-12
# a minimum reach's reverse flow, from the ascent seed to the sphere, runs at
# REVERSE_RTOL, as a tolerance is the accuracy its caller needs (Hairer,
# Norsett & Wanner, II.4): the reach's result rests on the forward run from
# x0 alone (the B_r proof, or the run observed to gtol and tol), and x0 is
# located on the sphere by the dense output whatever the tolerance, so how
# accurately the flow found it does not enter that result.  A saddle's
# forward Clarke flow must retrace its reverse flow to the level near the
# saddle, so a saddle reach, like every other run, keeps RTOL.  Nor does h
# enter: a first trial step is only the controller's opening guess (Hairer,
# Norsett & Wanner, II.4), and a step past the leg's tolerance is still
# rejected, so every sphere exit runs on settings whose h it picks itself:
# the cap H_STABLE / L, or a saddle's h0.  1e-4 is the knee: on the benchmark's
# flow_minima, opening at the cap, gradient points per reach are 148, 121,
# 109 and 102 at 1e-7, 1e-5, 1e-4 and 1e-3
REVERSE_RTOL = 1e-4
# the I step controller of Hairer's dop853.f (Hairer, Norsett & Wanner, II.4):
# h_new = h PI_SAFE err^-PI_ALPHA with h_new / h in [PI_MIN, PI_MAX] and
# PI_ALPHA = 1/q at the order q = 8.  It replaced a PI controller, h PI_SAFE
# err^-(1/8 - 0.75 beta) err_old^beta with beta = 0.04 and safety 0.9, whose
# slow response kept accepted steps well under the error target outside
# steady state.  Where h_new = h, err = PI_SAFE^8 of the tolerance, so
# PI_SAFE = 0.9^(0.125/0.055), about 0.787, keeps the PI controller's steady
# state 0.9^(1/0.055), about 0.147, and with it the accuracy of every flow
PI_ALPHA, PI_SAFE, PI_MIN, PI_MAX = 1.0 / 8.0, 0.9 ** (0.125 / 0.055), 0.333, 6.0
# DOP853, the explicit Runge-Kutta pair of order 8(5,3) with dense output of
# order 7 (Prince & Dormand 1981, J. Comput. Appl. Math. 7:67-75; Hairer,
# Norsett & Wanner, Solving ODEs I, II.10): the coefficients of Hairer's
# dop853.f, as listed in scipy's BSD-licensed dop853_coefficients.py, rounded
# to the nearest double.  The rows of _A give stages 2-12 and then the
# 8th-order point, whose gradient is stage 13 (first same as last: the next
# step's k1), taken only once the step is accepted; _X gives the dense
# output's stages 14-16 from stages 1-15
_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259))
_X = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987))
# _E5 weighs stages 1-12 into the 5th-order error estimate; the 3rd-order
# one weighs them by the 8th-order weights less _BHH on stages 1, 9 and 12
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294)
_BHH = {0: 0.2440944881889764, 8: 0.7338466882816118, 11: 0.022058823529411766}
_E3 = tuple(b - _BHH.get(i, 0.0) for i, b in enumerate(_A[-1]))


def _error_constant():
    """K of err ~ K z^8, the leading term of a step's error estimate on y'
    = y from y = 1 at step z: there stage i is a polynomial k_i(z) of
    degree i - 1, e5 = z sum_i _E5_i k_i ~ c5 z^6 and e3 ~ c3 z^4, so err =
    |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2) ~ 10 c5^2 / |c3| z^8, about
    4.3e-7.  Each k_i is its coefficients in z, lowest first."""
    one = np.eye(13)[0]
    ks = [one]
    for row in _A[:-1]:
        ks.append(one + np.roll(np.dot(row, ks), 1))  # 1 + z sum_j a_ij k_j
    c5, c3 = np.roll(np.dot(_E5, ks), 1)[6], np.roll(np.dot(_E3, ks), 1)[4]
    return float(10.0 * c5 * c5 / abs(c3))


ERR_K = _error_constant()
# the dense output is x + sh sum_i w_i(theta) k_i over the 16 stages, w_i =
# theta (p0 + (1 - theta) (p1 + theta (p2 + (1 - theta) (p3 + theta (p4 + (1 -
# theta) (p5 + theta p6)))))) with p0 = b_i, p1 = [i = 1] - b_i, p2 = 2 b_i -
# [i = 1] - [i = 13] and p3-p6 the four rows of _D (Hairer's contd8)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564))
_P = tuple((b, (i == 0) - b, 2.0 * b - (i == 0) - (i == 12), *d)
           for i, (b, *d) in enumerate(zip(_A[-1] + (0.0,) * 4, *_D)))
# each sum as lane.comb takes it: the nonzero (stage index, weight) pairs of
# the rows of _A (stages 2-12, then the 8th-order point), _X, _E5 and _E3, and
# the nonzero rows of _P with their stage indices
_terms = lambda row: tuple((i, w) for i, w in enumerate(row) if w)
*_STAGES, _POINT = map(_terms, _A)
_DENSE_STAGES, _E5_TERMS, _E3_TERMS = tuple(map(_terms, _X)), _terms(_E5), _terms(_E3)
_P_ROWS = tuple((i, p) for i, p in enumerate(_P) if any(p))


@dataclass(frozen=True)
class FlowSettings:
    """h is the adaptive flow's first trial step, capped at H_STABLE/L,
    the only opening a run has.  No flow reach reads it: its legs run on
    copies whose h is the reverse leg's own opening (the cap, or a
    saddle's h0) and its h_forward (``_sphere_exit_detail``); only the
    continuous stability probe and direct runs read it.
    Every run, forward or reverse, ends by ``march``'s stops: its event,
    the box, |grad f| < gtol or time t_max.  A reverse run is the gradient
    flow of -f, so for a definable f one that stays in the box converges
    to a critical point (Kurdyka 1998; Bolte et al. 2014), a maximum say,
    where gtol ends it.  Each crossing is located to its own tolerance on
    the function it locates.  h and gtol must be positive and finite,
    t_max positive."""

    h: float
    t_max: float
    gtol: float = 1e-8

    def __post_init__(self):
        require_positive_finite(h=self.h, gtol=self.gtol)
        if not self.t_max > 0.0:  # an infinite time budget is allowed
            raise ValueError(f"t_max must be positive, got {self.t_max}")


def _dop853_step(lane, x, sh, g1):
    """One DOP853 step of signed length sh along dx/dt = grad(x), from g1 =
    grad(x), on points of the lane: (x_new, ks, e5, e3) with x_new the
    8th-order point, ks the 12 stage gradients the error estimates weigh
    and e5, e3 the embedded 5th- and 3rd-order error estimates.  Stage 13,
    grad(x_new), is left to the caller, which takes it only for a step it
    accepts.  sh = -h flows down f, sh = h up it.  Each of the 11 stage
    sums, the point and the two estimates is one ``lane.comb`` call."""
    comb, ks = lane.comb, [g1]
    for terms in _STAGES:
        ks.append(lane.grad(comb(x, sh, terms, ks)))
    zero = lane.sub(x, x)
    return (comb(x, sh, _POINT, ks), ks, comb(zero, sh, _E5_TERMS, ks),
            comb(zero, sh, _E3_TERMS, ks))


class _Flow:
    """The adaptive DOP853 runner on dx/dt = -grad f (forward) or +grad f
    (reverse) at the relative tolerance rtol: each ``march`` starts from
    the step size ``opening``, min(settings.h, h_max), h_max = H_STABLE /
    L the cap on every step, and ``provenance`` names the direction,
    settings and rtol, so a runner built from them repeats the run; ``h``
    is the step the controller proposed after the last accepted step;
    ``known`` is a sphere exit's located crossing and grad f there, which
    ``field`` reads in place of a fresh gradient (a march's g0, its
    start's gradient, goes to :func:`march`); ``step`` retries a rejected
    step with a smaller one and keeps its own step size, clamping the step
    that would pass t_max onto it, and takes stage 13 only once the step
    is accepted; ``field`` hands that stage back; ``cross`` locates an
    event on the last step's dense output ``at``, ``locate`` a level
    crossing."""

    def __init__(self, f, direction, settings, rtol=RTOL):
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        self.f, self.lane, self.settings, self.rtol = f, f._lane, settings, rtol
        self.sign = -1.0 if direction == "forward" else 1.0
        self.gtol = settings.gtol
        self.provenance = {"producer": "flow", "f": f, "direction": direction,
                           "settings": settings, "rtol": rtol}
        L = f.lipschitz_L
        self.h_max = H_STABLE / L if L > 0.0 else math.inf
        self.opening = min(settings.h, self.h_max)
        self.h, self.x_new, self.norm_new = self.opening, None, None

    def march(self, x0, event=None, value=None, g0=None):
        x = start(self.f, x0)
        self.h, self.x_new = self.opening, None  # no state from an earlier run
        self.known = (None, None)
        return march(self.f, x, self.field, self.step, None, self.gtol,
                     event=event, value=value, t_end=self.settings.t_max, g0=g0)

    def field(self, x):
        if x is self.x_new:
            return self.ks[12]
        p, g = self.known
        return g if x is p else self.lane.grad(x)

    def step(self, k, t, x, g):
        t_max, h, rejected, rtol = self.settings.t_max, self.h, False, self.rtol
        norm = self.lane.norm
        norm_x = self.norm_new if x is self.x_new else norm(x)
        while True:
            dt = min(h, t_max - t)
            x_new, ks, e5, e3 = _dop853_step(self.lane, x, self.sign * dt, g)
            e5sq, norm_new = sumsq(e5), norm(x_new)
            err = ((e5sq / math.sqrt(e5sq + 0.01 * sumsq(e3)) if e5sq else 0.0)
                   / (ATOL + rtol * max(norm_x, norm_new)))
            if err <= 1.0:
                break
            h, rejected = dt / min(1.0 / PI_MIN, err ** PI_ALPHA / PI_SAFE), True
            if not t + h > t:
                raise ArithmeticError(f"DOP853 step size underflow at t = {t}")
        h = dt / max(1.0 / PI_MAX, min(1.0 / PI_MIN, err ** PI_ALPHA / PI_SAFE))
        self.h = min(h, dt) if rejected else min(h, self.h_max)
        ks.append(self.lane.grad(x_new))
        self.t, self.x, self.dt, self.x_new, self.ks = t, x, dt, x_new, ks
        self.norm_new = norm_new
        return (t_max if dt == t_max - t else t + dt), x_new

    def at(self, theta):
        """The dense output of the last step at theta in [0, 1] of it: x at
        0 and x_new at 1, bit for bit, as one ``lane.comb`` over the stages
        whose weight at theta is nonzero.  The first call on a step takes
        its stages 14-16, one ``lane.comb`` each."""
        sh, comb, ks = self.sign * self.dt, self.lane.comb, self.ks
        if len(ks) == 13:
            for terms in _DENSE_STAGES:
                ks.append(self.lane.grad(comb(self.x, sh, terms, ks)))
        t, u = theta, 1.0 - theta
        terms = [(i, w) for i, (p0, p1, p2, p3, p4, p5, p6) in _P_ROWS if (
            w := t * (p0 + u * (p1 + t * (p2 + u * (p3 + t * (p4 + u * (p5 + t * p6)))))))]
        return comb(self.x, sh, terms, ks)

    def cross(self, phi, p_lo, p_hi, tol):
        """(t, point) where phi meets 0 on the last step's dense output,
        given phi = p_lo < 0 at the step's start and p_hi >= 0 at its end:
        Illinois regula falsi (Dowell & Jarratt 1971) keeps phi >= 0 at the
        upper end, until phi there is at most tol."""
        lo, hi, y_hi, w_lo, w_hi, side = 0.0, 1.0, self.x_new, p_lo, p_hi, 0
        for _ in range(200):
            if p_hi <= tol:
                return self.t + hi * self.dt, y_hi
            theta = hi - w_hi * (hi - lo) / (w_hi - w_lo)
            theta = theta if lo < theta < hi else 0.5 * (lo + hi)
            y = self.at(theta)
            p = phi(y)
            if p >= 0.0:  # halve the weight of an end kept twice (Illinois)
                hi, y_hi, p_hi, w_hi = theta, y, p, p
                w_lo, side = w_lo * 0.5 if side == 1 else w_lo, 1
            else:
                lo, w_lo = theta, p
                w_hi, side = w_hi * 0.5 if side == -1 else w_hi, -1
        raise ArithmeticError("crossing location did not converge")

    def locate(self, level, prev, x, fx):
        value, tol = self.f.value, SEED_FLOOR_RTOL * (1.0 + abs(level))
        return self.cross(lambda y: level - value(y), level - prev[3], level - fx, tol)[1]


def integrate(f, x0, direction, settings, event=None, *, g0=None):
    """Adaptive DOP853 on dx/dt = -grad f (forward) or +grad f (reverse),
    from the first trial step min(h, H_STABLE/L), the cap on every step,
    to the stops of ``FlowSettings``.  ``event`` is a :func:`march` stop
    event, asked at each state the steps reach before those tests (its fx
    is None).  ``g0``, grad f(x0) as f's lane takes it, when the caller
    has it, is the first state's field in place of a fresh gradient.  A
    minimum reach ends its forward flow with its certified ball's event,
    runs it on settings whose h is its reverse flow's h_forward and passes
    as g0 the gradient that flow took at x0, as a saddle reach does for
    ``integrate_minnorm``."""
    flow = _Flow(f, direction, settings)
    return recorded(f, *flow.march(x0, event=event, g0=g0), flow.provenance)


def integrate_minnorm(f, x0, level, settings, *, g0=None):
    """The minimum-norm Clarke flow of g = max{f, level}: forward DOP853
    flow on f until f(x) <= level, its limit the crossing located where f
    meets the level on the last step's dense output, with level -
    SEED_FLOOR_RTOL (1 + |level|) <= f <= level there.  Above the level the
    only active piece of g is f, so the minimum-norm element of g's Clarke
    subdifferential is grad f; on {f <= level} the constant piece is
    active, 0 is in the subdifferential and the flow stalls there.  A
    start at or below the level is its own limit; a run that ends above
    the level (at gtol, t_max or the box) has none.  ``g0`` is
    :func:`integrate`'s: a saddle reach passes the gradient its reverse
    flow took at x0, and settings whose h is that flow's h_forward."""
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level!r}")
    return _to_level(f, level, _Flow(f, "forward", settings), x0, g0)[0]


def _sphere_exit_detail(f, x0, direction, center, delta, settings, minimum=False,
                        spectral_radius=None):
    """(t_end, b, trajectory): the flow from x0, inside the delta-sphere
    around center, to its first crossing b of that sphere, located on the
    dense output with | |b - center| - delta | <= 1e-8 delta, however the
    run ends: b is None when it stopped first, and the recorded
    trajectory's terminal_status says why (left_box, converged at gtol,
    budget_exhausted at t_max), with no stopped_on in its provenance.  For
    a definable f a reverse flow that stays in the box converges to a
    critical point (``FlowSettings``), so such a stop is an outcome, not a
    breakdown: a reach skips that seed.  It reads no h: it runs on
    settings whose h is its opening, and its provenance names them and its
    rtol, from which a runner repeats it.  The opening is the cap H_STABLE
    / L (as given when L = 0), or, given ``spectral_radius`` Lambda = max
    |eig hess f(center)| > 0 (a saddle reach's exit, center a critical
    point), h0 = min(cap, PI_SAFE ((ATOL + rtol |x0|) / (ERR_K r))^(1/8) /
    Lambda), r = |x0 - center|.  Near center the flow is close to its
    linearization, on which a step of z = h Lambda has err about ERR_K z^8
    r / (ATOL + rtol |x0|) along its fastest mode, so h0 is the step whose
    err is the controller's steady state PI_SAFE^8: the first attempt
    passes wherever the linearization holds, which one at the cap often
    did not.
    A crossing's stop keeps h_forward, the forward leg's opening from b,
    and g_exit, grad f(b) on f's lane, which the run takes once, for its
    last state: every flow reach runs its forward leg on settings whose h
    is h_forward, from the field g_exit.  ``minimum``
    picks the tolerance and the location: a minimum reach's exit flows at
    REVERSE_RTOL, not RTOL, and takes b on the inner side: the crossing of
    the sphere of radius delta (1 - 5e-9), located to 4e-9 delta, so delta
    (1 - 5e-9) <= |b - center| <= delta (1 - 1e-9)."""
    lane, L = f._lane, f.lipschitz_L
    rtol, radius, tol = ((REVERSE_RTOL, delta * (1.0 - 5e-9), 4e-9 * delta) if minimum
                         else (RTOL, delta, 1e-8 * delta))
    x0, center = start(f, x0), lane.point(center)
    r = lane.norm(lane.sub(x0, center))
    if not r - radius < 0.0:
        raise ValueError("a sphere exit requires |x0 - center| < delta")
    h = H_STABLE / L if L > 0.0 else settings.h
    if spectral_radius and r > 0.0:
        h = min(h, PI_SAFE * ((ATOL + rtol * lane.norm(x0)) / (ERR_K * r)) ** 0.125
                / spectral_radius)
    flow = _Flow(f, direction, replace(settings, h=h), rtol)
    past = lambda y: lane.norm(lane.sub(y, center)) - radius  # signed distance past the sphere

    def crossed(prev, t, x, fx):
        r = past(x)
        if not r >= 0.0:
            return None
        t_b, b = flow.cross(past, past(prev[1]), r, tol)
        flow.known = b, lane.grad(b)  # the field of the run's last state, b
        # the forward leg from b opens where this leg's controller left off:
        # the step it proposed after the step that crossed is the step it
        # measured at b for its tolerance rtol.  An order-q pair's error
        # scales as h^q, so the step for a tolerance scales as tol^(1/q)
        # (Hairer, Norsett & Wanner, II.4): at RTOL, with q = 8 the order
        # PI_ALPHA = 1/q is taken at, it is that step times (RTOL / rtol)^(1/8),
        # 10^-0.75, about 0.178, for a minimum and exactly 1 for a saddle, so
        # at most the cap, as that step is
        stop = {"stopped_on": "sphere_exit", "g_exit": flow.known[1],
                "h_forward": flow.h * (RTOL / rtol) ** (1.0 / 8.0)}
        return "converged", np.array(b), t_b, b, stop

    steps, status, limit, stop = flow.march(x0, event=crossed)
    b = None if stop is None else limit.copy()
    return steps[-1][0], b, recorded(f, steps, status, limit, stop, flow.provenance)


def path_length(traj):
    """Polygonal length over recorded states; a lower bound of the true
    length, converging as the steps shrink."""
    if len(traj) < 2:
        raise ValueError("path_length needs at least 2 states")
    return float(sum(row_norms(np.diff(traj.X, axis=0)).tolist()))

