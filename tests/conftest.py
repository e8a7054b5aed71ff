import dataclasses

import numpy as np
import pytest

import basinreach as br


@pytest.fixture(scope="session")
def quad1():
    return br.make_builtin("quad", (1.0,))


@pytest.fixture(scope="session")
def quad14():
    return br.make_builtin("quad", (1.0, 4.0))


@pytest.fixture(scope="session")
def dw():
    return br.make_builtin("double_well")


@pytest.fixture(scope="session")
def himmelblau():
    return br.make_builtin("himmelblau")


def make_saddle_quad(box_half=5.0):
    """f(x, y) = x^2 - y^2 with its saddle at the origin; L = 2."""
    return br.ObjectiveFunction(
        dim=2,
        f=lambda p: float(p[0] ** 2 - p[1] ** 2),
        grad=lambda p: np.array([2.0 * p[0], -2.0 * p[1]]),
        hessian=lambda p: np.array([[2.0, 0.0], [0.0, -2.0]]),
        lipschitz_L=2.0,
        box=np.array([[-box_half, box_half], [-box_half, box_half]]),
        critical_points=(br.CriticalPoint(np.zeros(2), "saddle", 0.0),),
        name="saddle_quad",
    )


@pytest.fixture(scope="session")
def saddle_quad():
    return make_saddle_quad()


def make_linear_1d(box_half=3.0):
    """f(x) = x: constant gradient, L = 0."""
    return br.ObjectiveFunction(
        dim=1,
        f=lambda x: float(x[0]),
        grad=lambda x: np.array([1.0]),
        lipschitz_L=0.0,
        box=np.array([[-box_half, box_half]]),
        name="linear",
    )


def same_states(a, b):
    return len(a) == len(b) and all(
        p.k == q.k and p.t == q.t and p.x.tobytes() == q.x.tobytes()
        and p.f_value == q.f_value and p.grad_norm == q.grad_norm
        for p, q in zip(a, b))


def two_wells():
    """f(x, y) = (x^2 - 1)^2 + y^2 with row-by-row callables: starts with
    x < 0 descend to (-1, 0)."""
    return br.ObjectiveFunction(
        dim=2, f=lambda p: float((p[0] * p[0] - 1.0) ** 2 + p[1] * p[1]),
        grad=lambda p: np.array([4.0 * p[0] * (p[0] * p[0] - 1.0), 2.0 * p[1]]),
        lipschitz_L=71.0, box=np.array([[-2.5, 2.5], [-2.5, 2.5]]),
        critical_points=(br.CriticalPoint(np.array([1.0, 0.0]), "local_min", 0.0),),
        name="two_wells")


def rk4_step(field, x, h):
    """One classical RK4 step on the signed field (sign * grad f) with
    ndarray points: the reference for flow._rk4_step, which steps along
    grad f by the signed length sign * h on either lane."""
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def counting(f):
    """(copy of f whose f and grad count the points they evaluate, counts):
    a call on a (B, dim) batch counts B points."""
    counts = {"value": 0, "grad": 0}

    def wrap(fn, key):
        def call(x):
            counts[key] += x.shape[0] if x.ndim == 2 else 1
            return fn(x)
        return call
    return dataclasses.replace(f, f=wrap(f.f, "value"), grad=wrap(f.grad, "grad")), counts
