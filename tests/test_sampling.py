"""The direction generator is pinned: a fixed 64-bit LCG recurrence fed
through Box-Muller, so probe starts and seed scans are reproducible for a
given seed.  These constants freeze the documented recurrence."""

import math

import numpy as np
import pytest

from basinreach.sampling import Lcg64, directions, unit_directions


def test_lcg_recurrence_frozen():
    g = Lcg64(0)
    assert g.next_uint() == 3236661110929538048
    assert g.next_uint() == 12285948757477592399
    g = Lcg64(0)
    assert [g.uniform() for _ in range(3)] == [
        0.17545975040345752, 0.6660226166951394, 0.7022180730538407]


def test_gaussian_and_direction_frozen():
    assert Lcg64(7).gaussian() == -1.8551678583137372
    d = Lcg64(7).direction(2)
    assert d[0] == -0.9363218849578655 and d[1] == 0.3511428879373037


def test_directions_are_unit():
    g = Lcg64(3)
    for dim in (1, 2, 3):
        for _ in range(50):
            assert abs(np.linalg.norm(g.direction(dim)) - 1.0) <= 1e-12


def test_unit_directions_layout():
    dirs = unit_directions(2, 4, seed=5)
    assert dirs.shape == (2 * 2 + 4, 2)
    assert np.array_equal(dirs[:4], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert np.all(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= 1e-12)
    last = np.array(list(directions(2, 4, 5, axis_first=False)))
    assert np.array_equal(last, np.concatenate([dirs[4:], dirs[:4]]))
    assert np.array_equal(unit_directions(2, 4, seed=5), dirs)
    assert not np.array_equal(unit_directions(2, 4, seed=6), dirs)


@pytest.mark.parametrize("axis_first", [True, False])
def test_unit_directions_1d_is_the_axis_pair(axis_first):
    # the unit sphere of R^1 has two points, so no start is repeated
    rows = unit_directions(1, 8, seed=0) if axis_first else list(directions(1, 8, 0, False))
    assert np.array(rows).tolist() == [[1.0], [-1.0]]


def stacked_directions(dim, n_random, seed, axis_first):
    """The direction layout built as one array: the axis pairs of +-eye,
    then (or after) n_random draws of Lcg64(seed).direction."""
    eye = np.eye(dim)
    axis = np.stack([eye, -eye], axis=1).reshape(2 * dim, dim)
    if dim == 1:
        return axis
    rng = Lcg64(seed)
    rand = np.array([rng.direction(dim) for _ in range(n_random)]).reshape(n_random, dim)
    return np.concatenate([axis, rand] if axis_first else [rand, axis])


@pytest.mark.parametrize("axis_first", [True, False])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_direction_generator_rows_are_the_stacked_array(dim, axis_first):
    # bit for bit, signed zeros of the -e_i rows included
    for seed in (0, 5, 7, 91, -3):
        for n_random in (0, 1, 8):
            ref = stacked_directions(dim, n_random, seed, axis_first)
            rows = list(directions(dim, n_random, seed, axis_first))
            assert len(rows) == len(ref)
            for row, want in zip(rows, ref):
                assert row.shape == (dim,) and row.tobytes() == want.tobytes()
            if axis_first:
                got = unit_directions(dim, n_random, seed)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
