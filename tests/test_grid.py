import numpy as np
import pytest

from weakkam import (Grid, GridFunction, build_kernel, constant_observable,
                     path_distance)


def oracle_gather(grid, arr, offset):
    """Independent reference for the roof-twisted gather, by explicit loops."""
    n1, n2, ns = grid.shape
    di, dj, dk = (int(v) for v in offset)
    if grid.twist is None:
        A = np.eye(2, dtype=np.int64)
        Ainv = np.eye(2, dtype=np.int64)
    else:
        A = np.asarray(grid.twist, dtype=np.int64)
        det = int(round(np.linalg.det(A)))
        Ainv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]],
                        dtype=np.int64) * det
    out = np.empty_like(arr)
    for i in range(n1):
        for j in range(n2):
            for k in range(ns):
                ks = k - dk
                m = ks // ns
                kp = ks - m * ns
                M = np.eye(2, dtype=np.int64)
                for _ in range(abs(m)):
                    M = (A if m > 0 else Ainv) @ M
                bi, bj = i - di, j - dj
                ip = (M[0, 0] * bi + M[0, 1] * bj) % n1
                jp = (M[1, 0] * bi + M[1, 1] * bj) % n2
                out[i, j, k] = arr[ip, jp, kp]
    return out


def test_grid_validation(model):
    with pytest.raises(ValueError):
        Grid((4, 4), (1.0, 1.0))
    with pytest.raises(ValueError):
        Grid((4, 6, 5), twist=model.base_matrix)  # unequal base resolutions
    with pytest.raises(ValueError):
        Grid((4, 4, 5), twist=np.array([[2, 0], [0, 2]]))  # det 4


def test_gather_shift_matches_oracle(model):
    grid = Grid((4, 4, 5), (1.0, 1.0, model.roof), model.base_matrix)
    rng = np.random.default_rng(0)
    arr = rng.random(grid.shape)
    for off in [(0, 0, 0), (1, 0, 0), (0, -1, 2), (2, 1, -3), (0, 0, 5),
                (1, -2, 7), (-1, 3, -6), (0, 0, 12)]:
        got = grid.gather_shift(arr, off)
        assert np.array_equal(got, oracle_gather(grid, arr, off)), off


def test_gather_shift_untwisted_is_roll():
    grid = Grid((4, 5, 6))
    arr = np.random.default_rng(1).random(grid.shape)
    got = grid.gather_shift(arr, (1, 2, 3))
    assert np.array_equal(got, np.roll(arr, (1, 2, 3), axis=(0, 1, 2)))


def test_gather_shift_composes(model):
    grid = Grid((4, 4, 5), (1.0, 1.0, model.roof), model.base_matrix)
    arr = np.random.default_rng(2).random(grid.shape)
    one = grid.gather_shift(grid.gather_shift(arr, (0, 0, 2)), (0, 0, 3))
    two = grid.gather_shift(arr, (0, 0, 5))
    assert np.array_equal(one, two)


def _stencil_offsets(model, grid, reach_multiplier):
    phi = constant_observable(0.0)
    kern = build_kernel(grid, model, phi, 1.0, 0.0, grid.spacings[2],
                        reach_multiplier)
    tots = kern._total_offsets()
    return np.concatenate([tots, -tots])  # forward and reverse sweeps


@pytest.mark.parametrize("reach_multiplier", [2.0, 3.0])
def test_halo_windows_match_oracle_on_kernel_stencils(model, medium_grid,
                                                      reach_multiplier):
    offs = _stencil_offsets(model, medium_grid, reach_multiplier)
    arr = np.random.default_rng(9).random(medium_grid.shape)
    halo = medium_grid.halo(offs)
    padded = halo.pad(arr)
    # The twist acts on the lattice linearly, so the base shift commutes with
    # it: each offset's oracle is the pure s-shift oracle rolled on the base.
    by_dk = {dk: oracle_gather(medium_grid, arr, (0, 0, dk))
             for dk in np.unique(offs[:, 2])}
    for di, dj, dk in offs:
        want = np.roll(by_dk[dk], (di, dj), axis=(0, 1))
        assert np.array_equal(padded[halo.window((di, dj, dk))], want)
    rng = np.random.default_rng(10)
    for off in offs[rng.choice(len(offs), 12, replace=False)]:
        assert np.array_equal(padded[halo.window(off)],
                              oracle_gather(medium_grid, arr, off)), off


@pytest.mark.parametrize("twisted", [True, False])
def test_halo_windows_across_several_roof_wraps(model, twisted):
    ns = 4
    grid = Grid((5, 5, ns), (1.0, 1.0, model.roof),
                model.base_matrix if twisted else None)
    offs = [(0, 0, 0), (1, -2, 2 * ns + 1), (-2, 0, -2 * ns), (0, 1, -3 * ns - 2),
            (2, 2, 3 * ns)]
    arr = np.random.default_rng(11).random(grid.shape)
    halo = grid.halo(offs)
    padded = halo.pad(arr)
    for off in offs:
        want = oracle_gather(grid, arr, off)
        assert np.array_equal(padded[halo.window(off)], want), off
        assert np.array_equal(grid.gather_shift(arr, off), want), off
    with pytest.raises(ValueError):
        halo.window((3, 0, 0))


def test_nearest_index_roof_wrap(model, small_grid):
    # A point just past the roof snaps to the twisted base node.
    i, j, k = small_grid.nearest_index(np.array([0.25, 0.5, model.roof]))
    A = model.base_matrix
    bi = int(round(0.25 / small_grid.spacings[0]))
    bj = int(round(0.5 / small_grid.spacings[1]))
    assert (int(i), int(j), int(k)) == (
        (A[0, 0] * bi + A[0, 1] * bj) % small_grid.shape[0],
        (A[1, 0] * bi + A[1, 1] * bj) % small_grid.shape[1], 0)


def test_interpolation_reproduces_nodes(small_grid):
    rng = np.random.default_rng(3)
    u = GridFunction(small_grid, rng.random(small_grid.shape))
    nodes = small_grid.node_points()
    assert np.abs(u(nodes) - u.values).max() < 1e-12


def test_interpolation_respects_roof_gluing(model, small_grid):
    rng = np.random.default_rng(4)
    u = GridFunction(small_grid, rng.random(small_grid.shape))
    b = rng.random((20, 2))
    A = model.base_matrix.astype(float)
    at_roof = np.concatenate([b, np.full((20, 1), model.roof)], axis=1)
    at_zero = np.concatenate([np.mod(b @ A.T, 1.0), np.zeros((20, 1))], axis=1)
    assert np.abs(u(at_roof) - u(at_zero)).max() < 1e-10


def test_offset_arithmetic_is_exact(small_grid):
    rng = np.random.default_rng(5)
    u = GridFunction(small_grid, rng.random(small_grid.shape))
    w = ((u + 0.1) + 0.2) - 0.3
    # adding constants never touches the value array
    assert w.values is u.values or np.array_equal(w.values, u.values)
    assert abs(w.offset - (0.1 + 0.2 - 0.3)) < 1e-18
    v = u.minimum(u + 0.0)
    assert np.array_equal(v.values, u.values)


def test_minimum_and_sup_diff(small_grid):
    rng = np.random.default_rng(6)
    a = GridFunction(small_grid, rng.random(small_grid.shape))
    b = GridFunction(small_grid, rng.random(small_grid.shape), offset=0.5)
    m = a.minimum(b)
    assert np.abs(m.dense() - np.minimum(a.dense(), b.dense())).max() == 0.0
    assert a.sup_diff(a) == 0.0
    assert abs(a.sup_diff(a + 1.0) - 1.0) < 1e-15


def test_discrete_lipschitz_linear_field(small_grid):
    u = GridFunction.from_callable(
        small_grid, lambda p: 0.25 * np.sin(2 * np.pi * p[..., 2]))
    lip = u.discrete_lipschitz()
    # true gradient sup is 0.5*pi ~ 1.571; discrete estimate is close below
    assert 1.0 < lip <= 0.5 * np.pi + 1e-9
    everywhere = np.ones(small_grid.shape, dtype=bool)
    assert u.discrete_lipschitz(everywhere) == lip
    # u varies only along s, so edges inside one s-layer all price 0
    one_layer = np.zeros(small_grid.shape, dtype=bool)
    one_layer[:, :, 3] = True
    assert u.discrete_lipschitz(one_layer) == 0.0


def test_path_distance_close_to_flat_metric():
    grid = Grid((16, 16, 16))
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.random(3)
        q = rng.random(3)
        d = p - q
        d -= np.round(d)
        flat = np.linalg.norm(d)
        pd = path_distance(p, q, grid, radius=2)
        assert pd >= flat - 2.0 * grid.diagonal - 1e-9
        assert pd <= 1.1 * flat + 2.0 * grid.diagonal


def test_grid_function_shape_guard(small_grid):
    with pytest.raises(ValueError):
        GridFunction(small_grid, np.zeros((2, 2, 2)))
