import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from weakkam import (Grid, GridFunction, SuspensionFlow, build_kernel,
                     constant_observable)
from weakkam import grid as grid_mod
from weakkam.grid import _primitive_offsets, line_sum


def oracle_gather(grid, arr, offset):
    """Independent reference for the roof-twisted gather, by explicit loops."""
    n1, n2, ns = grid.shape
    di, dj, dk = (int(v) for v in offset)
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


# The identity twist: the roof gluing (b, roof) ~ (b, 0) of a plain
# periodic box.
IDENTITY = np.eye(2, dtype=np.int64)


def test_grid_validation(model):
    with pytest.raises(ValueError):
        Grid((4, 4), (1.0, 1.0), model.base_matrix)
    with pytest.raises(ValueError):  # unequal base resolutions
        Grid((4, 6, 5), (1.0, 1.0, 1.0), model.base_matrix)
    with pytest.raises(ValueError):  # det 4
        Grid((4, 4, 5), (1.0, 1.0, 1.0), np.array([[2, 0], [0, 2]]))
    with pytest.raises(TypeError):  # lengths and twist are required
        Grid((4, 4, 5))


def test_grids_are_equal_by_value():
    # two models, two twist arrays: equal grids all the same
    a = Grid((8, 8, 10), (1, 1, 1), SuspensionFlow().base_matrix)
    b = Grid((8, 8, 10), (1, 1, 1), SuspensionFlow().base_matrix)
    assert a.twist is not b.twist
    assert a == b and not a != b
    for other in (Grid((6, 6, 10), (1, 1, 1), a.twist),
                  Grid((8, 8, 12), (1, 1, 1), a.twist),
                  Grid((8, 8, 10), (1, 1, 1.3), a.twist),
                  Grid((8, 8, 10), (1, 1, 1), IDENTITY),
                  Grid((8, 8, 10), (1, 1, 1), [[3, 2], [1, 1]])):
        assert a != other and not a == other
    assert a != (8, 8, 10)


def test_gather_shift_matches_oracle(model):
    grid = Grid((4, 4, 5), (1.0, 1.0, model.roof), model.base_matrix)
    rng = np.random.default_rng(0)
    arr = rng.random(grid.shape)
    for off in [(0, 0, 0), (1, 0, 0), (0, -1, 2), (2, 1, -3), (0, 0, 5),
                (1, -2, 7), (-1, 3, -6), (0, 0, 12)]:
        got = grid.gather_shift(arr, off)
        assert np.array_equal(got, oracle_gather(grid, arr, off)), off


def test_gather_shift_untwisted_is_roll():
    grid = Grid((5, 5, 6), (1.0, 1.0, 1.0), IDENTITY)
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


def _check_reads_and_readers(grid, offs):
    """``Halo.read`` is each window's entry, and ``Grid.readers`` inverts it,
    for every node and every offset."""
    offs = np.asarray(offs, dtype=np.int64)
    halo = grid.halo(offs)
    nodes = np.arange(grid.n_nodes)
    ids = halo.pad(nodes.reshape(grid.shape))
    reads = halo.read(nodes[:, None], offs[None])
    for d, off in enumerate(offs):
        assert reads[:, d].tobytes() == ids[halo.window(off)].ravel().tobytes()
    readers = grid.readers(nodes[:, None], offs[None])
    assert readers.shape == reads.shape
    # each offset's read map is a bijection, and readers is its inverse
    for d, off in enumerate(offs):
        assert np.array_equal(np.sort(readers[:, d]), nodes), off
        back = halo.read(readers[:, d], off)
        assert back.tobytes() == nodes.tobytes(), off


@pytest.mark.parametrize("twisted", [True, False])
def test_halo_windows_across_several_roof_wraps(model, twisted):
    ns = 4
    grid = Grid((5, 5, ns), (1.0, 1.0, model.roof),
                model.base_matrix if twisted else IDENTITY)
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
    _check_reads_and_readers(grid, offs)


@pytest.mark.parametrize("reach_multiplier", [2.0, 3.0])
def test_readers_invert_halo_reads_on_kernel_stencils(model, small_grid,
                                                      reach_multiplier):
    _check_reads_and_readers(
        small_grid, _stencil_offsets(model, small_grid, reach_multiplier))


def test_nearest_index_roof_wrap(model, small_grid):
    # A point just past the roof snaps to the twisted base node.
    i, j, k = small_grid.nearest_index(np.array([0.25, 0.5, model.roof]))
    A = model.base_matrix
    bi = int(round(0.25 / small_grid.spacings[0]))
    bj = int(round(0.5 / small_grid.spacings[1]))
    assert (int(i), int(j), int(k)) == (
        (A[0, 0] * bi + A[0, 1] * bj) % small_grid.shape[0],
        (A[1, 0] * bi + A[1, 1] * bj) % small_grid.shape[1], 0)


@pytest.mark.parametrize("twist", [[[2, 1], [1, 1]], [[3, 2], [1, 1]],
                                   [[1, 0], [0, 1]]],
                         ids=["A211", "A3211", "untwisted"])
def test_nearest_index_matches_per_point_formula(twist):
    # Each point rounds to (i, j, k) and then wraps m = floor(k / ns) roofs:
    # the node is (A^m (i, j) mod n, k - m ns), with m from -3 to 3.
    grid = Grid((8, 8, 5), (1.0, 1.0, 1.3), twist)
    n1, n2, ns = grid.shape
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, (600, 3))
    pts[:, 2] = rng.uniform(-3.0, 4.0, 600) * grid.lengths[2]
    got = grid.nearest_index(pts)
    A = np.array(twist)
    Ainv = np.round(np.linalg.inv(A)).astype(np.int64)
    wraps = set()
    for p, node in zip(pts, zip(*got)):
        i, j, k = (int(np.round(p[a] / grid.spacings[a])) for a in range(3))
        m = k // ns
        wraps.add(m)
        M = np.linalg.matrix_power(A if m > 0 else Ainv, abs(m))
        ij = M @ (i, j)
        assert tuple(int(v) for v in node) == (ij[0] % n1, ij[1] % n2,
                                               k - m * ns)
    assert {-3, -1, 1, 3} <= wraps
    assert all(x.dtype == np.int64 and x.shape == (600,) for x in got)


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
    assert np.abs(u(model.flow_map(at_roof, 0.0)) - u(at_zero)).max() < 1e-10


@pytest.mark.parametrize("s", [-1e-300, 1.0, 1e300, np.nan, np.inf],
                         ids=["below_zero", "roof", "huge", "nan", "inf"])
def test_interpolation_rejects_points_off_the_domain(model, small_grid, s):
    u = GridFunction(small_grid, np.zeros(small_grid.shape))
    pts = np.full((3, 3), 0.25)
    pts[1, 2] = s * model.roof
    with pytest.raises(ValueError, match="roof"):
        u(pts)
    pts[1] = (0.25, np.nan, 0.5)
    with pytest.raises(ValueError):
        u(pts)


def _three_index_cells(u, points):
    """The padded node array and, for points with s in [0, roof), each
    point's lower corner (i, j, k) in it and its fractions along the three
    axes; the base wraps."""
    grid = u.grid
    x = np.asarray(points, dtype=float).reshape(-1, 3).copy()
    assert ((0.0 <= x[:, 2]) & (x[:, 2] < grid.lengths[2])).all()
    x[:, 0] = np.mod(x[:, 0], grid.lengths[0])
    x[:, 1] = np.mod(x[:, 1], grid.lengths[1])
    pad = grid._halo(1, 0, grid.shape[2] + 1).pad(u.values)[1:, 1:]
    t = np.empty((x.shape[0], 3))
    idx = np.empty((x.shape[0], 3), dtype=np.int64)
    for ax in range(3):
        v = x[:, ax] / grid.spacings[ax]
        i0 = np.clip(np.floor(v).astype(np.int64), 0, grid.shape[ax] - 1)
        idx[:, ax] = i0
        t[:, ax] = v - i0
    return pad, idx.T, t.T


def _oracle_interpolate(u, points):
    """The three-index interpolation of points with s in [0, roof): index
    the padded array by (i + a, j + b, k + c).  On each layer c the plane
    sum of the four (a, b) corners in the order (0, 0), (0, 1), (1, 0),
    (1, 1), then the two plane sums along s; each sum starts at 0.0."""
    pad, (i, j, k), (ti, tj, tk) = _three_index_cells(u, points)
    plane = []
    for c in (0, 1):
        p = np.zeros(i.size)
        for (a, wa) in ((0, 1 - ti), (1, ti)):
            for (b, wb) in ((0, 1 - tj), (1, tj)):
                p += wa * wb * pad[i + a, j + b, k + c]
        plane.append(p)
    f = np.zeros(i.size)
    f += (1 - tk) * plane[0]
    f += tk * plane[1]
    return f.reshape(np.shape(points)[:-1])


def _eight_term_interpolate(u, points):
    """The interpolation in the order before the plane sums: the eight
    terms ((wa * wb) * wc) * U, corners (a, b, c) in lexicographic order,
    added to a 0.0 start."""
    pad, (i, j, k), (ti, tj, tk) = _three_index_cells(u, points)
    f = np.zeros(i.size)
    for (a, wa) in ((0, 1 - ti), (1, ti)):
        for (b, wb) in ((0, 1 - tj), (1, tj)):
            for (c, wc) in ((0, 1 - tk), (1, tk)):
                f += wa * wb * wc * pad[i + a, j + b, k + c]
    return f.reshape(np.shape(points)[:-1])


def _order_bound(u):
    """A bound on |interpolate - _eight_term_interpolate| at any point:
    (gamma_10 + gamma_7) (1 + e)^3 M, gamma_n = n e / (1 - n e),
    e = 2**-53, M = max|u|; about 17 e M.

    Both orders round the same one-axis weights w (1 - t, computed, or t),
    so both approximate E = sum_abc wa wb wc U_abc (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, lemma 3.1 and eq. 4.4).  The
    eight-term sum rounds each term three times (wa wb, times wc, times U)
    and adds eight terms to 0.0 (exact, then seven roundings): within
    gamma_10 sum |wa wb wc U| of E.  The plane sums round each term twice
    and add four to 0.0 (three roundings); the step along s multiplies
    each by wc and adds the two to 0.0 (two more): within gamma_7 of the
    same sum.  And sum |wa wb wc U| <= M (w0 + w1)^3 <= (1 + e)^3 M, as
    fl(1 - t) + t <= 1 + e.  No term is subnormal at these values."""
    e = 2.0 ** -53

    def gamma(n):
        return n * e / (1.0 - n * e)

    return (gamma(10) + gamma(7)) * (1.0 + e) ** 3 \
        * float(np.abs(u.values).max())


def _roof_wrap(model, grid, points):
    """Points moved into s in [0, roof) by ``flow_map(points, 0.0)``.  An
    untwisted grid glues (b, roof) ~ (b, 0), so its points keep their base
    and take only the wrapped s."""
    out = model.flow_map(points, 0.0)
    if np.array_equal(grid.twist, IDENTITY):
        out[..., :2] = points[..., :2]
    return out


@pytest.mark.parametrize("twisted", [True, False])
def test_interpolation_matches_three_index_oracle(model, twisted):
    grid = Grid((8, 8, 10), (1.0, 1.0, model.roof),
                model.base_matrix if twisted else IDENTITY)
    rng = np.random.default_rng(11)
    u = GridFunction(grid, rng.standard_normal(grid.shape))
    pts = rng.uniform(-2.0, 3.0, (4000, 3))
    # s below 0, at and beyond the roof, across several wraps, wrapped the
    # way flow_map leaves its points
    pts[:1000, 2] = rng.uniform(0.0, model.roof, 1000)
    pts[1000:1500, 2] = rng.uniform(-3.5, 0.0, 500) * model.roof
    pts[1500:2000, 2] = rng.uniform(1.0, 4.5, 500) * model.roof
    pts[2000:2010, 2] = model.roof * np.arange(-5, 5)
    pts[2010:2020, :2] = rng.random((10, 2))
    pts = _roof_wrap(model, grid, pts)
    got = u(pts.reshape(40, 100, 3))
    assert got.shape == (40, 100)
    assert np.array_equal(got.reshape(-1), _oracle_interpolate(u, pts))
    # a base outside [0, 1) wraps periodically
    raw = rng.uniform(-2.0, 3.0, (1000, 3))
    raw[:, 2] = pts[:1000, 2]
    assert np.array_equal(u(raw), _oracle_interpolate(u, raw))


def _flow_lines(model, base, s0, times):
    """Columns of section points (base, s0) flowed by each time, as a chart
    table holds them: (rows, columns, 3), the runs of rows between roof
    crossings (a drop in s) and each run's base points."""
    pts = np.concatenate([base, np.full((len(base), 1), s0)], axis=1)
    table = model.flow_map(pts[None], np.asarray(times)[:, None])
    s = table[:, 0, 2]
    run = np.concatenate([[0], np.cumsum(np.diff(s) < 0)])
    start = np.flatnonzero(np.diff(run, prepend=-1))
    return table, s, run, table[start][..., :2]


def _interpolate_lines(u, s, base, run):
    """``u.interpolate`` along flow lines, as the smoothing gathers u: out[r,
    c] is u at the point with base ``base[run[r], c]`` and s-coordinate
    ``s[r]``, s in [0, roof).  ``line_sum`` adds the plane sums once per
    run and layer (``Grid.line_cells``), read through to u's own nodes, and
    each row interpolates between its two layers."""
    at, wab, s_cells = u.grid.line_cells(base, s, run)
    nodes = u.grid._pad_nodes().ravel().take(at)
    return line_sum(u.values.reshape(-1), nodes, wab, s_cells)


@pytest.mark.parametrize("twisted", [True, False])
@pytest.mark.parametrize("case", ["crossing", "s_zero", "below_roof"])
def test_interpolate_lines_matches_interpolate_bitwise(model, twisted, case):
    grid = Grid((8, 8, 10), (1.0, 1.0, model.roof),
                model.base_matrix if twisted else IDENTITY)
    rng = np.random.default_rng(12)
    u = GridFunction(grid, rng.standard_normal(grid.shape))
    base = rng.random((50, 2))
    base[:5] = 0.0  # lines through grid nodes
    below = np.nextafter(model.roof, 0.0)
    s0, times = {
        # 48 rows over 0.8 roof: one crossing, mid-run
        "crossing": (0.7, np.linspace(-0.2, 0.6, 48)),
        # a row lands on s = 0 exactly, right after the crossing
        "s_zero": (0.5, 0.0625 * np.arange(-4, 12)),
        # the first rows sit just below the roof, then cross it
        "below_roof": (below, np.r_[0.0, 0.0, 2e-16, 0.01 * np.arange(1, 9)]),
    }[case]
    table, s, run, lines = _flow_lines(model, base, s0, times)
    assert run[-1] == 1  # every case crosses the roof once
    if case == "s_zero":
        assert np.any(s == 0.0)
    if case == "below_roof":
        assert s[0] == below
    got = _interpolate_lines(u, s, lines, run)
    want = u.interpolate(table)
    assert got.shape == want.shape == table.shape[:2]
    assert got.tobytes() == want.tobytes()


def _order_points(model, grid, rng):
    """4,000 points with s in [0, roof): nodes, s = 0, s just below the
    roof, and bases inside and outside [0, 1)."""
    pts = rng.uniform(-2.0, 3.0, (4000, 3))
    pts[:, 2] = rng.uniform(0.0, model.roof, 4000)
    nodes = grid.node_points().reshape(-1, 3)
    pts[:640] = nodes[rng.permutation(nodes.shape[0])[:640]]
    pts[640:1140, 2] = 0.0
    pts[1140:1640, 2] = np.nextafter(model.roof, 0.0)
    pts[1640:2140, :2] = rng.random((500, 2))
    pts[2140:2240, :2] = rng.integers(-2, 3, (100, 2))
    return pts


@pytest.mark.parametrize("twisted", [True, False])
def test_plane_order_within_its_rounding_bound(model, twisted, monkeypatch):
    grid = Grid((8, 8, 10), (1.0, 1.0, model.roof),
                model.base_matrix if twisted else IDENTITY)
    rng = np.random.default_rng(13)
    u = GridFunction(grid, 3.0 + rng.standard_normal(grid.shape))
    pts = _order_points(model, grid, rng)
    old = _eight_term_interpolate(u, pts)
    bound = _order_bound(u)
    assert 0.0 < np.abs(u(pts) - old).max() <= bound
    assert bound < 18 * 2.0 ** -53 * np.abs(u.values).max()
    # a plane weight off by one part in 2**30 breaks the bound
    plane_sum = grid_mod.plane_sum

    def mutant(flat, at, wab):
        return plane_sum(flat, at, np.concatenate([wab[:1] * (1 + 2.0 ** -30),
                                                   wab[1:]]))

    monkeypatch.setattr(grid_mod, "plane_sum", mutant)
    assert np.abs(u(pts) - old).max() > bound


def test_discrete_lipschitz_linear_field(small_grid):
    p = small_grid.node_points()
    u = GridFunction(small_grid, 0.25 * np.sin(2 * np.pi * p[..., 2]))
    lip = u.discrete_lipschitz()
    # true gradient sup is 0.5*pi ~ 1.571; discrete estimate is close below
    assert 1.0 < lip <= 0.5 * np.pi + 1e-9
    everywhere = np.ones(small_grid.shape, dtype=bool)
    assert u.discrete_lipschitz(everywhere) == lip
    # u varies only along s, so edges inside one s-layer all price 0
    one_layer = np.zeros(small_grid.shape, dtype=bool)
    one_layer[:, :, 3] = True
    assert u.discrete_lipschitz(one_layer) == 0.0


def _path_distance(p, q, grid, radius):
    """Graph distance between the nodes nearest to points p and q."""
    row = grid.path_distance_field([grid.nearest_index(p)], radius)[0]
    return float(row[np.ravel_multi_index(grid.nearest_index(q), grid.shape)])


def test_path_distance_close_to_flat_metric(model):
    # Pairs in one fundamental domain whose flat segment is shorter than the
    # s-travel of any path that crosses the roof, so the twist cannot give a
    # shortcut: the graph distance then follows the flat metric of T^2 x R.
    grid = Grid((16, 16, 16), (1.0, 1.0, model.roof), model.base_matrix)
    rng = np.random.default_rng(7)
    pairs = 0
    while pairs < 10:
        p = rng.random(3) * grid.lengths
        q = rng.random(3) * grid.lengths
        d = p - q
        d[:2] -= np.round(d[:2])
        flat = np.linalg.norm(d)
        through_roof = model.roof - abs(d[2])
        if flat + 2.0 * grid.diagonal > through_roof:
            continue
        pairs += 1
        pd = _path_distance(p, q, grid, radius=2)
        assert pd >= flat - 2.0 * grid.diagonal - 1e-9
        assert pd <= 1.1 * flat + 2.0 * grid.diagonal


def test_grid_function_shape_guard(small_grid):
    with pytest.raises(ValueError):
        GridFunction(small_grid, np.zeros((2, 2, 2)))


def _oracle_graph(grid, radius):
    """The neighbour graph in CSR: row q holds the node q + off for each
    primitive offset, weighted by |off|; parallel edges are kept (Dijkstra
    takes their minimum), none summed."""
    N = grid.n_nodes
    offs = _primitive_offsets(radius)
    node_id = np.arange(N).reshape(grid.shape)
    cols = np.stack([grid.gather_shift(node_id, [-v for v in off]).ravel()
                     for off in offs], axis=1)
    w = [float(np.linalg.norm(grid.offset_displacement(off))) for off in offs]
    return sp.csr_matrix((np.tile(w, N), cols.ravel(),
                          np.arange(0, N * len(offs) + 1, len(offs))),
                         shape=(N, N))


def _oracle_distances(grid, sources, radius):
    flat = np.ravel_multi_index(np.asarray(sources).T, grid.shape)
    return dijkstra(_oracle_graph(grid, radius), indices=flat,
                    directed=False)


def _sources(shape, seed, n=6):
    """n random nodes, then one on layer 0 and one on layer ns - 1."""
    rng = np.random.default_rng(seed)
    return ([tuple(int(rng.integers(0, m)) for m in shape) for _ in range(n)]
            + [(1, 2, 0), (shape[0] - 1, 0, shape[2] - 1)])


@pytest.mark.parametrize("shape", [(8, 8, 10), (16, 16, 10)])
def test_multi_source_distances_match_single_source_calls(model, shape):
    grid = Grid(shape, (1.0, 1.0, model.roof), model.base_matrix)
    sources = _sources(shape, 3)
    dist = grid.path_distance_field(sources, radius=2)
    assert dist.shape == (len(sources), grid.n_nodes)
    for row, src in zip(dist, sources):
        assert np.array_equal(row, grid.path_distance_field([src], 2)[0])
        assert np.array_equal(row, _oracle_distances(grid, [src], 2)[0])


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("shape,twisted", [
    ((4, 4, 5), True), ((8, 8, 10), True), ((16, 16, 10), True),
    ((16, 16, 16), False)])
def test_distance_fold_is_bitwise_dijkstra(model, shape, twisted, radius):
    grid = Grid(shape, (1.0, 1.0, model.roof),
                model.base_matrix if twisted else IDENTITY)
    sources = _sources(shape, 11)
    assert np.array_equal(grid.path_distance_field(sources, radius),
                          _oracle_distances(grid, sources, radius))


def test_distance_fold_needs_the_roof_crossing_slabs(model, monkeypatch):
    # Without the reverse reads on the layers where an edge crosses the
    # roof, the fold walks each such edge one way only and finds longer
    # paths than Dijkstra on the undirected graph.
    grid = Grid((16, 16, 10), (1.0, 1.0, model.roof), model.base_matrix)
    sources = _sources(grid.shape, 11)
    full = grid.path_distance_field(sources, 2)
    halo, classes = grid.neighbor_graph(2)
    assert any(slabs for _, _, slabs in classes)
    monkeypatch.setattr(grid, "neighbor_graph", lambda radius: (
        halo, [(w, windows, []) for w, windows, _ in classes]))
    one_way = grid.path_distance_field(sources, 2)
    assert (one_way >= full).all() and (one_way > full).any()


def test_distance_fold_rejects_a_radius_above_the_layers():
    # The roof-crossing slabs assume an edge crosses the roof at most once.
    with pytest.raises(ValueError, match="radius"):
        Grid((4, 4, 1), (1.0, 1.0, 1.0), IDENTITY).path_distance_field(
            [(0, 0, 0)], radius=2)


def test_neighbor_graph_keeps_parallel_edges(model):
    # At 4x4x5 with radius 2, offsets such as (2, 0, 0) and (-2, 0, 0) reach
    # the same node; summing such parallel edges made weights that are no
    # offset's norm and distances longer than one edge.
    grid = Grid((4, 4, 5), (1.0, 1.0, model.roof), model.base_matrix)
    offs = _primitive_offsets(2)
    norms = [float(np.linalg.norm(grid.offset_displacement(o))) for o in offs]
    _, classes = grid.neighbor_graph(2)
    assert sorted(w for w, windows, _ in classes for _ in windows) == sorted(
        norms)
    node_id = np.arange(grid.n_nodes).reshape(grid.shape)
    dist = grid.path_distance_field(np.argwhere(node_id >= 0), radius=2)
    for off, w in zip(offs, norms):
        tgt = grid.gather_shift(node_id, [-v for v in off]).ravel()
        assert (dist[node_id.ravel(), tgt] <= w).all(), off
