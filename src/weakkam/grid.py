"""Periodic grids on the suspension manifold, grid functions, graph distances.

The s-axis of a suspension grid wraps through the roof gluing
(b, roof) ~ (A b, 0), so index shifts across that axis twist the base indices
by a power of A.  Every twisted shift goes through one primitive, the
``Halo``: the array is extended once along s by twisted slabs (layer k outside
[0, ns) is layer k mod ns read through A^m, m = k // ns) and wrap-padded on
the two base axes by the stencil radius.  The shift by any offset of the
stencil is then a zero-copy slice of that one padded array, exact because the
base lattice is invariant under the integer matrix A.  Min-plus sweeps,
Howard's passes, discrete Lipschitz constants, the neighbour graph,
``Grid.gather_shift`` and the interpolation corners all read their shifts from
a halo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra


class UnreachableError(RuntimeError):
    pass


def _primitive_offsets(radius):
    offs = []
    r = int(radius)
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            for c in range(-r, r + 1):
                if (a, b, c) == (0, 0, 0):
                    continue
                if np.gcd.reduce([abs(a), abs(b), abs(c)]) != 1:
                    continue
                offs.append((a, b, c))
    return offs


@dataclass(frozen=True)
class Halo:
    """Flat node index of every cell of a twisted halo.

    ``index[r + x, r + y, k - k_lo]`` is the node read by base cell (x, y) of
    s-layer k, for -r <= x < n1 + r, -r <= y < n2 + r, k_lo <= k < k_hi: the
    base wraps periodically and a layer outside [0, ns) is layer k mod ns
    seen through A^(k // ns).  ``pad`` copies an array into the halo once;
    ``window(offset)`` is the slice of the padded copy that equals
    ``Grid.gather_shift(arr, offset)``.
    """

    index: np.ndarray
    r: int
    k_lo: int
    shape: tuple

    def pad(self, arr):
        """The halo of ``arr`` (one gather of the grid-shaped array)."""
        return np.take(arr, self.index)

    def sources(self, offsets):
        """Flat node read by each node (flat order) under its own offset row."""
        i, j, k = np.indices(self.shape).reshape(3, -1)
        a, b, c = np.asarray(offsets, dtype=np.int64).T
        return self.index[self.r - a + i, self.r - b + j, k - c - self.k_lo]

    def window(self, offset):
        """Slices of a padded array that shift it by the index triple."""
        a, b, c = (int(v) for v in offset)
        n1, n2, ns = self.shape
        k0 = -c - self.k_lo
        if max(abs(a), abs(b)) > self.r or not (
                0 <= k0 <= self.index.shape[2] - ns):
            raise ValueError(f"offset {offset} lies outside the halo")
        return (slice(self.r - a, self.r - a + n1),
                slice(self.r - b, self.r - b + n2), slice(k0, k0 + ns))


@dataclass
class Grid:
    """Uniform periodic grid over T^2 x [0, roof), optionally roof-twisted.

    ``twist`` is the integer base matrix A of the suspension, or None for a
    plain periodic box.
    """

    shape: tuple
    lengths: tuple = (1.0, 1.0, 1.0)
    twist: np.ndarray = None

    def __post_init__(self):
        self.shape = tuple(int(n) for n in self.shape)
        self.lengths = tuple(float(v) for v in self.lengths)
        if len(self.shape) != 3 or len(self.lengths) != 3:
            raise ValueError("grids are 3-dimensional")
        if self.twist is not None:
            self.twist = np.asarray(self.twist, dtype=np.int64)
            if self.shape[0] != self.shape[1]:
                raise ValueError("roof-twisted grids need equal base resolutions")
            d = int(round(np.linalg.det(self.twist)))
            if abs(d) != 1:
                raise ValueError("twist matrix must be unimodular")
            self._twist_inv = np.array(
                [[self.twist[1, 1], -self.twist[0, 1]],
                 [-self.twist[1, 0], self.twist[0, 0]]], dtype=np.int64) * d
        self.spacings = tuple(L / n for L, n in zip(self.lengths, self.shape))
        self._base_cache = {}
        self._halo_cache = {}
        self._graph_cache = {}

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    @property
    def diagonal(self):
        return float(np.linalg.norm(self.spacings))

    @property
    def max_spacing(self):
        return float(max(self.spacings))

    def node_points(self):
        """Coordinates of all nodes, shape self.shape + (3,)."""
        axes = [np.arange(n) * h for n, h in zip(self.shape, self.spacings)]
        out = np.empty(self.shape + (3,))
        out[..., 0] = axes[0][:, None, None]
        out[..., 1] = axes[1][None, :, None]
        out[..., 2] = axes[2][None, None, :]
        return out

    def nearest_index(self, points):
        """Nearest node multi-index; the roof wrap applies the base twist."""
        p = np.asarray(points, dtype=float)
        shape = p.shape[:-1]
        flat = np.atleast_2d(p.reshape(-1, 3))
        i = np.round(flat[:, 0] / self.spacings[0]).astype(np.int64)
        j = np.round(flat[:, 1] / self.spacings[1]).astype(np.int64)
        k = np.round(flat[:, 2] / self.spacings[2]).astype(np.int64)
        if self.twist is not None:
            m = k // self.shape[2]
            k = k - m * self.shape[2]
            for mv in np.unique(m):
                if mv == 0:
                    continue
                M = self._twist_pow(int(mv))
                sel = m == mv
                inew = M[0, 0] * i[sel] + M[0, 1] * j[sel]
                jnew = M[1, 0] * i[sel] + M[1, 1] * j[sel]
                i[sel], j[sel] = inew, jnew
        i = np.mod(i, self.shape[0]).reshape(shape)
        j = np.mod(j, self.shape[1]).reshape(shape)
        k = np.mod(k, self.shape[2]).reshape(shape)
        return (i, j, k)

    def _twist_pow(self, m):
        if self.twist is None:
            return np.eye(2, dtype=np.int64)
        M = np.eye(2, dtype=np.int64)
        T = self.twist if m > 0 else self._twist_inv
        for _ in range(abs(int(m))):
            M = T @ M
        return M

    def _base_index_map(self, m):
        """Index arrays (I, J) with (I,J)[i,j] = A^m (i, j) mod n."""
        hit = self._base_cache.get(m)
        if hit is not None:
            return hit
        n1, n2 = self.shape[0], self.shape[1]
        i = np.arange(n1, dtype=np.int64)[:, None]
        j = np.arange(n2, dtype=np.int64)[None, :]
        M = self._twist_pow(m)
        I = np.mod(M[0, 0] * i + M[0, 1] * j, n1)
        J = np.mod(M[1, 0] * i + M[1, 1] * j, n2)
        I, J = np.broadcast_arrays(I, J)
        out = (np.ascontiguousarray(I), np.ascontiguousarray(J))
        self._base_cache[m] = out
        return out

    def _halo(self, r, k_lo, k_hi):
        """The Halo of base radius r over s-layers k_lo <= k < k_hi."""
        r, k_lo, k_hi = int(r), int(k_lo), int(k_hi)
        hit = self._halo_cache.get((r, k_lo, k_hi))
        if hit is not None:
            return hit
        n1, n2, ns = self.shape
        node_id = np.arange(self.n_nodes, dtype=np.int64).reshape(self.shape)
        layers = []
        for k in range(k_lo, k_hi):
            m, k0 = divmod(k, ns)
            I, J = self._base_index_map(m)
            layers.append(node_id[I, J, k0])
        ii = np.arange(-r, n1 + r) % n1
        jj = np.arange(-r, n2 + r) % n2
        hit = Halo(np.stack(layers, axis=-1)[np.ix_(ii, jj)], r, k_lo,
                   self.shape)
        self._halo_cache[(r, k_lo, k_hi)] = hit
        return hit

    def halo(self, offsets):
        """The smallest Halo holding the shift by every index triple."""
        offs = np.asarray(offsets, dtype=np.int64).reshape(-1, 3)
        return self._halo(np.abs(offs[:, :2]).max(), -offs[:, 2].max(),
                          self.shape[2] - offs[:, 2].min())

    def gather_shift(self, arr, offset):
        """Return S with S[q] = arr[node at (point(q) - offset_phys)].

        ``offset`` is an integer index triple; crossing the s-axis applies the
        twist to the base indices, exactly.
        """
        h = self.halo([offset])
        return np.take(arr, h.index[h.window(offset)])

    def offset_displacement(self, offset):
        """Physical (lifted) displacement vector of an index offset."""
        return np.array([o * h for o, h in zip(offset, self.spacings)])

    def neighbor_graph(self, radius=1):
        """Symmetric sparse graph over nodes with primitive-offset edges."""
        key = int(radius)
        if key in self._graph_cache:
            return self._graph_cache[key]
        N = self.n_nodes
        offs = _primitive_offsets(radius)
        # target[q] = node reached from q by +off, the shift by -off of the
        # node ids; the halo of the node ids is its own index.
        halo = self.halo([[-v for v in off] for off in offs])
        node_id = np.arange(N, dtype=np.int64)
        rows, cols, data = [], [], []
        for off in offs:
            tgt = halo.index[halo.window([-v for v in off])]
            w = float(np.linalg.norm(self.offset_displacement(off)))
            rows.append(node_id)
            cols.append(tgt.ravel())
            data.append(np.full(N, w))
        g = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(N, N))
        self._graph_cache[key] = g
        return g

    def path_distance_field(self, source_index, radius=1):
        """Graph distances from one node to all nodes (flattened order)."""
        g = self.neighbor_graph(radius)
        src = np.ravel_multi_index(tuple(source_index), self.shape)
        return dijkstra(g, indices=src, directed=False)


def path_distance(p, q, grid: Grid, radius=2):
    """Shortest-path distance between two points through the grid graph.

    Both points are snapped to their nearest nodes; the graph uses primitive
    offsets up to ``radius`` (radius=2 keeps the metric within ~2% of the
    flat distance on convex periodic domains).
    """
    ip = grid.nearest_index(np.asarray(p))
    iq = grid.nearest_index(np.asarray(q))
    d = grid.path_distance_field(ip, radius=radius)
    val = d[np.ravel_multi_index(iq, grid.shape)]
    if not np.isfinite(val):
        raise UnreachableError("points are graph-disconnected")
    return float(val)


class GridFunction:
    """Scalar field on a Grid with multilinear interpolation.

    Carries an exact additive ``offset`` separate from the node values, so
    that adding a constant never touches (or re-rounds) the value array; the
    min-plus operator propagates the offset unchanged, which makes additive
    equivariance of the discrete Lax-Oleinik operator exact in floating point.
    """

    def __init__(self, grid: Grid, values, offset=0.0):
        self.grid = grid
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError("value array shape must match grid shape")
        self.values = values
        self.offset = float(offset)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_callable(cls, grid, fn):
        return cls(grid, np.asarray(fn(grid.node_points()), dtype=float))

    @property
    def max_spacing(self):
        return self.grid.max_spacing

    def copy(self):
        return GridFunction(self.grid, self.values.copy(), self.offset)

    def dense(self):
        """Values with the offset folded in."""
        return self.values + self.offset

    def __add__(self, c):
        if isinstance(c, GridFunction):
            return GridFunction(self.grid, self.values + c.dense(), self.offset)
        return GridFunction(self.grid, self.values, self.offset + float(c))

    def __radd__(self, c):
        return self.__add__(c)

    def __sub__(self, c):
        if isinstance(c, GridFunction):
            return GridFunction(self.grid, self.values - c.dense(), self.offset)
        return GridFunction(self.grid, self.values, self.offset - float(c))

    def minimum(self, other):
        """Pointwise minimum.  Exact (bitwise) when both offsets are zero."""
        if self.offset == other.offset:
            return GridFunction(self.grid, np.minimum(self.values, other.values),
                                self.offset)
        return GridFunction(self.grid,
                            np.minimum(self.dense(), other.dense()), 0.0)

    def _padded(self):
        """Node values on the closed box: one more base row and column
        (periodic) and the roof plane (glued to layer 0 through A)."""
        halo = self.grid._halo(1, 0, self.grid.shape[2] + 1)
        return halo.pad(self.values)[1:, 1:]

    def interpolate(self, points):
        """Multilinear interpolation; points are wrapped into the fundamental
        domain first (roof wrap applies the base twist)."""
        p = np.asarray(points, dtype=float)
        x = p.reshape(-1, 3).copy()
        ns_len = self.grid.lengths[2]
        if self.grid.twist is not None:
            m = np.floor(x[:, 2] / ns_len).astype(np.int64)
            for mv in np.unique(m):
                if mv == 0:
                    continue
                M = self.grid._twist_pow(int(mv)).astype(float)
                sel = m == mv
                x[sel, :2] = x[sel, :2] @ M.T
                x[sel, 2] -= mv * ns_len
        x[:, 0] = np.mod(x[:, 0], self.grid.lengths[0])
        x[:, 1] = np.mod(x[:, 1], self.grid.lengths[1])
        x[:, 2] = np.mod(x[:, 2], ns_len)
        pad = self._padded()
        f = np.empty(x.shape[0])
        t = np.empty((x.shape[0], 3))
        idx = np.empty((x.shape[0], 3), dtype=np.int64)
        for ax in range(3):
            u = x[:, ax] / self.grid.spacings[ax]
            i0 = np.floor(u).astype(np.int64)
            i0 = np.clip(i0, 0, self.grid.shape[ax] - 1)
            idx[:, ax] = i0
            t[:, ax] = u - i0
        i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
        ti, tj, tk = t[:, 0], t[:, 1], t[:, 2]
        f = np.zeros(x.shape[0])
        for (a, wa) in ((0, 1 - ti), (1, ti)):
            for (b, wb) in ((0, 1 - tj), (1, tj)):
                for (c, wc) in ((0, 1 - tk), (1, tk)):
                    f += wa * wb * wc * pad[i + a, j + b, k + c]
        return (f + self.offset).reshape(p.shape[:-1])

    def __call__(self, points):
        return self.interpolate(points)

    def discrete_lipschitz(self, mask=None):
        """Max difference quotient over the 26-neighborhood edge set.

        With a boolean ``mask`` of the grid's shape, only edges whose two
        endpoints both lie inside the mask are priced.
        """
        offs = _primitive_offsets(1)
        halo = self.grid.halo(offs)
        shifted = halo.pad(self.values)
        shifted_mask = None if mask is None else halo.pad(mask)
        best = 0.0
        for off in offs:
            d = float(np.linalg.norm(self.grid.offset_displacement(off)))
            win = halo.window(off)
            diff = np.abs(self.values - shifted[win])
            if mask is not None:
                both = mask & shifted_mask[win]
                if not both.any():
                    continue
                diff = diff[both]
            best = max(best, float(diff.max()) / d)
        return best

    def sup_diff(self, other):
        return float(np.abs(self.dense() - other.dense()).max())
