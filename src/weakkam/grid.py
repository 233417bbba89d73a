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
        """The halo of ``arr`` (one gather of the grid-shaped array).  Axes
        after the first three are batch axes, carried along: a stack of
        fields is padded at once and every window slices all of it."""
        return np.take(arr.reshape((-1,) + arr.shape[3:]), self.index, axis=0)

    def read(self, nodes, offsets):
        """Flat node that flat node ``nodes`` reads under the index triples
        ``offsets`` (last axis), the two broadcast against each other: the
        entry of ``window(offset)`` at that node.  The halo cell is found as
        the node's own part plus the offset's part of one flat position."""
        i, j, k = np.unravel_index(nodes, self.shape)
        a, b, c = np.moveaxis(np.asarray(offsets, dtype=np.int64), -1, 0)
        _, h1, h2 = self.index.shape
        at = (i * h1 + j) * h2 + k
        by = ((self.r - a) * h1 + self.r - b) * h2 - c - self.k_lo
        return self.index.ravel().take(at + by)

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
    """Uniform periodic grid over T^2 x [0, roof), roof-twisted: ``twist``
    is the integer base matrix A of the suspension.  Grids are equal when
    their shapes, lengths and twists are."""

    shape: tuple
    lengths: tuple
    twist: np.ndarray

    def __post_init__(self):
        self.shape = tuple(int(n) for n in self.shape)
        self.lengths = tuple(float(v) for v in self.lengths)
        if len(self.shape) != 3 or len(self.lengths) != 3:
            raise ValueError("grids are 3-dimensional")
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

    def __eq__(self, other):
        return (isinstance(other, Grid) and self.shape == other.shape
                and self.lengths == other.lengths
                and np.array_equal(self.twist, other.twist))

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    @property
    def diagonal(self):
        return float(np.linalg.norm(self.spacings))

    def node_points(self):
        """Coordinates of all nodes, shape self.shape + (3,)."""
        axes = [np.arange(n) * h for n, h in zip(self.shape, self.spacings)]
        out = np.empty(self.shape + (3,))
        out[..., 0] = axes[0][:, None, None]
        out[..., 1] = axes[1][None, :, None]
        out[..., 2] = axes[2][None, None, :]
        return out

    def nearest_index(self, points):
        """Nearest node multi-index; the roof wrap applies the base twist.
        The rounded indices (i, j, k) name the node that reads node
        (i mod n1, j mod n2, 0) under the offset (0, 0, k) (``readers``)."""
        p = np.asarray(points, dtype=float)
        i, j, k = (np.round(p[..., a] / self.spacings[a]).astype(np.int64)
                   for a in range(3))
        z = np.zeros_like(k)
        node = np.ravel_multi_index((i % self.shape[0], j % self.shape[1], z),
                                    self.shape)
        return np.unravel_index(
            self.readers(node, np.stack([z, z, k], axis=-1)), self.shape)

    def _twist_pow(self, m):
        """A^m, as an integer matrix."""
        return np.linalg.matrix_power(
            self.twist if m > 0 else self._twist_inv, abs(int(m)))

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

    def readers(self, nodes, offsets):
        """Flat node that reads flat node ``nodes`` under the index triples
        ``offsets`` (last axis), broadcast against each other: the inverse of
        ``Halo.read``, which is a bijection for each offset.  Under (a, b, c)
        node q reads q - (a, b, c) with the base wrapped and then twisted by
        A^m, m the roof crossings, so p = (x, y, k) is read by
        A^w (x, y) + (a, b) mod n at layer k + c - w*ns, w = (k + c) // ns."""
        i, j, k = np.unravel_index(nodes, self.shape)
        a, b, c = np.moveaxis(np.asarray(offsets, dtype=np.int64), -1, 0)
        n1, n2, ns = self.shape
        w, kq = np.divmod(k + c, ns)
        i, j, w = np.broadcast_arrays(i, j, w)
        qi, qj = np.empty(w.shape, dtype=np.int64), np.empty(w.shape,
                                                             dtype=np.int64)
        for m in np.unique(w):
            sel = w == m
            I, J = self._base_index_map(int(m))
            qi[sel], qj[sel] = I[i[sel], j[sel]], J[i[sel], j[sel]]
        return np.ravel_multi_index(((qi + a) % n1, (qj + b) % n2, kq),
                                    self.shape)

    def halo(self, offsets):
        """The smallest Halo holding the shift by every index triple."""
        offs = np.asarray(offsets, dtype=np.int64).reshape(-1, 3)
        return self._halo(np.abs(offs[:, :2]).max(), -offs[:, 2].max(),
                          self.shape[2] - offs[:, 2].min())

    def _cell(self, x, ax):
        """Lower-corner index along axis ``ax`` of coordinates x in [0,
        length), and the fractional offset from it."""
        v = x / self.spacings[ax]
        i0 = np.clip(np.floor(v).astype(np.int64), 0, self.shape[ax] - 1)
        return i0, v - i0

    def _pad_nodes(self):
        """The flat node of every entry of the padded node array: one more
        base row and column (periodic) and the roof plane (glued to layer 0
        through A)."""
        return self._halo(1, 0, self.shape[2] + 1).index[1:, 1:]

    def _plane_cells(self, base):
        """``plane_terms`` of the base cells of points with base ``base``
        (..., 2) in the padded node array, on layer 0; the base wraps
        periodically."""
        base = np.asarray(base, dtype=float)
        ci, cj = (self._cell(np.mod(base[..., ax], self.lengths[ax]), ax)
                  for ax in range(2))
        return plane_terms(tuple(n + 1 for n in self.shape), ci, cj)

    def line_cells(self, base, s, run):
        """The cells of ``line_sum`` along flow lines in the padded node
        array: row r of the lines is the point with base ``base[run[r],
        ...]`` (runs on axis 0, base on the last axis) and s-coordinate
        ``s[r]`` in [0, roof).  A flow line's base is constant between roof
        crossings, so a run's base cells serve every row of the run; only
        the s-cell (k, t) changes by row.  Returns ``plane_terms`` (axis 1
        the (run, layer) pairs the rows touch, in increasing order) and the
        rows' s-cells ``(lo, hi, t)``: the pairs of layers k and k + 1 of
        each row's run, and its fraction t."""
        k, t = self._cell(np.asarray(s, dtype=float), 2)
        n_layers = self.shape[2] + 1
        key = np.asarray(run) * n_layers + k
        pairs, at_pair = np.unique(np.r_[key, key + 1], return_inverse=True)
        pair_run, layer = np.divmod(pairs, n_layers)
        at, wab = self._plane_cells(base)
        at = at.take(pair_run, axis=1)
        at += layer.reshape((-1,) + (1,) * (at.ndim - 2))
        return at, wab.take(pair_run, axis=1), (*np.split(at_pair, 2), t)

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
        """The undirected graph that joins each node q to q + off, weighted
        by |off|, for every primitive offset up to ``radius``, as windows of
        one halo: ``(halo, classes)`` with one class ``(w, windows, slabs)``
        per weight w.  Node q's neighbours are what it reads under each
        offset (a whole window; the offsets come in +- pairs) and the nodes
        that read it.  The reader of q under off is q's read under -off,
        except on the |c| layers where q + off crosses the roof (m =
        (k + c) // ns = +-1, as |c| <= radius <= ns): there it is the read
        under (-A^(-m) (a, b), -c), a ``(window, layers)`` slab of the class.
        A slab whose offset is itself an edge of weight <= w adds nothing
        and is left out.  Offsets that reach one node (small grids wrap) stay
        parallel edges.
        """
        key = int(radius)
        if key in self._graph_cache:
            return self._graph_cache[key]
        ns = self.shape[2]
        if key > ns:
            raise ValueError("graph radius must not exceed the s-layers")
        weight = {off: float(np.linalg.norm(self.offset_displacement(off)))
                  for off in _primitive_offsets(radius)}
        by_weight = {}
        for off, w in weight.items():
            by_weight.setdefault(w, []).append(off)
        classes = []
        for w, offs in by_weight.items():
            slabs = []
            for a, b, c in offs:
                if c == 0:
                    continue
                m = 1 if c > 0 else -1
                ab = -self._twist_pow(-m) @ (a, b)
                rev = (int(ab[0]), int(ab[1]), -c)
                if weight.get(rev, np.inf) > w:
                    slabs.append((rev, slice(ns - c, ns) if c > 0
                                  else slice(0, -c)))
            classes.append((w, offs, slabs))
        halo = self.halo([o for _, offs, slabs in classes
                          for o in offs + [r for r, _ in slabs]])
        graph = halo, [(w, [halo.window(o) for o in offs],
                        [(halo.window(r), ks) for r, ks in slabs])
                       for w, offs, slabs in classes]
        self._graph_cache[key] = graph
        return graph

    def path_distance_field(self, sources, radius=1):
        """Graph distances from each source node to all nodes: one row per
        source, nodes in flattened order.

        A label-correcting fold of one stack of distance fields: each sweep
        pads the stack once and, per weight class, adds w once to the least
        of its windows and slabs, then takes the minimum with the stack, until
        a sweep changes nothing.  fl(min x + w) = min fl(x + w), and rounding
        is monotone with w >= 0, so the fixed point is the least
        edge-by-edge-rounded path sum, bitwise what Dijkstra returns."""
        halo, classes = self.neighbor_graph(radius)
        src = np.ravel_multi_index(np.asarray(sources).reshape(-1, 3).T,
                                   self.shape)
        dist = np.full((self.n_nodes, src.size), np.inf)
        dist[src, np.arange(src.size)] = 0.0
        dist = dist.reshape(self.shape + (src.size,))
        while True:
            padded = halo.pad(dist)
            new = dist.copy()
            for w, windows, slabs in classes:
                low = padded[windows[0]].copy()
                for win in windows[1:]:
                    np.minimum(low, padded[win], out=low)
                for win, ks in slabs:
                    np.minimum(low[:, :, ks], padded[win][:, :, ks],
                               out=low[:, :, ks])
                low += w
                np.minimum(new, low, out=new)
            if np.array_equal(new, dist):
                return dist.reshape(self.n_nodes, -1).T
            dist = new


def plane_terms(shape, ci, cj):
    """The (i, j) part of trilinear interpolation in an array of ``shape``:
    the flat indices of the four (i, j) corners of each point's cell on
    layer 0 and their weights wa * wb, both stacked as (4, ...) in corner
    order (a, b) = (0, 0), (0, 1), (1, 0), (1, 1).  Layer c of the cell is
    ``at + c``."""
    (i, ti), (j, tj) = ci, cj
    s1 = shape[2]
    s0 = shape[1] * s1
    corner = s0 * np.asarray(i) + s1 * np.asarray(j)
    at = corner + np.array([0, s1, s0, s0 + s1]).reshape(
        (4,) + (1,) * corner.ndim)
    wab = np.stack([1 - ti, ti])[:, None] * np.stack([1 - tj, tj])[None]
    return at, wab.reshape((4,) + wab.shape[2:])


def plane_sum(flat, at, wab):
    """The base-plane step of trilinear interpolation on one layer:
    P = sum_ab wab[ab] * flat[at[ab]], ``at`` and ``wab`` of one shape, the
    four terms added in corner order to a 0.0 start (an exact zero is
    +0.0)."""
    p = np.zeros(at.shape[1:])
    for i, w in zip(at, wab):
        p += w * flat.take(i)
    return p


def layer_lerp(p0, p1, t):
    """The step along the last axis: (1 - t) p0 + t p1 between the plane
    sums p0, p1 of a cell's two layers, t broadcast against them, added to
    a 0.0 start."""
    f = np.zeros(np.shape(p0))
    f += (1 - t) * p0
    f += t * p1
    return f


def trilinear_sum(flat, at, wab, t):
    """Trilinear interpolation of a raveled array at points: the plane sums
    on each point's lower layer (``at``, ``wab`` as ``plane_terms`` gives
    them) and on the next (``at + 1``: the last axis has stride 1), then
    ``layer_lerp`` at the fraction t along the last axis."""
    return layer_lerp(plane_sum(flat, at, wab), plane_sum(flat, at + 1, wab),
                      t)


def line_sum(flat, at, wab, s_cells):
    """Trilinear interpolation of a raveled array along flow lines
    (``Grid.line_cells``): one plane sum per (run, layer) pair, axis 1 of
    ``at`` and ``wab``, then ``layer_lerp`` of each row between its two
    pairs, ``s_cells = (lo, hi, t)``.  Each row sees the operations and
    inputs of ``trilinear_sum`` at its point, so the two agree bitwise."""
    lo, hi, t = s_cells
    p = plane_sum(flat, at, wab)
    t = np.reshape(t, (-1,) + (1,) * (p.ndim - 1))
    return layer_lerp(p.take(lo, axis=0), p.take(hi, axis=0), t)


class GridFunction:
    """Scalar field on a Grid with multilinear interpolation."""

    def __init__(self, grid: Grid, values):
        self.grid = grid
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError("value array shape must match grid shape")
        self.values = values

    def copy(self):
        return GridFunction(self.grid, self.values.copy())

    def interpolate(self, points):
        """Multilinear interpolation at points (..., 3) with s in [0, roof),
        as ``SuspensionFlow.flow_map`` leaves them; the base wraps
        periodically.  Raises ValueError for a point with any other s or a
        non-finite coordinate."""
        p = np.asarray(points, dtype=float)
        x = p.reshape(-1, 3)
        s = x[:, 2]
        if not (np.isfinite(x).all()
                and ((0.0 <= s) & (s < self.grid.lengths[2])).all()):
            raise ValueError("interpolate needs finite points, s in [0, roof)")
        at, wab = self.grid._plane_cells(x[:, :2])
        k, tk = self.grid._cell(s, 2)
        padded = np.take(self.values, self.grid._pad_nodes()).ravel()
        f = trilinear_sum(padded, at + k, wab, tk)
        return f.reshape(p.shape[:-1])

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
