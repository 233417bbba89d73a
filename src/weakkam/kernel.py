"""One-step min-plus action kernels on suspension grids.

A kernel entry prices the move p -> q over one time step h:

    A_h(p, q) = h*(phi(p) - phi_bar) + C * || (q - p) - h V ||

where the difference is taken in the lifted (roof-glued) coordinates.  On a
suspension grid with h an exact multiple of the s-spacing, the map q -> p is a
pure index shift for every deviation offset, so applying the operator is a
minimum of shifted copies of one base array.  The array is copied once into a
twisted halo (``grid.Halo``); each shift is a zero-copy window of it, folded
into the running minimum in place.  No cost matrix is materialized; memory
stays O(grid size) for any reach.

``apply`` and ``apply_reverse`` fold every s-layer at once, and prune the
stencil exactly.  With lo the minimum of the shifted array B and hi the
maximum of its zero-deviation window, only the prefix of the norm-sorted
offsets with not (lo + C*dev > hi) is folded: a pruned candidate at q is
fl(B[p] + C*dev) >= fl(lo + C*dev) > hi >= B[p0], the zero-deviation
candidate at q, because rounding is monotone.  That window is a permutation
of B, so lo, hi are B's extremes.  If B holds +-inf the test is false and
nothing is pruned.  Offsets of equal norm are folded together, the minimum of
their windows first and C*dev added once, exact for the same reason.  NaN
input raises ``ValueError``.

``reduced_fold`` folds labels L = u - v in the reduced costs of a Howard
bias v, each candidate clamped to at least the label it reads, so every
reduced weight is >= 0 and the fold ends with no drift rule and no cap.

Two sweeps compute entries, not whole fields, bitwise as ``apply`` does.
``row`` sweeps a stack of delta fields: field i is finite only at its node p,
so its fold at q is min fl(B[p] + C*dev) over the offsets under which q reads
p, scattered to each offset's reader of p.  ``apply_at`` folds a sweep only at
given (node, field) pairs, min over the whole stencil of
fl(B[read(q)] + C*dev): a pruned candidate never undercuts the zero-deviation
one, and fl(min_j x_j + C*dev) = min_j fl(x_j + C*dev).

Howard policy iteration gives the exact additive eigenvalue.  Its policy
evaluation loops over peel rounds and cycles of the policy graph, never over
nodes.  It improves policies on the short stencil first, the norm groups
within one grid diagonal, and widens once to the full stencil when a pass
there changes nothing.  It stops only when a full-stencil pass changes no
policy, the convergence test of Howard on the full stencil throughout, so
the short stencil sets how fast the answer is reached, not which test it
passes: on the CLI's kernels the gain is bitwise the full-stencil run's.
Its bias pass stops before the first norm group with
lo + C*dev > max(best_w), lo = min(v + h*phi): every later candidate is +inf
(gain-masked) or fl(x + C*dev) >= fl(lo + C*dev) > best_w(q), which the
strict improvement rule never takes, and best_w only falls as groups are
folded.  While some node has no candidate, max(best_w) = inf and nothing is
cut.  Policies, gains and biases are those of the unpruned pass, bitwise.

The observable is priced at the segment's earlier endpoint p.  This makes the
one-step defect of the semigroup law second order in h (the two-step and
one-step compositions share every term except a single phi difference along
the flow), which is what the consistency tests measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grid import Grid, GridFunction, Halo
from .models import SuspensionFlow


class AlignmentError(ValueError):
    """Kernel step h must be an integer multiple of the s-spacing."""


def _deviation_offsets(grid: Grid, reach):
    """Integer offsets with physical norm <= reach, sorted by (norm, a, b, c),
    one per class (a mod n1, b mod n2, c).

    The norm is computed on the octant a, b, c >= 0 and mirrored to the
    others: flipping a sign changes no product of the norm's dot.  Offsets of
    one class read the same node at every q, since the halo wraps the base
    before it twists it; the first of a class in this order is never priced
    above the others, so dropping the rest changes no fold, and Howard's
    strict improvement rule would take none of them."""
    rad = [int(np.floor(reach / s)) for s in grid.spacings]
    octant, norms = [], []
    for a in range(rad[0] + 1):
        for b in range(rad[1] + 1):
            for c in range(rad[2] + 1):
                d = np.linalg.norm([a * grid.spacings[0], b * grid.spacings[1],
                                    c * grid.spacings[2]])
                if d <= reach + 1e-12:
                    octant.append((a, b, c))
                    norms.append(d)
    octant = np.array(octant, dtype=np.int64).reshape(-1, 3)
    signs = np.array(list(itertools.product((1, -1), repeat=3)))
    # negating a zero component repeats an offset of an earlier sign row
    fresh = ~((signs[:, None] < 0) & (octant == 0)).any(axis=-1)
    offsets = (signs[:, None] * octant)[fresh]
    devs = np.broadcast_to(norms, fresh.shape)[fresh]
    order = np.lexsort((offsets[:, 2], offsets[:, 1], offsets[:, 0], devs))
    offsets, devs = offsets[order], devs[order]
    (n1, n2, _), (a, b, c) = grid.shape, offsets.T
    periodic = ((a % n1) * n2 + b % n2) * (2 * rad[2] + 1) + c + rad[2]
    keep = np.sort(np.unique(periodic, return_index=True)[1])
    return offsets[keep], devs[keep]


# Reads per chunk of ``ActionKernel.apply_at`` (1 MiB of float64): a constant,
# so the gather's memory does not grow with the number of pairs.
_ENTRIES = 1 << 17
# Howard's cap on policies, and the relative tolerance of its improvements.
_HOWARD_MAX_ITERS, _HOWARD_TOL = 200, 1e-13


@dataclass(frozen=True)
class _Sweep:
    """One stencil's gather offsets, halo and windows; group g is offsets
    bounds[g]:bounds[g+1], all of norm-price cdevs[g], and group 0 is the
    zero deviation alone."""

    tots: np.ndarray
    halo: Halo
    windows: list
    bounds: list
    cdevs: np.ndarray


@dataclass
class ActionKernel:
    """Shift-form min-plus kernel on a roof-twisted suspension grid."""

    grid: Grid
    model: SuspensionFlow
    c: float
    phi_bar: float
    h: float
    reach: float
    offsets: np.ndarray
    devs: np.ndarray
    flow_steps: int
    phi_nodes: np.ndarray

    @property
    def n_offsets(self):
        return self.offsets.shape[0]

    def with_phi_bar(self, phi_bar):
        """The kernel at another reference value.  It shares the sweeps
        already built: windows and halo do not depend on phi_bar."""
        out = replace(self, phi_bar=float(phi_bar))
        for name in ("_forward", "_reverse"):
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        return out

    def _total_offsets(self):
        """Gather offsets: deviation plus the flow step in the s-axis."""
        tot = self.offsets.copy()
        tot[:, 2] += self.flow_steps
        return tot

    @cached_property
    def _hphi(self):
        return self.h * (self.phi_nodes - self.phi_bar)

    def _sweep(self, tots):
        halo = self.grid.halo(tots)
        # Runs of equal norm; devs[0] = 0 is the zero deviation alone.
        bounds = np.concatenate([[0], np.flatnonzero(np.diff(self.devs)) + 1,
                                 [self.n_offsets]])
        return _Sweep(tots, halo, [halo.window(t) for t in tots],
                      bounds.tolist(), (self.c * self.devs)[bounds[:-1]])

    @cached_property
    def _forward(self):
        return self._sweep(self._total_offsets())

    @cached_property
    def _reverse(self):
        return self._sweep(-self._total_offsets())

    @staticmethod
    def _lower_bound(B):
        lo = B.min()
        if np.isnan(lo):
            raise ValueError("kernel input field holds NaN")
        return lo

    def _fold_all(self, B, sweep):
        """min over the stencil of shift(B) + c*dev on every s-layer, pruned
        exactly."""
        lo = self._lower_bound(B)
        P = sweep.halo.pad(B)
        win, bounds = sweep.windows, sweep.bounds
        best = P[win[0]].copy()
        tmp = np.empty_like(best)
        n_groups = np.searchsorted(lo + sweep.cdevs, best.max(), side="right")
        for g in range(1, n_groups):
            np.copyto(tmp, P[win[bounds[g]]])
            for j in range(bounds[g] + 1, bounds[g + 1]):
                np.minimum(tmp, P[win[j]], out=tmp)
            np.add(tmp, sweep.cdevs[g], out=tmp)
            np.minimum(best, tmp, out=best)
        return best

    def _check_grid(self, u):
        if u.grid != self.grid:
            raise ValueError("grid mismatch")

    def _stack_hphi(self, stack):
        if stack.ndim != 4 or stack.shape[:3] != self.grid.shape:
            raise ValueError("a field stack has shape grid.shape + (m,)")
        return self._hphi[..., None]

    def apply(self, u):
        """(T_h u)(q) = min_p u(p) + A_h(p,q); deterministic tie-breaking.
        An array of shape grid.shape + (m,) is m fields, swept at once
        through the same windows and returned as an array."""
        if isinstance(u, np.ndarray):
            return self._fold_all(u + self._stack_hphi(u), self._forward)
        self._check_grid(u)
        best = self._fold_all(u.values + self._hphi, self._forward)
        return GridFunction(self.grid, best)

    def equivariance_bound(self, u, c):
        """A bound on max |T(u + c) - fl(T u + c)|, u + c rounded as
        ``u.values + c``: 2 gamma_3 M = 6e / (1 - 3e) * M, e = 2**-53,
        M = max|u| + |c| + max|h*(phi - phi_bar)| + C * max dev.

        Both sides are minima, over the same candidates, of a sum of u(p), c,
        h*(phi(p) - phi_bar) and C*dev rounded three times: on the left
        ((u + c) + h*phi) + C*dev; on the right (u + h*phi) + C*dev, with c
        added after the minimum, and fl(min x + c) = min fl(x + c).  Each
        such sum is within gamma_3 M of the exact one (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2002, eq. 4.4; a subnormal sum
        is exact), so the two minima are within 2 gamma_3 M.  Rounding M
        and the product moves the bound by a relative few e."""
        e = 2.0 ** -53
        m = (np.abs(u.values).max() + abs(c) + np.abs(self._hphi).max()
             + self.c * self.devs.max())
        return 6.0 / (1.0 - 3.0 * e) * e * float(m)

    def reduced_fold(self, bias, labels, fresh=None):
        """The fixed point of the clamped fold in the reduced costs of
        ``bias`` (v, grid-shaped) from ``labels`` (L), and its pass count:
        L(q) <- min(L(q), min_d max(L(p_d), fl(B(p_d) + c*dev_d) - v(q))),
        B = fl(fl(L + v) + h*phi), until a pass changes no label.  NaN in
        ``bias`` or ``labels`` raises ``ValueError``: it would spread
        through the minima, and no pass would leave the labels unchanged.

        Each edge maps the label it reads to one at least as large, so a
        walk that closes a cycle ends no lower than it would without it.
        The fixed point is thus the least value, over the paths into q, of
        their edge maps applied to the start's label, bitwise the same for
        every update order; with N nodes no path has more than N edges.

        A pass first sweeps the flow edges (offset 0) in s-layer order,
        each layer from the labels this pass left on the layer it reads.
        It then folds the other offsets from the halos of L and B, Jacobi,
        with B = +inf at the nodes not changed since the last such fold
        (outside ``fresh`` before the first; None is every node): their
        candidates were taken then.  The caller vouches that nodes outside
        ``fresh`` lower no label (a node holding the largest label cannot).
        With lo = min B and hi = max fl(L + v), a norm group with
        fl(lo + c*dev) >= nextafter(hi) is not folded: the exact value of
        fl(lo + c*dev) - v(q) exceeds L(q), so by monotone rounding no
        candidate lowers L(q).  Nor is a group whose screen, fl(min of its
        B windows + c*dev) - v, lowers no label: it is the least unclamped
        candidate of the group, exactly, since fl(min x + c) = min fl(x + c).
        """
        grid, sweep = self.grid, self._forward
        win, bounds = sweep.windows, sweep.bounds
        v = np.asarray(bias, dtype=float)
        L = np.array(labels, dtype=float)
        for name, x in (("bias", v), ("labels", L)):
            if np.isnan(x.min()):
                raise ValueError(f"reduced_fold {name} holds NaN")
        flat = L.reshape(-1)
        # offset 0 is the flow step: node q's flow edge reads pred[q]
        pred = sweep.halo.read(np.arange(grid.n_nodes), sweep.tots[0])
        pred = pred.reshape(grid.shape)
        vp, hp = v.reshape(-1)[pred], self._hphi.reshape(-1)[pred]
        seen = np.full(grid.shape, np.inf) if fresh is None \
            else np.where(fresh, np.inf, L)
        lp, cand = np.empty(grid.shape[:2]), np.empty(grid.shape[:2])
        tmp = np.empty(grid.shape)
        passes = 0
        while True:
            passes += 1
            start = L.copy()
            for k in range(grid.shape[2]):
                np.take(flat, pred[:, :, k], out=lp)
                np.add(lp, vp[:, :, k], out=cand)
                cand += hp[:, :, k]
                cand -= v[:, :, k]
                np.maximum(cand, lp, out=cand)
                np.minimum(L[:, :, k], cand, out=L[:, :, k])
            U = L + v
            B = U + self._hphi
            B[L >= seen] = np.inf
            seen = L.copy()
            n_groups = np.searchsorted(B.min() + sweep.cdevs,
                                       np.nextafter(U.max(), np.inf))
            if n_groups > 1:
                PB, PL = sweep.halo.pad(B), sweep.halo.pad(L)
            for g in range(1, n_groups):
                group, cdev = range(bounds[g], bounds[g + 1]), sweep.cdevs[g]
                np.copyto(tmp, PB[win[group[0]]])
                for j in group[1:]:
                    np.minimum(tmp, PB[win[j]], out=tmp)
                tmp += cdev
                tmp -= v
                if not (tmp < L).any():
                    continue
                for j in group:
                    np.add(PB[win[j]], cdev, out=tmp)
                    tmp -= v
                    np.maximum(tmp, PL[win[j]], out=tmp)
                    np.minimum(L, tmp, out=L)
            if np.array_equal(L, start):
                return L, passes

    def apply_reverse(self, w):
        """(T'_h w)(p) = min_q w(q) + A_h(p,q) (adjoint sweep, for A^t(., q));
        ``w`` is a GridFunction or a stack, as in ``apply``."""
        if isinstance(w, np.ndarray):
            hphi = self._stack_hphi(w)
            return self._fold_all(w, self._reverse) + hphi
        self._check_grid(w)
        best = self._fold_all(w.values, self._reverse) + self._hphi
        return GridFunction(self.grid, best)

    def row(self, nodes, reverse=False):
        """``apply`` (``apply_reverse``) of the stack of delta fields at the
        flat ``nodes`` (0 at the node, +inf elsewhere), bitwise, from the
        kernel row alone.  Field i is finite only at p = nodes[i], so its
        fold at q is min fl(B[p] + c*dev_d) over the offsets d under which
        q reads p: each offset's reader of p (``Grid.readers``) takes that
        candidate, scattered with ``np.minimum.at``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        m = nodes.size
        hphi = self._hphi.reshape(-1)
        sweep = self._reverse if reverse else self._forward
        readers = self.grid.readers(nodes[:, None], sweep.tots[None])
        # B[p] is 0 reversed and 0 + hphi[p] (never -0.0) forward; the zero
        # deviation takes it as it is, as the fold's first group does
        if reverse:
            Bp = np.zeros(m)
        else:
            self._lower_bound(hphi)
            Bp = 0.0 + hphi[nodes]
        cand = Bp[:, None] + self.c * self.devs
        cand[:, 0] = Bp
        best = np.full(self.grid.n_nodes * m, np.inf)
        np.minimum.at(best, readers * m + np.arange(m)[:, None], cand)
        best = best.reshape(self.grid.shape + (m,))
        return best + self._hphi[..., None] if reverse else best

    def apply_at(self, stack, nodes, fields, reverse=False):
        """Entries (nodes[k], fields[k]) of ``apply(stack)``
        (``apply_reverse``), bitwise, each folded from its own reads: min
        over d of fl(B[read_d(q)] + c*dev_d), since the pruned group fold's
        fl(min_j x_j + c) is min_j fl(x_j + c).  The pairs are taken in
        chunks of at most ``_ENTRIES`` reads.  NaN anywhere in B raises, as
        in ``apply``."""
        hphi = self._stack_hphi(stack)
        B = stack if reverse else stack + hphi
        self._lower_bound(B)
        nodes = np.asarray(nodes, dtype=np.int64)
        fields = np.asarray(fields, dtype=np.int64)
        sweep = self._reverse if reverse else self._forward
        cdevs = self.c * self.devs[1:]
        flat, m = B.reshape(-1), B.shape[3]
        out = np.empty(nodes.size)
        step = max(1, _ENTRIES // self.n_offsets)
        for s in range(0, nodes.size, step):
            q, f = nodes[s:s + step], fields[s:s + step]
            vals = flat.take(sweep.halo.read(q[:, None], sweep.tots) * m
                             + f[:, None])
            rest = np.add(vals[:, 1:], cdevs, out=vals[:, 1:])
            np.minimum(vals[:, 0], rest.min(axis=1, initial=np.inf),
                       out=out[s:s + step])
        if reverse:
            out += self._hphi.reshape(-1)[nodes]
        return out

    # -- Howard policy iteration (exact additive eigenvalue) ---------------

    @staticmethod
    def _policy_eval(succ, cost, v_prev=None):
        """Gains, biases and cycles of the policy's functional graph
        succ: q -> p.

        Each cycle's anchor is the node where a walk from the lowest node of
        its basin enters it.  The gain is the cycle's cost summed from the
        anchor, over its length; v is v_prev (0 without it) at the anchor,
        v[succ] = v - (cost - g) around the cycle, and v = cost - g + v[succ]
        off it.  Keeping the previous bias at the anchors is the rule of
        Cochet-Terrasson, Cohen, Gaubert, Mc Gettrick and Quadrat (IFAC
        1998): with 0 there, the biases of successive policies whose cycles
        tie in gain are not comparable, and policy iteration can cycle.  Tree
        nodes are peeled in rounds of in-degree 0 and solved in reverse peel
        order; list ranking orders each cycle from its anchor.  Python loops
        run over rounds and cycles, never over nodes.  Every array is
        node-sized: numpy keeps freed buffers under 1 KiB for reuse, and
        per-round index lists left ~100 KiB of them behind.  The cycles are
        returned by lowest node, each as its nodes from the anchor along
        succ.
        """
        N = succ.size
        node = np.arange(N)
        # Peel: round r takes the nodes left with no predecessor left (level
        # r); the nodes never taken lie on cycles (level -1).
        deg = np.bincount(succ, minlength=N).astype(float)
        level = np.full(N, -1)
        leaf = deg == 0
        n_rounds = 0
        while leaf.any():
            level[leaf] = n_rounds
            deg[leaf] = -1.0
            deg -= np.bincount(succ, weights=leaf, minlength=N)
            leaf = deg == 0
            n_rounds += 1
        on = level < 0
        n_on = np.count_nonzero(on)
        # Min pointer doubling labels each cycle by its lowest node.
        lab, jump, span = node.copy(), succ, 1
        while span < n_on:
            np.minimum(lab, lab[jump], out=lab)
            jump, span = jump[jump], 2 * span
        # entry[q]: the first cycle node on the walk from q.
        entry = np.where(on, node, succ)
        for _ in range(n_rounds.bit_length()):
            entry = entry[entry]
        basin = lab[entry]
        reps = np.flatnonzero(on & (lab == node)).tolist()
        anchor = np.zeros(N, dtype=bool)
        for r in reps:
            anchor[entry[np.argmax(basin == r)]] = True
        # List ranking: dist[q] = steps from cycle node q to its anchor.
        ring = on & ~anchor
        dist = ring.astype(np.int64)
        jump, span = np.where(ring, succ, node), 1
        while span < n_on:
            dist += dist[jump]
            jump, span = jump[jump], 2 * span
        # Slots: each cycle from its anchor, by label, then the tree nodes.
        size = np.bincount(lab, weights=on, minlength=N).astype(np.int64)
        start = np.cumsum(size) - size
        length = np.where(on, size[lab], 1)
        slot = np.where(on, start[lab] + (length - dist) % length,
                        n_on + np.cumsum(~on) - 1)
        order = np.empty(N, dtype=np.int64)
        order[slot] = node
        cost_o = cost[order]
        g_o = np.zeros(N)
        v_o = np.zeros(N)
        cycles = [(int(start[r]), int(size[r])) for r in reps]
        for c0, k in cycles:
            g_o[c0:c0 + k] = float(cost_o[c0:c0 + k].sum()) / k
        # v - (cost - g) summed as v + -(cost - g): the same rounding,
        # signed zeros included.
        steps = np.zeros(N)
        np.negative(cost_o[:-1] - g_o[:-1], out=steps[1:])
        for c0, k in cycles:
            steps[c0] = 0.0 if v_prev is None else v_prev[order[c0]]
            np.cumsum(steps[c0:c0 + k], out=v_o[c0:c0 + k])
        g = g_o[slot[entry]]
        v = v_o[slot]
        w = cost - g
        for r in range(n_rounds - 1, -1, -1):
            np.copyto(v, w + v[succ], where=level == r)
        return g, v, [order[c0:c0 + k] for c0, k in cycles]

    def solve_additive_eigenvalue(self):
        """Exact per-step additive eigenvalue (min cycle mean) of the kernel
        graph, by multichain policy iteration.  Returns (gain array, bias
        GridFunction, info dict); for the strongly connected kernels built
        here the optimal gain is constant and equals min_cycle mean cost.

        Policies are improved on the short stencil first: the leading
        ``info["short_offsets"]`` offsets, the norm groups within one grid
        diagonal.  When a pass there changes no policy, the stencil widens
        once, for good, and the pass reruns on the full stencil from the
        same gain and bias (``_improve``).  The answer cannot depend on the
        short stencil: Howard returns only when a full-stencil pass, with
        the same tolerance and tie rule as a run on the full stencil
        throughout, changes no policy, and a policy that passes that test
        has the optimal gain whichever policies were evaluated before it;
        its bias then solves the optimality equations on the full stencil,
        unique up to a constant where the critical classes are one.  The
        short stencil only chooses the policies on the way there, and so
        the speed.  ``_HOWARD_MAX_ITERS`` caps the evaluations on both
        stencils together.  ``info["iterations"]`` counts every evaluation,
        ``info["short_iterations"]`` those improved on the short stencil
        first, and ``info["offsets_folded"]`` lists the windows each bias
        pass folded, the widening pass included.  Each policy after the
        first is evaluated from the previous bias (``_policy_eval``).
        ``info["critical_cycles"]`` lists the final policy's cycles of gain
        at most fl(g.min() + t), each as its flat nodes from its anchor."""
        grid = self.grid
        N = grid.n_nodes
        sweep = self._forward
        n_short = sweep.bounds[self._short_groups]
        policy = np.zeros(N, dtype=np.int64)  # start with flow-following (offset 0)
        # offset index 0 is the zero deviation (offsets are sorted by norm)
        n_win, short_its = n_short, 0
        folded = []
        v = None
        for it in range(_HOWARD_MAX_ITERS):
            succ = sweep.halo.read(np.arange(N), sweep.tots[policy])
            cost = self._hphi.reshape(-1)[succ] + self.c * self.devs[policy]
            g, v, cycles = self._policy_eval(succ, cost, v)
            if n_win == n_short:
                short_its = it + 1
            # equals g + v under the evaluation equations
            cur_w = cost + v[succ]
            while True:
                change, best_d, n_folded = self._improve(policy, g, v, cur_w,
                                                         n_win)
                folded.append(n_folded)
                if change.any() or n_win == self.n_offsets:
                    break
                n_win = self.n_offsets  # widen once, on the same g and v
            converged = not change.any()
            if converged:
                break
            policy = np.where(change, best_d, policy)
        t = self._howard_tol
        info = {"iterations": it + 1, "converged": converged,
                "short_offsets": n_short, "short_iterations": short_its,
                "gain_spread": float(g.max() - g.min()),
                "offsets_folded": folded,
                "critical_cycles": [c.tolist() for c in cycles
                                    if g[c[0]] <= g.min() + t]}
        return g, GridFunction(grid, v.reshape(grid.shape)), info

    @cached_property
    def _short_groups(self):
        """The norm groups of Howard's short stencil: those within one grid
        diagonal, with ``_deviation_offsets``'s tolerance."""
        group_devs = self.devs[self._forward.bounds[:-1]]
        return int(np.searchsorted(group_devs, self.grid.diagonal + 1e-12,
                                   side="right"))

    def _improve(self, policy, g, v, cur_w, n_win):
        """One Howard improvement pass over the first ``n_win`` offsets
        (whole norm groups) of the forward sweep, from gains g and bias v
        (flat arrays); returns the nodes whose policy changes, their new
        offsets, and the count of windows the bias pass folded.

        Phase 1 improves the gain, phase 2 the bias among gain-optimal
        offsets.  With t = ``_howard_tol``, the gain pass is skipped when
        g.min() >= fl(g.max() - t) and g.max() <= fl(g.min() + t): shifted
        gains and best_g lie in [g.min(), g.max()], so by monotone rounding
        no node is improvable, fl(g - t) <= fl(g.max() - t) <= best_g, and no
        offset is masked, shifted_g <= fl(g.min() + t) <= fl(best_g + t).
        The bias pass stops before the first norm group with lo + C*dev >
        max(best_w), lo = min(v + hphi): each later candidate is +inf
        (gain-masked) or fl(x + C*dev) >= fl(lo + C*dev) > best_w(q) >=
        fl(best_w(q) - t), so the strict improvement rule takes none of
        them, and best_w only falls as groups are folded.  While some node
        has no candidate yet, max(best_w) = inf and nothing is cut."""
        grid, sweep, t = self.grid, self._forward, self._howard_tol
        halo, win, bounds = sweep.halo, sweep.windows, sweep.bounds
        cdevs = self.c * self.devs
        flat_gain = g.min() >= g.max() - t and g.max() <= g.min() + t
        if flat_gain:
            improvable = np.zeros(g.size, dtype=bool)
        else:
            shifted_g = halo.pad(g.reshape(grid.shape))
            best_g = shifted_g[win[0]].copy()
            for w in win[1:n_win]:
                np.minimum(best_g, shifted_g[w], out=best_g)
            improvable = best_g.ravel() < g - t
            gain_cut = best_g + t
        best_w = np.full(grid.shape, np.inf)
        thr = np.full(grid.shape, np.inf)  # best_w - t
        best_d = policy.reshape(grid.shape).copy()
        cand = np.empty(grid.shape)
        take = np.empty(grid.shape, dtype=bool)
        # gather(v + hphi) prices cost + bias together; the halo holds
        # every node, so its minimum is min(v + hphi).
        shifted_vb = halo.pad(v.reshape(grid.shape) + self._hphi)
        lo = shifted_vb.min()
        n_folded = n_win
        for grp, cdev in enumerate(sweep.cdevs):
            if bounds[grp] == n_win:
                break
            if lo + cdev > best_w.max():
                n_folded = bounds[grp]
                break
            for d_idx in range(bounds[grp], bounds[grp + 1]):
                w = win[d_idx]
                np.add(shifted_vb[w], cdevs[d_idx], out=cand)
                if not flat_gain:
                    np.copyto(cand, np.inf,
                              where=~(shifted_g[w] <= gain_cut))
                np.less(cand, thr, out=take)
                if np.count_nonzero(take):
                    np.copyto(best_w, cand, where=take)
                    np.copyto(best_d, d_idx, where=take)
                    np.subtract(cand, t, out=thr, where=take)
        change = improvable | (best_w.ravel() < cur_w - 10 * t)
        return change, best_d.ravel(), n_folded

    @cached_property
    def _howard_tol(self):
        """Howard's tolerance t: _HOWARD_TOL relative to max(1, |h*phi|)."""
        return _HOWARD_TOL * max(1.0, float(np.abs(self._hphi).max()))

    def saturated_edges(self, bias, gain):
        """The edges q -> p (q reads p) that a converged Howard bias v
        saturates: fl(v(p) + h*phi(p) + C*dev) <= fl(v(q) + gain + 10 t),
        with 10 t Howard's improvement threshold.  Returns the flat (q, p)
        arrays.  One window per offset, as in the bias pass; the norm groups
        with lo + C*dev above every threshold, lo = min(v + h*phi), are not
        folded, since by monotone rounding none of their candidates is
        saturated."""
        sweep = self._forward
        v = bias.values
        thr = v + (gain + 10 * self._howard_tol)
        shifted = sweep.halo.pad(v + self._hphi)
        lo, top = shifted.min(), thr.max()
        cdevs = self.c * self.devs
        cand = np.empty(self.grid.shape)
        hit = np.empty(self.grid.shape, dtype=bool)
        readers, offsets = [], []
        for grp, cdev in enumerate(sweep.cdevs):
            if lo + cdev > top:
                break
            for d in range(sweep.bounds[grp], sweep.bounds[grp + 1]):
                np.add(shifted[sweep.windows[d]], cdevs[d], out=cand)
                np.less_equal(cand, thr, out=hit)
                q = np.flatnonzero(hit)
                readers.append(q)
                offsets.append(np.full(q.size, d))
        q, d = np.concatenate(readers), np.concatenate(offsets)
        return q, sweep.halo.read(q, sweep.tots[d])


def discretization(model, grid, h=None):
    """The grid and kernel step h of a run; h defaults to roof/10 snapped down
    to a multiple (at least one) of the grid's s-spacing.  Raises ValueError
    when h breaks a condition of ``build_kernel``."""
    if h is None:
        ds = grid.spacings[2]
        h = ds * max(1, int((model.roof / 10.0) / ds))
    _flow_steps(model, grid, h)
    return grid, h


def _flow_steps(model, grid, h):
    """The s-layers one kernel step h moves, under ``build_kernel``'s
    conditions on h: above 0 and at most roof/10, and an exact multiple of
    the grid's s-spacing so the flow step is a lattice map."""
    # Negated comparison: NaN fails it too.
    if not 0 < h <= model.roof / 10 + 1e-12:
        raise ValueError(f"kernel step h = {h:g} must be a number above 0 "
                         f"and at most roof/10 = {model.roof / 10:g}")
    k = h / grid.spacings[2]
    if abs(k - round(k)) > 1e-9:
        raise AlignmentError(f"kernel step h = {h:g} must be an integer "
                             f"multiple of the s-spacing {grid.spacings[2]:g}")
    return int(round(k))


def build_kernel(grid, model, phi, c, phi_bar, h, reach_multiplier=2.0):
    """Build the one-step min-plus kernel; see module docstring for the cost.

    Requires 0 < h <= roof/10 and h an exact multiple of the grid's
    s-spacing so the flow step is a lattice map.
    """
    if not isinstance(model, SuspensionFlow):
        raise NotImplementedError(
            "kernels are implemented for suspension grids; wrap user fields in "
            "a suspension-aligned model or use the path-sampling action instead")
    flow_steps = _flow_steps(model, grid, h)
    # Negated comparisons: NaN fails them too.
    if not 2.0 <= reach_multiplier < np.inf:
        raise ValueError("reach_multiplier must be a finite number >= 2")
    if not 0.0 <= c < np.inf:
        # Sweeps prune on c*dev being sorted like the norm-sorted offsets.
        raise ValueError("action weight c must be finite and non-negative")
    reach = reach_multiplier * (h * model.sup_norm_bound + grid.diagonal)
    offsets, devs = _deviation_offsets(grid, reach)
    phi_nodes = np.asarray(phi(grid.node_points()), dtype=float)
    if not np.isfinite(phi_nodes).all():
        raise ValueError("observable is not finite at every grid node")
    return ActionKernel(grid=grid, model=model, c=float(c),
                        phi_bar=float(phi_bar), h=float(h), reach=float(reach),
                        offsets=offsets, devs=devs, flow_steps=flow_steps,
                        phi_nodes=phi_nodes)
