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

Sweeps prune the stencil exactly.  With lo, hi the minimum and maximum of the
shifted array B, only the prefix of the norm-sorted offsets with
not (lo + C*dev > hi) is folded: a pruned candidate is
fl(B[p] + C*dev) >= fl(lo + C*dev) > hi >= B[p0], the zero-deviation
candidate, because rounding is monotone.  If B holds +-inf the test is false
and nothing is pruned.  Offsets of equal norm are folded together, the
minimum of their windows first and C*dev added once, exact for the same
reason.  NaN input raises ``ValueError``.

The observable is priced at the segment's earlier endpoint p.  This makes the
one-step defect of the semigroup law second order in h (the two-step and
one-step compositions share every term except a single phi difference along
the flow), which is what the consistency tests measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, GridFunction, Halo
from .models import Observable, SuspensionFlow


class KernelConnectivityError(RuntimeError):
    pass


class AlignmentError(ValueError):
    """Kernel step h must be an integer multiple of the s-spacing."""


def _deviation_offsets(grid: Grid, reach):
    """Integer offsets with physical norm <= reach, deterministically ordered."""
    rad = [int(np.floor(reach / s)) for s in grid.spacings]
    cand = []
    for a in range(-rad[0], rad[0] + 1):
        for b in range(-rad[1], rad[1] + 1):
            for c in range(-rad[2], rad[2] + 1):
                d = np.linalg.norm([a * grid.spacings[0], b * grid.spacings[1],
                                    c * grid.spacings[2]])
                if d <= reach + 1e-12:
                    cand.append((d, a, b, c))
    cand.sort()
    offsets = np.array([(a, b, c) for (_, a, b, c) in cand], dtype=np.int64)
    devs = np.array([d for (d, _, _, _) in cand])
    return offsets, devs


@dataclass(frozen=True)
class _Sweep:
    """One stencil's halo and windows; group g is offsets bounds[g]:bounds[g+1],
    all of norm-price cdevs[g], and group 0 is the zero deviation alone."""

    halo: Halo
    windows: list
    bounds: list
    cdevs: np.ndarray


@dataclass
class ActionKernel:
    """Shift-form min-plus kernel on a roof-twisted suspension grid."""

    grid: Grid
    model: SuspensionFlow
    phi: Observable
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
        return ActionKernel(grid=self.grid, model=self.model, phi=self.phi,
                            c=self.c, phi_bar=float(phi_bar), h=self.h,
                            reach=self.reach, offsets=self.offsets,
                            devs=self.devs, flow_steps=self.flow_steps,
                            phi_nodes=self.phi_nodes)

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
        return _Sweep(halo, [halo.window(t) for t in tots], bounds.tolist(),
                      (self.c * self.devs)[bounds[:-1]])

    @cached_property
    def _forward(self):
        return self._sweep(self._total_offsets())

    @cached_property
    def _reverse(self):
        return self._sweep(-self._total_offsets())

    @staticmethod
    def _fold(B, sweep):
        """min over the stencil of shift(B) + c*dev, pruned exactly."""
        lo, hi = B.min(), B.max()
        if np.isnan(lo):
            raise ValueError("kernel input field holds NaN")
        P = sweep.halo.pad(B)
        win, bounds = sweep.windows, sweep.bounds
        best = P[win[0]].copy()
        tmp = np.empty_like(best)
        n_groups = np.searchsorted(lo + sweep.cdevs, hi, side="right")
        for g in range(1, n_groups):
            np.copyto(tmp, P[win[bounds[g]]])
            for w in win[bounds[g] + 1:bounds[g + 1]]:
                np.minimum(tmp, P[w], out=tmp)
            np.add(tmp, sweep.cdevs[g], out=tmp)
            np.minimum(best, tmp, out=best)
        return best

    def apply(self, u: GridFunction) -> GridFunction:
        """(T_h u)(q) = min_p u(p) + A_h(p,q); deterministic tie-breaking."""
        if u.grid is not self.grid and u.grid.shape != self.grid.shape:
            raise ValueError("grid mismatch")
        best = self._fold(u.values + self._hphi, self._forward)
        return GridFunction(self.grid, best, u.offset)

    def apply_reverse(self, w: GridFunction) -> GridFunction:
        """(T'_h w)(p) = min_q w(q) + A_h(p,q) (adjoint sweep, for A^t(., q))."""
        best = self._fold(w.values, self._reverse) + self._hphi
        return GridFunction(self.grid, best, w.offset)

    def row_min_bound_check(self):
        """Flow-following entry exists for every p, so every row minimum is at
        most h*sup|phi - phi_bar| (deviation 0).  Returns the certified bound."""
        sup = float(np.abs(self.phi_nodes - self.phi_bar).max())
        return self.h * sup + self.c * self.grid.diagonal

    # -- Howard policy iteration (exact additive eigenvalue) ---------------

    def _policy_eval(self, succ, cost):
        """Gains and biases of the policy's functional graph succ: q -> p."""
        N = succ.size
        g = np.empty(N)
        v = np.empty(N)
        state = np.zeros(N, dtype=np.int8)  # 0 new, 1 on stack, 2 done
        order_pos = np.full(N, -1, dtype=np.int64)
        for start in range(N):
            if state[start] != 0:
                continue
            stack = []
            node = start
            while state[node] == 0:
                state[node] = 1
                order_pos[node] = len(stack)
                stack.append(node)
                node = succ[node]
            if state[node] == 1:
                # Found a new cycle: stack[order_pos[node]:] is the cycle.
                cyc = stack[order_pos[node]:]
                gain = float(cost[cyc].sum()) / len(cyc)
                anchor = cyc[0]
                g[np.array(cyc)] = gain
                v[anchor] = 0.0
                cur = anchor
                for _ in range(1, len(cyc)):
                    nxt = succ[cur]
                    v[nxt] = v[cur] - (cost[cur] - gain)
                    cur = nxt
                state[np.array(cyc)] = 2
            # Unwind the rest of the stack (tree part hanging off the cycle,
            # or off a previously finished component).
            for qq in reversed(stack):
                if state[qq] == 2:
                    continue
                g[qq] = g[succ[qq]]
                v[qq] = cost[qq] - g[qq] + v[succ[qq]]
                state[qq] = 2
        return g, v

    def solve_additive_eigenvalue(self, max_iters=200, tol=1e-13):
        """Exact per-step additive eigenvalue (min cycle mean) of the kernel
        graph, by multichain policy iteration.  Returns (gain array, bias
        GridFunction, info dict); for the strongly connected kernels built
        here the optimal gain is constant and equals min_cycle mean cost.

        Both improvement passes fold the unpruned stencil through the
        forward halo.  When the evaluated gain is exactly constant, every
        shifted gain equals it, so the gain pass is skipped: nothing is
        gain-improvable and every offset is gain-optimal."""
        grid = self.grid
        N = grid.n_nodes
        halo, win = self._forward.halo, self._forward.windows
        tots = self._total_offsets()
        hphi = self._hphi
        cdevs = self.c * self.devs

        policy = np.zeros(N, dtype=np.int64)  # start with flow-following (offset 0)
        # offset index 0 is the zero deviation (offsets are sorted by norm)
        scale = max(1.0, float(np.abs(hphi).max()))
        for it in range(max_iters):
            succ = halo.sources(tots[policy])
            cost = hphi.reshape(-1)[succ] + cdevs[policy]
            g, v = self._policy_eval(succ, cost)
            g3 = g.reshape(grid.shape)
            v3 = v.reshape(grid.shape)
            # Phase 1: gain improvement; Phase 2: bias improvement among
            # gain-optimal offsets.
            flat_gain = g.max() == g.min()
            if flat_gain:
                improvable = np.zeros(N, dtype=bool)
            else:
                shifted_g = halo.pad(g3)
                best_g = shifted_g[win[0]].copy()
                for w in win[1:]:
                    np.minimum(best_g, shifted_g[w], out=best_g)
                improvable = best_g.ravel() < g - tol * scale
                gain_cut = best_g + tol * scale
            best_w = np.full(grid.shape, np.inf)
            best_d = policy.reshape(grid.shape).copy()
            cand = np.empty(grid.shape)
            # gather(v + hphi) prices cost + bias together
            shifted_vb = halo.pad(v3 + hphi)
            for d_idx, w in enumerate(win):
                np.add(shifted_vb[w], cdevs[d_idx], out=cand)
                if not flat_gain:
                    np.copyto(cand, np.inf, where=~(shifted_g[w] <= gain_cut))
                take = cand < best_w - tol * scale
                np.copyto(best_w, cand, where=take)
                best_d[take] = d_idx
            best_w, best_d = best_w.ravel(), best_d.ravel()
            cur_w = cost + v[succ]  # equals g + v under the evaluation equations
            change = improvable | (best_w < cur_w - 10 * tol * scale)
            if not change.any():
                info = {"iterations": it + 1, "converged": True,
                        "gain_spread": float(g.max() - g.min())}
                return g, GridFunction(grid, v3), info
            policy = np.where(change, best_d, policy)
        info = {"iterations": max_iters, "converged": False,
                "gain_spread": float(g.max() - g.min())}
        return g, GridFunction(grid, v3), info


def build_kernel(grid, model, phi, c, phi_bar, h, reach_multiplier=2.0):
    """Build the one-step min-plus kernel; see module docstring for the cost.

    Requires h <= roof/10 and h an exact multiple of the grid's s-spacing so
    the flow step is a lattice map.
    """
    if not isinstance(model, SuspensionFlow):
        raise NotImplementedError(
            "kernels are implemented for suspension grids; wrap user fields in "
            "a suspension-aligned model or use the path-sampling action instead")
    if h > model.roof / 10 + 1e-12:
        raise ValueError("kernel step h must be at most roof/10")
    if reach_multiplier < 2.0:
        raise ValueError("reach_multiplier must be >= 2")
    if not c >= 0.0:
        # Sweeps prune on c*dev being sorted like the norm-sorted offsets.
        raise ValueError("action weight c must be non-negative")
    ds = grid.spacings[2]
    k = h / ds
    if abs(k - round(k)) > 1e-9:
        raise AlignmentError("h must be an integer multiple of the s-spacing")
    reach = reach_multiplier * (h * model.sup_norm_bound + grid.diagonal)
    offsets, devs = _deviation_offsets(grid, reach)
    if offsets.shape[0] == 0:
        raise KernelConnectivityError("empty kernel row: reach too small")
    phi_nodes = np.asarray(phi(grid.node_points()), dtype=float)
    return ActionKernel(grid=grid, model=model, phi=phi, c=float(c),
                        phi_bar=float(phi_bar), h=float(h), reach=float(reach),
                        offsets=offsets, devs=devs, flow_steps=int(round(k)),
                        phi_nodes=phi_nodes)
