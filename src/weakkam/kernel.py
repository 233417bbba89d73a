"""One-step min-plus action kernels on suspension grids.

A kernel entry prices the move p -> q over one time step h:

    A_h(p, q) = h*(phi(p) - phi_bar) + C * || (q - p) - h V ||

where the difference is taken in the lifted (roof-glued) coordinates.  On a
suspension grid with h an exact multiple of the s-spacing, the map q -> p is a
pure index shift for every deviation offset, so applying the operator is a
minimum of shifted copies of one base array.  No cost matrix is materialized;
memory stays O(grid size) for any reach.

The observable is priced at the segment's earlier endpoint p.  This makes the
one-step defect of the semigroup law second order in h (the two-step and
one-step compositions share every term except a single phi difference along
the flow), which is what the consistency tests measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction
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

    def apply(self, u: GridFunction) -> GridFunction:
        """(T_h u)(q) = min_p u(p) + A_h(p,q); deterministic tie-breaking."""
        if u.grid is not self.grid and u.grid.shape != self.grid.shape:
            raise ValueError("grid mismatch")
        B = u.values + self.h * (self.phi_nodes - self.phi_bar)
        best = None
        for tot, dev in zip(self._total_offsets(), self.devs):
            cand = self.grid.gather_shift(B, tot)
            if dev != 0.0:
                cand += self.c * dev
            best = cand if best is None else np.minimum(best, cand)
        return GridFunction(self.grid, best, u.offset)

    def apply_reverse(self, w: GridFunction) -> GridFunction:
        """(T'_h w)(p) = min_q w(q) + A_h(p,q) (adjoint sweep, for A^t(., q))."""
        best = None
        for tot, dev in zip(self._total_offsets(), self.devs):
            cand = self.grid.gather_shift(w.values, [-v for v in tot])
            if dev != 0.0:
                cand += self.c * dev
            best = cand if best is None else np.minimum(best, cand)
        best = best + self.h * (self.phi_nodes - self.phi_bar)
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
        here the optimal gain is constant and equals min_cycle mean cost."""
        grid = self.grid
        N = grid.n_nodes
        node_id = np.arange(N, dtype=np.int64).reshape(grid.shape)
        tots = self._total_offsets()
        hphi = self.h * (self.phi_nodes - self.phi_bar)
        # succ_flat[d] and edge cost arrays are produced per offset on demand.
        succ_tabs = {}

        def succ_of(d_idx):
            if d_idx not in succ_tabs:
                succ_tabs[d_idx] = grid.gather_shift(node_id, tots[d_idx]).ravel()
            return succ_tabs[d_idx]

        def cost_of(d_idx):
            return (grid.gather_shift(hphi, tots[d_idx])
                    + self.c * self.devs[d_idx]).ravel()

        policy = np.zeros(N, dtype=np.int64)  # start with flow-following (offset 0)
        # offset index 0 is the zero deviation (offsets are sorted by norm)
        scale = max(1.0, float(np.abs(hphi).max()))
        for it in range(max_iters):
            succ = np.empty(N, dtype=np.int64)
            cost = np.empty(N)
            for d_idx in np.unique(policy):
                sel = policy == d_idx
                succ[sel] = succ_of(int(d_idx))[sel]
                cost[sel] = cost_of(int(d_idx))[sel]
            g, v = self._policy_eval(succ, cost)
            g3 = g.reshape(grid.shape)
            v3 = v.reshape(grid.shape)
            # Phase 1: gain improvement; Phase 2: bias improvement among
            # gain-optimal offsets.
            best_g = None
            for d_idx in range(self.n_offsets):
                cand = self.grid.gather_shift(g3, tots[d_idx]).ravel()
                best_g = cand if best_g is None else np.minimum(best_g, cand)
            improvable = best_g < g - tol * scale
            best_w = np.full(N, np.inf)
            best_d = policy.copy()
            vb = v3 + hphi  # gather(v + hphi) prices cost + bias together
            for d_idx in range(self.n_offsets):
                gs = self.grid.gather_shift(g3, tots[d_idx]).ravel()
                cand = (self.grid.gather_shift(vb, tots[d_idx]).ravel()
                        + self.c * self.devs[d_idx])
                cand = np.where(gs <= best_g + tol * scale, cand, np.inf)
                take = cand < best_w - tol * scale
                best_w = np.where(take, cand, best_w)
                best_d = np.where(take, d_idx, best_d)
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
