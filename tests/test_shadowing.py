import numpy as np
import pytest
from scipy.linalg import block_diag

from weakkam import (ConstantsTooWeakError, EscapeError, LocalHyperbolicMap,
                     NewtonDivergenceError,
                     affine_poincare, estimate_k_gamma, k_gamma_from_maps,
                     lattice_box_chains, pseudo_orbit_suite, shadow_periodic)
from weakkam.shadowing import _cyclic_jacobian


def test_estimate_k_gamma(atlas):
    h = atlas.hyper
    k = estimate_k_gamma(h.sigma_u, h.sigma_s, h.eta)
    assert k >= 1.0
    with pytest.raises(ConstantsTooWeakError):
        estimate_k_gamma(1.01, 0.99, 0.1)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_cyclic_jacobian_is_bitwise_block_form(n):
    # At n = 1 the shift block is the diagonal block: J = L - I.
    L = np.random.default_rng(n).normal(size=(n, 2, 2))
    L[0, 0, 1] = -0.0
    J = _cyclic_jacobian(L)
    ref = block_diag(*L) - np.kron(np.roll(np.eye(n), 1, axis=1), np.eye(2))
    assert J.shape == ref.shape
    assert J.tobytes() == ref.tobytes()
    if n == 1:
        assert J.tobytes() == (L[0] - np.eye(2)).tobytes()


def test_lattice_chains_partition_level0(atlas):
    chains = lattice_box_chains(atlas)
    n_level0 = sum(1 for c in atlas.centers if abs(c[2]) < 1e-12)
    covered = [i for cyc, _ in chains for i in cyc]
    assert len(covered) == len(set(covered)) == n_level0
    lengths = sorted(period for _, period in chains)
    assert lengths[0] == 1  # the fixed lattice point at the origin
    assert sum(lengths) == n_level0


def test_chain_maps_have_zero_offset(atlas):
    chains = lattice_box_chains(atlas)
    cyc = max(chains, key=lambda c: c[1])[0]
    for i in range(len(cyc)):
        m = affine_poincare(atlas, cyc[i], cyc[(i + 1) % len(cyc)])
        assert np.abs(m.offset).max() < 1e-12


def _chain_maps(atlas, min_len=3):
    chains = lattice_box_chains(atlas)
    cyc = next(c for c, period in chains if period >= min_len)
    return cyc, [affine_poincare(atlas, cyc[i], cyc[(i + 1) % len(cyc)])
                 for i in range(len(cyc))]


def test_exact_orbit_shadows_itself(atlas):
    cyc, maps = _chain_maps(atlas)
    res = shadow_periodic(np.zeros((len(cyc), 2)), maps, atlas.rho)
    assert res.passed
    assert np.abs(res.orbit).max() < 1e-12
    assert res.error_sum < 1e-14 and res.distance_sum < 1e-12


def test_noisy_orbit_is_shadowed(atlas):
    cyc, maps = _chain_maps(atlas)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1e-3, 1e-3, (len(cyc), 2))
    res = shadow_periodic(pts, maps, atlas.rho)
    assert res.passed
    assert res.distance_sum <= res.k_gamma * res.error_sum + 1e-14
    assert res.residuals.max() < 1e-10
    assert abs(res.k_gamma - k_gamma_from_maps(maps)) < 1e-12


def test_pseudo_orbit_validation(atlas):
    cyc, maps = _chain_maps(atlas)
    for bad in (np.zeros((len(cyc), 3)), np.zeros(2 * len(cyc))):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            shadow_periodic(bad, maps, atlas.rho)
    far = np.full((len(cyc), 2), atlas.rho)  # outside B(rho/2)
    with pytest.raises(ValueError, match="must stay in B"):
        shadow_periodic(far, maps, atlas.rho)


def test_suite_all_pass(atlas):
    results = pseudo_orbit_suite(atlas, 25, seed=3)
    assert len(results) == 25
    assert all(r["passed"] for r in results)
    assert max(r["max_residual"] for r in results) < 1e-10
    assert {r["length"] for r in results} != {1}  # several chain lengths used


def _draws(atlas, n_orbits, seed, noise_range=(1e-6, 1e-2), max_len=50):
    """The suite's pseudo-orbits, (boxes, noise, points), in its rng order."""
    rng = np.random.default_rng(seed)
    chains = lattice_box_chains(atlas, max_len=max_len)
    for _ in range(n_orbits):
        cyc, period = chains[rng.integers(0, len(chains))]
        reps = int(rng.integers(1, max(2, max_len // period + 1)))
        boxes = (cyc * reps)[: period * reps]
        if len(boxes) < 2:
            boxes = boxes * 2
        noise = 10 ** rng.uniform(np.log10(noise_range[0]),
                                  np.log10(noise_range[1]))
        yield boxes, float(noise), rng.uniform(-noise, noise, (len(boxes), 2))


def _image(hmap, q):
    """An affine map's image f(q) = offset + linear_part q."""
    return hmap.offset + q @ hmap.linear_part.T


def _fd_jacobian(hmap, q, fd=1e-7):
    cols = []
    for k in range(2):
        e = np.zeros(2)
        e[k] = fd
        cols.append((_image(hmap, q + e) - _image(hmap, q - e)) / (2 * fd))
    return np.column_stack(cols)


def _oracle_shadow(points, maps, rho, tol=1e-10, max_iters=25):
    """Per-step, per-orbit Newton with finite-difference Jacobians: the
    reference for the chain solver.  Returns the suite's result dict."""
    n = len(points)
    assert np.abs(points).max() <= rho / 2 + 1e-12
    assert all(np.abs(_image(maps[i], points[i])).max() <= rho / 2 + 1e-9
               for i in range(n))
    k_gamma = k_gamma_from_maps(maps)
    p = points.copy()
    for it in range(max_iters):
        F = np.array([_image(maps[i], p[i]) - p[(i + 1) % n]
                      for i in range(n)])
        if np.abs(F).max() < tol:
            break
        J = np.zeros((2 * n, 2 * n))
        for i in range(n):
            J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = _fd_jacobian(maps[i], p[i])
            j = (i + 1) % n
            J[2 * i:2 * i + 2, 2 * j:2 * j + 2] -= np.eye(2)
        p = p + np.linalg.solve(J, -F.ravel()).reshape(n, 2)
        assert np.abs(p).max() <= rho
    else:
        raise AssertionError("oracle did not converge")
    residuals = np.array([np.abs(_image(maps[i], p[i])
                                 - p[(i + 1) % n]).max() for i in range(n)])
    errs = np.array([np.abs(_image(maps[i], points[i])
                            - points[(i + 1) % n]).max() for i in range(n)])
    dist = float(np.abs(points - p).max(axis=1).sum())
    return {"distance_sum": dist, "error_sum": float(errs.sum()),
            "k_gamma": float(k_gamma), "max_residual": float(residuals.max()),
            "newton_iterations": it + 1,
            "passed": bool(dist <= k_gamma * float(errs.sum()) + 1e-14)}


def test_suite_matches_finite_difference_oracle(atlas):
    results = pseudo_orbit_suite(atlas, 200, seed=11)
    maps = {}
    for r, (boxes, noise, pts) in zip(results, _draws(atlas, 200, 11)):
        chain = [maps.setdefault(key, affine_poincare(atlas, *key))
                 for key in zip(boxes, boxes[1:] + boxes[:1])]
        ref = _oracle_shadow(pts, chain, atlas.rho)
        assert (r["length"], r["noise"]) == (len(boxes), noise)
        for key in ("error_sum", "k_gamma", "newton_iterations", "passed"):
            assert r[key] == ref[key], key
        assert abs(r["distance_sum"] - ref["distance_sum"]) \
            <= 1e-10 * ref["distance_sum"]
        assert r["max_residual"] <= ref["max_residual"]
    assert len({r["chain"] for r in results}) > 1


def test_last_newton_step_is_checked(atlas, monkeypatch):
    """One exact solve lands on the orbit, in two residual evaluations; the
    residual after it is checked, so with no residual below a zero tolerance
    the noisy orbit is rejected."""
    import weakkam.shadowing

    cyc, maps = _chain_maps(atlas)
    pts = np.random.default_rng(1).uniform(-1e-3, 1e-3, (len(cyc), 2))
    res = shadow_periodic(pts, maps, atlas.rho)
    assert res.passed and res.residuals.max() < 1e-15
    assert res.newton_iterations == 2
    monkeypatch.setattr(weakkam.shadowing, "_TOL", 0.0)
    with pytest.raises(NewtonDivergenceError, match="after the exact solve"):
        shadow_periodic(pts, maps, atlas.rho)


def _hand_map(linear, offset=(0.0, 0.0)):
    """f(q) = offset + linear q."""
    return LocalHyperbolicMap(linear_part=np.asarray(linear, dtype=float),
                              offset=np.asarray(offset, dtype=float))


# (map factory, error, message, k_gamma) for each failure path:
#  escape: the orbit of q -> (1.2 q0 + 0.1, q1 / 2) is at q0 = -0.5;
#  singular: the identity chain has a singular cyclic system;
#  weak: an unstable rate of 1 gives no shadowing constant;
#  outside: an offset of 0.2 puts every image outside B(rho/2).
FAILURES = {
    "escape": (lambda: _hand_map(np.diag([1.2, 0.5]), (0.1, 0.0)),
               EscapeError, "escaped", None),
    "singular": (lambda: _hand_map(np.eye(2)),
                 NewtonDivergenceError, "singular", 1.0),
    "weak": (lambda: _hand_map(np.diag([1.0, 0.5])),
             ConstantsTooWeakError, "too weak", None),
    "outside": (lambda: _hand_map(np.diag([2.0, 0.5]), (0.2, 0.0)),
                ValueError, "image of point 0 leaves", None),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_shadow_periodic_failure_paths(case, atlas):
    make, error, message, k_gamma = FAILURES[case]
    pts = np.random.default_rng(2).uniform(-1e-2, 1e-2, (3, 2))
    with pytest.raises(error, match=message):
        shadow_periodic(pts, [make()] * 3, atlas.rho, k_gamma=k_gamma)


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_suite_error_names_the_first_failing_orbit(case, atlas, monkeypatch):
    import weakkam.shadowing

    make, error, message, k_gamma = FAILURES[case]
    bad_chain = max(lattice_box_chains(atlas), key=lambda c: c[1])[0]
    real = weakkam.shadowing.affine_poincare

    def patched(atlas, x, y):
        return make() if x in bad_chain else real(atlas, x, y)

    monkeypatch.setattr(weakkam.shadowing, "affine_poincare", patched)
    if k_gamma is not None:
        monkeypatch.setattr(weakkam.shadowing, "k_gamma_from_maps",
                            lambda maps: k_gamma)
    first = next(k for k, (boxes, _, _) in enumerate(_draws(atlas, 60, 4))
                 if boxes[0] in bad_chain)
    assert first > 0
    with pytest.raises(error, match=f"^orbit {first}: .*{message}"):
        pseudo_orbit_suite(atlas, 60, seed=4)
