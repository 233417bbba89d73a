import numpy as np
import pytest

from weakkam import (Grid, SuspensionFlow, build_atlas, build_kernel,
                     coboundary_observable, weak_kam_solve)


@pytest.fixture(scope="session")
def model():
    return SuspensionFlow()


@pytest.fixture(scope="session")
def cobound(model):
    return coboundary_observable(model)


@pytest.fixture(scope="session")
def small_grid(model):
    return Grid((8, 8, 10), (1.0, 1.0, model.roof), model.base_matrix)


@pytest.fixture(scope="session")
def medium_grid(model):
    return Grid((16, 16, 10), (1.0, 1.0, model.roof), model.base_matrix)


@pytest.fixture(scope="session")
def small_kernel(model, cobound, small_grid):
    phi, _ = cobound
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    return build_kernel(small_grid, model, phi, c, 0.0, small_grid.spacings[2],
                        2.0)


@pytest.fixture(scope="session")
def atlas(model):
    return build_atlas(model, 1.0, 0.25, 0.25)


@pytest.fixture(scope="session")
def medium_solution(model, cobound, medium_grid):
    phi, _ = cobound
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    kern = build_kernel(medium_grid, model, phi, c, 0.0,
                        medium_grid.spacings[2], 2.0)
    return weak_kam_solve(kern), kern
