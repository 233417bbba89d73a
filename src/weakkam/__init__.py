"""Numerical weak-KAM toolkit for hyperbolic suspension flows.

Core pipeline: build a suspension model, estimate the ergodic minimizing
value of an observable, solve for a discrete weak-KAM fixed point, smooth it
into a certified subaction, and verify the supporting geometric machinery
(flow-box atlases, shadowing, weighted-action lower bounds).
"""

# numpy loads np.random, and np.ma (which np.unique reads), on first use.
# Every command needs both, so they load with the package, not inside the
# first stage that happens to touch them.
import numpy.ma as _ma  # noqa: F401
import numpy.random as _random  # noqa: F401

from .models import (HorizonError, HyperbolicityData, Observable,
                     SuspensionFlow, birkhoff_integral, periodic_orbits)
from .observables import (BUILTIN_FAMILIES, GluePotential,
                          coboundary_observable, constant_observable,
                          distance_squared_observable, make_observable,
                          smoothstep, smoothstep_prime)
from .grid import Grid, GridFunction
from .kernel import ActionKernel, AlignmentError, build_kernel
from .laxoleinik import (NonConvergenceError, WeakKamSolution,
                         ergodic_value, verify_apriori,
                         verify_integrated_subaction, weak_kam_solve)
from .charts import (AtlasConstants, FlowBox, FlowBoxAtlas,
                     LocalHyperbolicMap, affine_poincare, build_atlas,
                     check_constants, default_hyper_constants, poincare_map,
                     return_time)
from .shadowing import (ConstantsTooWeakError, EscapeError,
                        NewtonDivergenceError, ShadowingResult,
                        estimate_k_gamma, k_gamma_from_maps,
                        lattice_box_chains, pseudo_orbit_suite,
                        shadow_periodic)
from .livsic import (LivsicConstants, PathSample, SegmentClassification,
                     UncoveredStartError, check_factorization,
                     classify_segment, compute_constants, decompose_path,
                     factor_pseudo_orbit, generate_paths,
                     livsic_lower_bound_scan, weighted_action)
from .regularize import (BumpPair, Cover, CoverGapError, NotSubactionError,
                         SubactionCertificate, default_cover,
                         lie_derivative_field, regularize_all,
                         regularize_once, verify_subaction)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
