"""Numerical weak-KAM toolkit for hyperbolic suspension flows.

Core pipeline: build a suspension model, estimate the ergodic minimizing
value of an observable, solve for a discrete weak-KAM fixed point, smooth it
into a certified subaction, and verify the supporting geometric machinery
(flow-box atlases, shadowing, weighted-action lower bounds).
"""

from .models import (HorizonError, HyperbolicityData, Observable,
                     SuspensionFlow, birkhoff_integral, lie_derivative,
                     periodic_orbits)
from .observables import (BUILTIN_FAMILIES, GluePotential,
                          coboundary_observable, constant_observable,
                          distance_squared_observable, grid_table_observable,
                          make_observable, smoothstep, smoothstep_prime)
from .grid import Grid, GridFunction, UnreachableError, path_distance
from .kernel import (ActionKernel, AlignmentError, KernelConnectivityError,
                     build_kernel)
from .laxoleinik import (DriftError, InconsistencyError, NonConvergenceError,
                         WeakKamSolution, cross_validated_ergodic_value,
                         ergodic_value, verify_apriori,
                         verify_integrated_subaction, weak_kam_solve)
from .charts import (AdmissibilityError, AtlasConstants, FlowBox,
                     FlowBoxAtlas, LocalHyperbolicMap, affine_poincare,
                     build_atlas, certify_hyperbolic, check_constants,
                     check_forward_admissible, default_hyper_constants,
                     poincare_map, return_time)
from .shadowing import (ConstantsTooWeakError, DiscretePseudoOrbit,
                        EscapeError, NewtonDivergenceError, ShadowingResult,
                        estimate_k_gamma, k_gamma_from_maps,
                        lattice_box_chains, pseudo_orbit_suite,
                        shadow_periodic)
from .livsic import (LivsicConstants, PathSample, SegmentClassification,
                     UncoveredStartError, check_factorization,
                     classify_segment, compute_constants, decompose_path,
                     factor_pseudo_orbit, generate_paths,
                     livsic_lower_bound_scan, weighted_action)
from .regularize import (BumpPair, CoverGapError, NotSubactionError,
                         RegularizerSpec, SubactionCertificate, default_cover,
                         lie_derivative_field, regularize_all,
                         regularize_once, verify_subaction)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
