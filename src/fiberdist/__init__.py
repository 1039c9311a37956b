"""Exact extended distances over coupling fibers.

One minimization scheme, four instances: Hausdorff distance on nonempty
subsets, max and p-power distances on tuples, the Kantorovich distance on
finitely supported probability measures, and the Graev and Swierczkowski
distances on free (and free-abelian) group words.  Each instance pairs a
specialized exact algorithm with a generic brute-force fiber minimum so the
coincidences between them are executable checks.
"""

from .core import (
    FiniteMetricSpace,
    PairTable,
    ParseError,
    PointMap,
    Scalar,
    SpaceValidationError,
    canonical_space_json,
    identity_map,
    parse_scalar,
    point_map,
    space_from_json,
    space_from_obj,
    validate_space,
)
from .extension import EmptyFiberError, ExtensionResult, Functor, extend_generic
from .hyperspace import (
    HyperspaceFunctor,
    Subset,
    SubsetCoupling,
    fiber_subsets,
    hausdorff,
    optimal_coupling,
    sup_lift,
)
from .power import PNorm, PowerFunctor, fiber_tuples, power_distance, power_lift
from .transport import (
    Distribution,
    TransportFunctor,
    TransportPlan,
    distribution,
    dual_certificate,
    fiber_vertices,
    glue_plans,
    integrate,
    kantorovich,
    point_mass,
    transport_plan,
)
from .words import (
    GroupWord,
    PointedSpace,
    ProperRepresentationPair,
    WordsFunctor,
    enumerate_proper_representations,
    graev_distance,
    letter_sum_lift,
    naive_word_distance,
    pointed_space,
    reduce_letters,
    search_word_distance,
)

__version__ = "0.1.0"
