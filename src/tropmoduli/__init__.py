"""Exact-arithmetic toolkit for tropical moduli strata and wall crossings.

Submodules:
  exact_linalg  rational linear algebra, Smith normal form, LP feasibility
  polyhedral    abstract polyhedral complexes, stars, harmonicity, skeletons
  tropcurve     tropical curves, balancing, realization, stabilization
  moduli        strata, canonical types, resolutions, enumeration, wall graph
  family        families over a base complex, the induced map, wall verdicts
  records       value equality and hashing for the plain slotted records
  documents     JSON document schemas ("tropmoduli/1")
  cli           command-line front end
"""

from .exact_linalg import smith_normal_form, is_saturated, primitive_vector, \
    strict_positive_combination
from .polyhedral import (
    Face,
    FaceInclusion,
    Harmonicity,
    PIAMap,
    Polyhedron,
    PolyhedralComplex,
    SemistablePairData,
    StarData,
    Stratum,
    build_skeleton,
    harmonicity_at,
    star,
    validate_complex,
)
from .tropcurve import (
    CombinatorialType,
    ParameterizedTropicalCurve,
    TropicalCurve,
    WeightedGraph,
    check_balanced,
    genus,
    is_stable,
    realize,
    stabilize,
)
from .moduli import (
    StratumDescriptor,
    TypeIso,
    WallClass,
    WallClassification,
    WallGraph,
    automorphisms,
    canonical_form,
    canonical_string,
    classify,
    connected_through_walls,
    contract,
    contract_any_slope,
    dim_stratum,
    enumerate_types,
    is_adjacent,
    resolve_4valent,
    stratum,
    wall_graph,
)
from .family import (
    AffineFn,
    AffineMapN,
    Contraction,
    FaceCurveData,
    FamilyDatum,
    InducedMap,
    WallVerdict,
    WallVerdictKind,
    fiber,
    image_strata,
    induced_alpha,
    propagate_closure,
    validate_family,
    wall_verdict,
)

__version__ = "0.1.0"
