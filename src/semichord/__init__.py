"""Identities, solvers and constructions for polygons inscribed in a
semicircle whose longest side is the diameter."""

from .errors import (
    ConvergenceError,
    DomainError,
    IndexRangeError,
    InvalidAnglesError,
    ParseError,
    PlacementError,
    SemichordError,
    WriteError,
)
from .fuzz import (
    FuzzConfig,
    FuzzFailure,
    FuzzReport,
    SplitMix64,
    random_angles,
    run_fuzz,
)
from .geometry import (
    CentralAngles,
    ChordSet,
    InscribedPolygon,
    chord_from_angle,
    diagonal,
    mirror,
    side_lengths,
    vertices_from_angles,
)
from .identity import (
    CrossTerm,
    IdentityReport,
    corner_identity_residual,
    evaluate_general,
    nested_quadrilateral_check,
    rhs_hexagon,
    rhs_pentagon,
    rhs_quadrilateral,
)
from .quads import (
    CounterexampleReport,
    QuadArrangement,
    closing_side,
    counterexample_report,
    diameter_cubic,
    enumerate_incongruent_quads,
)
from .solver import (
    DiameterSolution,
    arc_sum,
    arcs_from_sides,
    inscribe_from_sides,
    solve_diameter,
)
from .svg import polygon_svg

__version__ = "0.1.0"

__all__ = [
    "CentralAngles",
    "ChordSet",
    "ConvergenceError",
    "CounterexampleReport",
    "CrossTerm",
    "DiameterSolution",
    "DomainError",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzReport",
    "IdentityReport",
    "IndexRangeError",
    "InscribedPolygon",
    "InvalidAnglesError",
    "ParseError",
    "PlacementError",
    "QuadArrangement",
    "SemichordError",
    "SplitMix64",
    "WriteError",
    "arc_sum",
    "arcs_from_sides",
    "chord_from_angle",
    "closing_side",
    "corner_identity_residual",
    "counterexample_report",
    "diagonal",
    "diameter_cubic",
    "enumerate_incongruent_quads",
    "evaluate_general",
    "inscribe_from_sides",
    "mirror",
    "nested_quadrilateral_check",
    "polygon_svg",
    "random_angles",
    "rhs_hexagon",
    "rhs_pentagon",
    "rhs_quadrilateral",
    "run_fuzz",
    "side_lengths",
    "solve_diameter",
    "vertices_from_angles",
]
