"""Routing and diameter experiments on oriented star interconnection networks."""

from .classify import ClassifiedSets, classify, crossing_load, is_alternating
from .harness import (
    ALL_CHECKS,
    CheckResult,
    DiameterRow,
    LowerBoundReport,
    VerificationReport,
    Violation,
    diameter_table,
    format_table,
    hop_cap,
    lower_bound_check,
    verify,
    witness,
)
from .oracle import (
    DistanceField,
    DiameterResult,
    bfs,
    diameter,
    distance,
    distance_fields,
    rank,
    unrank,
)
from .perm import (
    CycleDecomposition,
    Perm,
    apply_generator,
    compose,
    cycles,
    format_perm,
    identity,
    inverse,
    parity,
    parse_perm,
    relative_cycles,
)
from .routing import (
    MoveKind,
    PhaseReport,
    RouteTrace,
    RoutingInvariantError,
    check_phase_invariants,
    classic_distance,
    classic_distance_sets,
    classic_route,
    classic_step,
    hop_bound,
    oriented_route,
    oriented_step,
    validate_trace,
)
from .topology import (
    Direction,
    HalfBoundary,
    Scheme,
    arc_direction,
    boundary,
    in_neighbors,
    neighbors,
    out_neighbors,
)

__version__ = "0.1.0"
