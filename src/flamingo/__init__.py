"""Exact jellyfish invariants of ordered set partitions.

The package constructs signed sums of maximal-minor products attached to an
ordered set partition at a chosen depth, relates them to cap-and-wedge
expressions in an exterior algebra, tests membership and independence inside
the matching polynomial module, and draws the associated tensor diagrams.
All arithmetic is exact integer arithmetic.
"""

from .invariants import jellyfish_invariant, verify_block_reorder
from .partitions import (
    OrderedSetPartition,
    enumerate_noncrossing,
    enumerate_ordered_partitions,
    enumerate_unordered_partitions,
    is_noncrossing,
    parse_partition,
)
from .polynomials import ColumnCollision, MatrixPolynomial, minor
from .tableaux import JellyfishTableau, enumerate_tableaux, tableau_count
from .grassmann import Extensor, cap, compare_up_to_sign, gc_jellyfish, phi, phi_star
from .diagrams import TensorDiagram, build_tensor_diagram, export
from .specht import SpechtShape, exact_rank, hook_family, membership_test, spanning_rank
from .relations import (
    recurrence_terms,
    resolve_crossing_r1,
    verify_recurrence,
    verify_three_term,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnCollision",
    "Extensor",
    "JellyfishTableau",
    "MatrixPolynomial",
    "OrderedSetPartition",
    "SpechtShape",
    "TensorDiagram",
    "build_tensor_diagram",
    "cap",
    "compare_up_to_sign",
    "enumerate_noncrossing",
    "enumerate_ordered_partitions",
    "enumerate_tableaux",
    "enumerate_unordered_partitions",
    "exact_rank",
    "export",
    "gc_jellyfish",
    "hook_family",
    "is_noncrossing",
    "jellyfish_invariant",
    "membership_test",
    "minor",
    "parse_partition",
    "phi",
    "phi_star",
    "recurrence_terms",
    "resolve_crossing_r1",
    "spanning_rank",
    "tableau_count",
    "verify_block_reorder",
    "verify_recurrence",
    "verify_three_term",
]
