"""simplexion: finite abstract simplicial complexes, their exact invariants,
and the structure theorems they satisfy, each exposed as an executable check.
"""

from .core import (
    Complex,
    close,
    complex_intersection,
    complex_union,
    disjoint_union,
    dim,
    generating_function,
    induced,
    is_whitney,
    join,
    link,
    one_skeleton,
    parity,
    simplex,
    sphere_euler,
    star_down,
    star_up,
    unit_sphere,
    wu_characteristic,
)
from .errors import InvariantViolation, NumericError, ResourceLimitError
from .generators import (
    RandomModel,
    complete,
    cross_polytope,
    cycle,
    erdos_renyi,
    expected_dimension,
    expected_euler,
    icosahedron,
    path,
    ring_product_complex,
    whitney,
)
from .geometry import inductive_dimension
from .refinement import (
    barycentric,
    connection_graph,
    euler_unique_vector,
    stirling_apply,
    stirling_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Complex", "close", "simplex", "dim", "parity", "join", "disjoint_union",
    "link", "unit_sphere", "star_up", "star_down", "induced", "is_whitney",
    "one_skeleton", "generating_function", "inductive_dimension",
    "wu_characteristic", "sphere_euler", "complex_union",
    "complex_intersection",
    "complete", "cycle", "path", "cross_polytope", "icosahedron", "whitney",
    "erdos_renyi", "RandomModel", "expected_dimension", "expected_euler",
    "ring_product_complex",
    "barycentric", "stirling_matrix", "stirling_apply", "euler_unique_vector",
    "connection_graph",
    "ResourceLimitError", "NumericError", "InvariantViolation",
]
