"""Error types shared across the package, and every size limit it enforces.

Invalid arguments raise ValueError / KeyError as usual; the three classes
below cover the cases the callers are expected to catch and react to.

A ResourceLimitError is raised on a size predicted from the input (rows of
a dense operator, or the sum |star(v)|^2 bounding L's sparse entries),
before the work it refuses allocates anything.  DEFAULT_EXACT_CAP bounds
the dense exact operators (so also the dual-product check, through L and
g) and the Hodge blocks and Kirchhoff matrix that `spectra` eigensolves;
CHARPOLY_CAP bounds the spectral symmetry check.  Each limit is a constant
here, read at call time by every site.  SIMPLEXION_CAP overrides
DEFAULT_CAP; `barycentric` and `ring_product_complex` take a cap per call.
"""

from __future__ import annotations

import os

DEFAULT_CAP = 5_000_000  # simplices a builder makes (refinement, product, join, closure)
DEFAULT_EXACT_CAP = 3000  # rows of a dense exact operator: simplices, or product cells
ENTRY_CAP = 12_000_000  # predicted entries of L, sum |star(v)|^2, for its sparse factor
DEFAULT_PAIR_CAP = 4500  # intersecting pairs of the interaction cohomology
AUTOMORPHISM_CAP = 8  # vertices of the automorphism search
ALEXANDER_CAP = 16  # ground vertices of the Alexander dual
CHARPOLY_CAP = 300  # rows of the zeta-symmetry charpoly


class ResourceLimitError(RuntimeError):
    """A configurable size cap would be exceeded (not a wrong answer)."""


class NumericError(RuntimeError):
    """A floating-point routine could not certify its tolerance."""


class InvariantViolation(AssertionError):
    """A theorem the library relies on failed on concrete data (a bug,
    or corrupted input); carries a witness for reproduction."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def cap_simplices() -> int:
    """The simplex cap: SIMPLEXION_CAP when set, else DEFAULT_CAP."""
    env = os.environ.get("SIMPLEXION_CAP")
    if env:
        return int(env)
    return DEFAULT_CAP


def check_cap(what: str, predicted: int, cap: int | None = None) -> None:
    """Refuse a predicted simplex count above cap (default cap_simplices())."""
    limit = cap if cap is not None else cap_simplices()
    if predicted > limit:
        raise ResourceLimitError(f"{what} would have {predicted} simplices (cap {limit})")


def check_closure(facets) -> None:
    """Refuse to close facets when sum (2^|f| - 1), an upper bound on the
    closure's size, exceeds cap_simplices()."""
    predicted = sum((1 << len(f)) - 1 for f in facets)
    limit = cap_simplices()
    if predicted > limit:
        raise ResourceLimitError(f"closure could have {predicted} simplices (cap {limit})")


def check_exact(what: str, rows: int, unit: str) -> None:
    """Refuse a dense exact operator of more than DEFAULT_EXACT_CAP rows."""
    if rows > DEFAULT_EXACT_CAP:
        raise ResourceLimitError(
            f"{what} has {rows} {unit}; exact dense cap is {DEFAULT_EXACT_CAP}")
