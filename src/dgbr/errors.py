"""Exception types shared across the package."""
from __future__ import annotations

from dataclasses import dataclass, field


class DgError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(DgError):
    """Operands live over different coefficient fields."""


class ShapeMismatch(DgError):
    """Spaces, degrees or dimensions do not line up."""


class ParseError(DgError):
    """A file or expression could not be parsed.

    ``location`` is a dotted path into the offending document,
    e.g. ``mult[3].out[0]``.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True)
class AxiomViolation:
    """One failed structural axiom, with the basis indices that witness it."""

    axiom: str
    witness: tuple
    detail: str = ""

    def __str__(self):
        head = f"{self.axiom} fails at {self.witness}"
        return f"{head}: {self.detail}" if self.detail else head


class ValidationError(DgError):
    """Raised when structure data fails axiom checks; carries every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:4])
        more = "" if len(self.violations) <= 4 else f" (+{len(self.violations) - 4} more)"
        super().__init__(f"{len(self.violations)} axiom violation(s): {lines}{more}")


@dataclass
class ContainmentCertificate:
    """Evidence that the left ideal of one idempotent sits inside another span."""

    index: int
    ideal_dims: dict = field(default_factory=dict)
    span_dims: dict = field(default_factory=dict)
    contained: bool = True


class NoSuitableIdempotent(DgError):
    """No diagonal idempotent yields a realization; keeps all certificates.

    Either no degree-0 basis element is idempotent (no certificates), every
    candidate e has A*e inside A*d(e), or the chosen e does not split A:
    given ``chosen = (index, label, l_dims, dim)``, the quotient
    L = (A*e + A*d(e)) / A*d(e) has degree dimensions ``l_dims`` whose total
    squared is not ``dim`` = dim A, so no map A -> End(L) can be bijective.
    That happens when e is not primitive (the unit of a split quaternion
    algebra) or when A is not split at all (a division algebra).
    """

    def __init__(self, certificates, chosen=None):
        self.certificates = list(certificates)
        self.chosen = chosen
        if chosen is None and not self.certificates:
            msg = "no degree-0 basis element is idempotent, so there is no candidate"
        elif chosen is None:
            msg = ("every diagonal idempotent e has its left ideal contained in A*d(e); "
                   f"checked {len(self.certificates)} candidates")
        else:
            index, label, l_dims, dim = chosen
            total = sum(l_dims.values())
            msg = (f"diagonal idempotent {index} (basis element {label!r}) does not "
                   f"split A: L has dims {l_dims}, and {total}^2 = {total * total} "
                   f"!= dim A = {dim}, so e is not primitive or A is not split; "
                   f"{len(self.certificates)} candidates rejected before it")
        super().__init__(msg)


class NotCentralSimple(DgError):
    """Operation requires a central simple input algebra."""
