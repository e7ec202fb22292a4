"""Exception types raised across the package.

Every error is a subclass of GencovError so callers can catch the whole
family with one except clause.
"""


class GencovError(Exception):
    """Base class for all errors raised by this package."""


# ---- structure and design construction ----

class LengthMismatch(GencovError):
    """v and k have different lengths."""


class NonPositiveEntry(GencovError):
    """A part size, profile entry, lambda or count is not a positive integer,
    or a search budget is not a number: a node count that is not an
    integer, or a timeout that is not a real number or is NaN."""


class ProfileExceedsPart(GencovError):
    """Some k_i > v_i."""


class StrengthTooLarge(GencovError):
    """Requested strength t is not an integer in 0..k_sum, or exceeds what
    an operation on a design of that strength keeps valid."""


class StructureMismatch(GencovError):
    """Two objects that must share a part structure do not, or an
    operation that takes a PartStructure (or emit_design, which takes a
    design) is given some other object."""


class LabelOutOfRange(GencovError):
    """A point label falls outside 1..v_i for its part."""


# ---- covering array conversion ----

class EntryOutOfAlphabet(GencovError):
    """An array entry is not in the declared column alphabet."""


class NotUnitProfile(GencovError):
    """Conversion to a covering array requires k = (1,...,1)."""


# ---- bounds ----

class ParameterOrderViolated(GencovError):
    """Classical parameters must satisfy v >= k >= t >= 1."""


class SinglePart(GencovError):
    """The multipartite edge bound needs at least two parts."""


class StrengthExceedsParts(GencovError):
    """The nested-ceiling bound needs t <= m."""


class CertificateInvalid(GencovError):
    """A design built to certify an upper bound failed verification."""


class BudgetExhausted(GencovError):
    """A search's timeout ran out before it held any design: while its
    coverage tables were built.  A search that holds a design returns it
    instead, with status "budget-exhausted"."""


# ---- transformations ----

class ProfileBelowTwo(GencovError):
    """Operation requires the touched profile entries to be >= 2."""


class UnitProfilePart(ProfileBelowTwo):
    """The minimax lift, so also the minimax upper bound, needs every k_i >= 2."""


class BasePartTooSmall(GencovError):
    """The base cover has fewer points than the construction needs."""


class EmptyIndexSet(GencovError):
    """Restriction requires a nonempty index set."""


class DegenerateRestriction(GencovError):
    """Restriction to a single unit-profile part carries no obligations."""


class TargetBelowProfile(GencovError):
    """Point deletion cannot shrink a part below its profile."""


class TargetExceedsPart(GencovError):
    """Block expansion cannot grow a profile beyond its part size."""


class InvalidInput(GencovError):
    """The input design fails verification where a valid one is required."""


class PlaceholdersPresent(GencovError):
    """The operation needs a fully filled design, not placeholder blocks."""


# ---- products ----

class StrengthMismatch(GencovError):
    """Product inputs must have equal strength."""


class PartCountMismatch(GencovError):
    """Componentwise product inputs must have the same number of parts."""


class StrengthNotTwo(GencovError):
    """Operation is defined for strength-2 designs only."""


# ---- verification ----

class UniverseTooLarge(GencovError):
    """A pattern has more admissible tuples than the verifier will count."""


# ---- search ----

class CandidateSpaceTooLarge(GencovError):
    """The candidate block space or its coverage tables exceed a size cap."""


# ---- file format ----

class DesignSyntaxError(GencovError):
    """Malformed design document; carries line and column."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class DesignSemanticError(GencovError):
    """Well-formed document with inconsistent content (bad label, wrong part size)."""

    def __init__(self, message, line=None):
        super().__init__(message + (f" (line {line})" if line is not None else ""))
        self.line = line
