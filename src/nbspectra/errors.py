"""Exception hierarchy shared by all nbspectra modules.

Each class carries the CLI exit code it maps to: 2 for a parameter or
domain error, 3 for a parse error, 4 for numerical non-convergence.
"""


class NbspectraError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


# graph construction / validation

class SelfLoopError(NbspectraError):
    """An edge (u, u) was supplied."""


class DuplicateEdgeError(NbspectraError):
    """The same undirected edge appeared more than once."""


class NodeOutOfRangeError(NbspectraError):
    """An edge endpoint lies outside [0, n)."""


class GraphFormatError(NbspectraError):
    """An edge-list or labels file could not be parsed."""

    exit_code = 3


# operator construction / linear algebra

class LengthMismatchError(NbspectraError):
    """A vector has the wrong length for the operation."""


class ShapeMismatchError(NbspectraError):
    """Operands have incompatible shapes."""


class DegreeTooSmallError(NbspectraError):
    """A node of degree < 2 makes the requested operator undefined."""


class NoConvergenceError(NbspectraError):
    """An iterative routine hit its iteration cap before converging."""

    exit_code = 4


class DimensionCapError(NbspectraError):
    """The matrix exceeds the configured dense-decomposition cap."""


class InsufficientRealRitzError(NbspectraError):
    """Fewer real Ritz values stabilized than were requested, or the last
    one stabilized below the modulus floor of the block.

    The block iteration attaches its partial result as ``found``: the j
    leading pairs that held in its final sweep, j as the message names it
    (all k when the k-th stabilized below the floor).
    """

    exit_code = 4

    def __init__(self, message, found=None):
        super().__init__(message)
        self.found = found


class NotEnoughPositiveRealsError(NbspectraError):
    """The spectrum does not contain the requested number of positive reals.

    When j >= 1 usable pairs were found, the j-dimensional real eigenbasis
    assembled from them is attached as the ``basis`` attribute.
    """

    exit_code = 4

    def __init__(self, message, basis=None):
        super().__init__(message)
        self.basis = basis


class DegenerateBilinearFormError(NbspectraError):
    """The reversal pairing z'Vz vanishes, or the left/right pairing matrix
    is numerically singular."""

    exit_code = 4


class RankDeficientError(NbspectraError):
    """A matrix required to have full column rank does not."""


# parameters and bookkeeping

class BadParameterError(NbspectraError):
    """A numeric parameter violates its documented constraints."""


class EmptyCoreError(NbspectraError):
    """The 2-core of a sampled graph is empty."""


class CountMismatchError(NbspectraError):
    """Two sequences that must have equal length do not."""


class DegenerateInputError(NbspectraError):
    """Clustering input has fewer distinct points than clusters."""


class IsolatedNodeError(NbspectraError):
    """A node without incident edges reached an edge-aggregation step."""
