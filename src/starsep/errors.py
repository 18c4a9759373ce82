"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes (see cli.py); library code
raises them directly.
"""


class StarsepError(Exception):
    """Base class for all library errors."""


class InputError(StarsepError, ValueError):
    """Malformed input or a violated operation precondition."""


class NotAMember(InputError):
    """The input graph is outside the class; carries the
    ObstructionReport that names the first obstruction found."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class CapacityError(StarsepError):
    """Instance exceeds a desk-scale cap: the exact oracle's vertex cap
    (treewidth.EXACT_TW_CAP) or the vertex count a graph file may hold
    (graph_core.MAX_VERTICES, the graph6 limit)."""


class HypothesisViolation(StarsepError):
    """A runtime-verified conclusion failed.

    Raised when a construction that is guaranteed on in-class inputs does
    not verify; it diagnoses an out-of-class input (or an implementation
    bug) and carries a concrete witness.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SamplingError(StarsepError):
    """Random sampling exhausted its budget; carries attempt statistics."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = dict(stats or {})
