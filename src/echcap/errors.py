"""Exception types shared across the package."""


class EchcapError(Exception):
    """Base class for errors raised by this package."""


class MismatchedIndexOrigin(EchcapError):
    """Raised when sequences with incompatible index origins are combined."""


class ApproxTie(EchcapError):
    """An approximate comparison could not be resolved within error bounds.

    The caller must recompute with tighter error bounds (or exact inputs)
    before the comparison can be decided.
    """


class ToricEnumerationBudgetExceeded(EchcapError):
    """The polygon search exceeded its configured node limit.

    Carries the node limit, the lattice-point cap and the perimeter budget
    of the search that ran out, the nodes it had visited when it stopped,
    and how far it got: directions_done of directions_total edge directions
    were complete.
    """

    def __init__(self, node_limit: int, max_count: int, budget: float,
                 nodes: int, directions_done: int, directions_total: int):
        super().__init__(node_limit, max_count, budget, nodes,
                         directions_done, directions_total)
        self.node_limit = node_limit
        self.max_count = max_count
        self.budget = budget
        self.nodes = nodes
        self.directions_done = directions_done
        self.directions_total = directions_total

    def __str__(self) -> str:
        return (f"polygon search exceeded its node limit of {self.node_limit} "
                f"(lattice-point cap {self.max_count}, "
                f"perimeter budget {self.budget:.12g})")


class NotPrimitive(EchcapError):
    """Raised for Reeb orbit queries on non-primitive (m, n)."""


class SpecParseError(EchcapError):
    """A textual domain spec failed to parse.

    Carries the character position of the failure for CLI error messages.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
