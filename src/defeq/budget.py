"""Work budgets for the exhaustive searches.

Every enumeration in this package is finite but potentially explosive
(2**(n**k) relation tables, n**(n**k) function tables, prod(|M_i|) choice
functions).  A WorkBudget caps how many candidates a search may visit;
crossing the cap raises BudgetExceededError instead of hanging.
"""

from __future__ import annotations

from .record import Record

DEFAULT_MAX_NODES = 5_000_000


class BudgetExceededError(RuntimeError):
    """An exhaustive search visited more nodes than its budget allows."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"work budget exceeded while {what} (limit {limit})")
        self.what = what
        self.limit = limit


class WorkBudget(Record):
    """The one cap for exhaustive searches.

    max_nodes counts candidates actually visited by a search.  For model
    enumeration those are the function/constant choices probed, the
    relation bitmaps evaluated while filtering each relation's tables or,
    for axiom parts over several relations, per assignment of the relations
    before, the argument tuples at which the definition of a relation
    computed rather than searched is evaluated, and the relation tables
    assigned on the way to full candidates (see models.enumerate_models);
    candidates ruled out relation by relation are never visited.  Since
    every function/constant choice is probed, a model search whose
    function/constant factor alone exceeds max_nodes is refused before it
    starts.
    """

    __slots__ = ("max_nodes",)
    max_nodes: int
    _defaults = {"max_nodes": DEFAULT_MAX_NODES}

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")


# The budget of a call given none; one instance serves every such call,
# since a WorkBudget is immutable.
DEFAULT_BUDGET = WorkBudget()


class NodeCounter:
    """Mutable tally of visited search nodes against a budget."""

    __slots__ = ("limit", "what", "count")

    def __init__(self, budget: WorkBudget, what: str):
        self.limit = budget.max_nodes
        self.what = what
        self.count = 0

    def tick(self, k: int = 1) -> None:
        self.count += k
        if self.count > self.limit:
            raise BudgetExceededError(self.what, self.limit)
