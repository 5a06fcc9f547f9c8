"""Search-node budget shared by the exhaustive searches.

Every backtracking search counts its nodes on a `Nodes` counter; a counter
with a limit raises `BudgetHit` at the first node past it, and the search
reports an uncertified result.  A budget is None (no limit) or a
nonnegative count; every public entry point that takes one rejects a
negative count with `check_budget` before it does any work.
"""

from __future__ import annotations


class BudgetHit(Exception):
    pass


class Nodes:
    """Search-node counter with an optional hard limit."""

    __slots__ = ("count", "limit")

    def __init__(self, limit):
        self.count = 0
        self.limit = limit

    def step(self):
        self.count += 1
        if self.limit is not None and self.count > self.limit:
            raise BudgetHit


def check_budget(node_budget) -> None:
    """Raise ValueError unless node_budget is None or nonnegative."""
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
