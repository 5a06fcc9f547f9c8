"""Search-node budget shared by the exhaustive searches.

Every backtracking search counts its nodes on a `Nodes` counter; a counter
with a limit raises `BudgetHit` at the first node past it, and the search
reports an uncertified result.  A budget is None (no limit) or a
nonnegative integer; every public entry point that takes one rejects any
other value with `check_budget` before it does any work.
"""

from __future__ import annotations

from .digraph import checked_int


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
    """Raise ValueError unless node_budget is None or a nonnegative integer."""
    if node_budget is not None:
        checked_int(node_budget, "node budget")
