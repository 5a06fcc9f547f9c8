"""Search-node budget shared by the exhaustive searches.

Every backtracking search counts its nodes on a `Nodes` counter; a counter
with a limit raises `BudgetHit` at the first node past it, and the search
reports an uncertified result.
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
