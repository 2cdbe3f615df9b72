"""The pruned builder as it was before its child loop resolved masked and
memoized children in place: every child is a recursive call.

Used by the tests as a differential oracle for ``bes.dag.PrunedBuilder``,
which enters ``term`` only on a memo miss.  Both must intern the same nodes
in the same order and fill the same memo in the same order, so the tables,
the roots and the memo dicts compare equal.  Its memo keys come from a
per-variable search rather than from ``System._cones``, which the package
reads off the strongly connected components.
"""

from __future__ import annotations

from bes.core import System
from bes.dag import BOTTOM, TermDag


def dfs_cones(system: System) -> tuple[int, ...]:
    """For each variable, the bitmask of the variables reachable from it,
    itself included, by one depth-first search per variable."""
    supports = system._supports
    cones: list[int] = []
    for start in range(system.n):
        seen = 1 << start
        stack = [start]
        while stack:
            for w in supports[stack.pop()]:
                if not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
        cones.append(seen)
    return tuple(cones)


class PrunedOracle:
    """Memo key ``(i, masked & key_set[i])``, the key set the cone from
    ``dfs_cones`` (or every bit); one call per child."""

    def __init__(self, system: System, canonical_keys: bool = True):
        self.dag = TermDag(system._supports)
        self._memo: dict[tuple[int, int], int] = {}
        self._key_sets = dfs_cones(system) if canonical_keys else (-1,) * system.n

    def term(self, masked: int, i: int) -> int:
        bit = 1 << i
        if masked & bit:
            return BOTTOM
        key = (i, masked & self._key_sets[i])
        tid = self._memo.get(key)
        if tid is None:
            inner = masked | bit
            ids = tuple([self.term(inner, j) for j in self.dag.supports[i]])
            tid = self.dag._intern(i, ids)
            self._memo[key] = tid
        return tid
