"""Scalar forms of the two masked-set property suites.

Used by the tests as a differential oracle for the lane suites in
``bes.props``: each generator iterates one masked set at a time with
``masked_iterates`` and yields ``(bad, detail)`` for every failing
comparison, in the order the suites report them, ``bad`` holding one bit per
failing parameter slice.  The arguments are those of a suite's violations,
``(system, pbits, ones, subsets)``.
"""

from __future__ import annotations

from bes.core import IndexSet, Valuation, masked_iterates
from bes.props import _pruned_term_values, _subsets


def masking_preserves_iterates(system, pbits, ones, subsets):
    """If f_i evaluates to 0 at the m-th iterate masked by S, then masking
    S and masking S + {i} produce identical iterates up to m."""
    n = system.n
    iterates: dict[IndexSet, list[Valuation]] = {}

    def iters(masked: IndexSet) -> list[Valuation]:
        got = iterates.get(masked)
        if got is None:
            got = masked_iterates(system, masked, n + 1, pbits, ones)
            iterates[masked] = got
        return got

    for masked in _subsets(system, subsets):
        base = iters(masked)
        for i in range(n):
            if i in masked:
                continue
            pinned = iters(masked | {i})
            diff = 0  # slices where iterates 0..m of S and S + {i} differ anywhere
            for m in range(n + 1):
                for a, b in zip(base[m], pinned[m]):
                    diff |= a ^ b
                dead = ~base[m + 1][i] & ones
                if not diff & dead:
                    continue
                for p in range(m + 1):
                    for j in range(n):
                        bad = (base[p][j] ^ pinned[p][j]) & dead
                        if bad:
                            yield bad, (
                                f"masked={sorted(masked)} pinned={system.var_names[i]}: "
                                f"iterate {p} differs at {system.var_names[j]} (m={m})"
                            )


def masked_le_pruned(system, pbits, ones, subsets):
    """For every masked set S, equation i outside S, and 0 <= m <= n - |S|,
    f_i at the m-th S-masked iterate is at most the pruned (S, i) term."""
    n = system.n
    subs = _subsets(system, subsets)
    values = _pruned_term_values(system, pbits, ones, subs)
    for masked, row in zip(subs, values):
        upto = n - len(masked)
        masked_iter = masked_iterates(system, masked, upto + 1, pbits, ones)
        for i in range(n):
            if i in masked:
                continue  # pinned side is constant 0, trivially bounded
            for m in range(upto + 1):
                bad = masked_iter[m + 1][i] & ~row[i] & ones
                if bad:
                    yield bad, (
                        f"masked={sorted(masked)} equation={system.var_names[i]} m={m}: "
                        f"masked application exceeds the pruned term"
                    )
