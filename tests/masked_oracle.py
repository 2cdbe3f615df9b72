"""Scalar forms of the property suites that run in lanes.

Used by the tests as a differential oracle for the lane suites in
``bes.props``: the two masked-set generators iterate one masked set at a
time with ``masked_iterates``, and ``self_substitution`` solves one
rewritten system per equation.  Each yields ``(bad, detail)`` for every
failing comparison, in the order the suites report them, ``bad`` holding
one bit per failing parameter slice.  The arguments are those a suite's
pass is made of, ``(system, pbits, ones, subsets)``, and the masked sets and
pruned term values come from that pass.
"""

from __future__ import annotations

from bes.core import (
    And,
    Const,
    Formula,
    IndexSet,
    Or,
    System,
    Valuation,
    Var,
    kleene_lfp,
    masked_iterates,
)
from bes.props import _Pass


def substitute_var(f: Formula, index: int, replacement: Formula) -> Formula:
    """Replace every occurrence of the given state variable in f."""
    if isinstance(f, Var):
        return replacement if f.index == index else f
    if isinstance(f, And):
        return And(
            substitute_var(f.left, index, replacement),
            substitute_var(f.right, index, replacement),
        )
    if isinstance(f, Or):
        return Or(
            substitute_var(f.left, index, replacement),
            substitute_var(f.right, index, replacement),
        )
    return f


def zero_own_variable(system: System, i: int) -> System:
    """The system with x_i replaced by 0 inside f_i."""
    formulas = list(system.formulas)
    formulas[i] = substitute_var(formulas[i], i, Const(0))
    return System(tuple(formulas), system.var_names, system.param_names)


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

    for masked in _Pass(system, pbits, ones, subsets).sets:
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
    run = _Pass(system, pbits, ones, subsets)
    for masked, row in zip(run.sets, run.rows):
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


def self_substitution(system, pbits, ones, subsets):
    """Replacing x_i by 0 inside its own equation preserves the least
    fixpoint, checked on n rewritten systems."""
    base, _ = kleene_lfp(system, pbits, ones)
    for i in range(system.n):
        other, _ = kleene_lfp(zero_own_variable(system, i), pbits, ones)
        for j in range(system.n):
            bad = (base[j] ^ other[j]) & ones
            if bad:
                yield bad, (
                    f"zeroing {system.var_names[i]} inside its own equation "
                    f"changed the fixpoint at {system.var_names[j]}"
                )
