"""Executable property suites behind the ``verify`` command.

Each suite is called as ``SUITES[name](system, params=None, subsets=None)``.
It returns None on success, or a Counterexample for its first failing
comparison: the system, a parameter assignment, and the coordinate.  Given
an explicit assignment it checks that one; with ``params=None`` it sweeps
every assignment at once using packed bitmasks (one bit per assignment), so
a single pass covers all 2**P parameter choices, and it reports the lowest
failing assignment.  ``subsets`` samples the masked sets of the suites that
range over them (an index outside 0..n-1 raises ValueError); by default a
system of up to 14 equations has all swept.  A suite evaluates no equation
itself: for i outside a masked set S, f_i(x^m_S) is coordinate i of the
S-masked iterate m + 1, and the pruned side comes from ``node_values``.

Up to 14 equations, the two suites that compare masked iterates set by set,
``masking_preserves_iterates`` and ``masked_le_pruned``, first run a lane
screen.  One packed iteration gives every masked iterate of every masked set:
lane S*W + j holds set S (as a bitmask) under parameter assignment j, W being
the width of the parameter sweep, and x_i <- f_i(x) is masked to the lanes
whose set lacks i.  A system the screen passes returns None; one it flags is
replayed by the scalar check, which builds the Counterexample, so every
report is the scalar one.  A flag the replay does not confirm raises
RuntimeError.  ``prune_le_iterate`` needs only the plain iterates and stays
scalar.

The suites:

* ``equality``: pruned value = iterated fixpoint = expanded value.
* ``pruned_le_expanded``: the one-sided bound checked before equality.
* ``prune_le_iterate``: each partially masked pruned term is bounded by the
  matching equation applied to a late enough plain iterate.
* ``zero_prefix``: once an equation is 0 at some iterate, it is 0 at every
  earlier iterate.
* ``masking_preserves_iterates``: pinning an equation that evaluates to 0
  at iterate m does not change any iterate up to m.
* ``masked_le_pruned``: an equation applied to a masked iterate never
  exceeds the matching pruned term.
* ``self_substitution``: replacing an equation's own variable by 0 inside
  its right-hand side leaves the least fixpoint unchanged.
* ``memo_keys``: restricted-key and full-key pruned builders agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    Const,
    IndexSet,
    ParamAssignment,
    System,
    Valuation,
    _check_params,
    _iterates,
    decode_param_slice,
    kleene_lfp,
    masked_iterates,
    param_masks,
    substitute_var,
)
from .dag import (
    PrunedBuilder,
    build_expanded,
    build_pruned,
    build_pruned_reference,
    eval_dag,
    node_values,
)
from .gen import gen_random_monotone


@dataclass(frozen=True)
class Counterexample:
    suite: str
    system: System
    params: ParamAssignment
    detail: str


# Largest n whose 2**n masked sets are swept exhaustively.
_MAX_EXHAUSTIVE_N = 14
# Shape of the random systems in ``run_random_battery``.
_RANDOM_MAX_PARAMS = 2
_RANDOM_MAX_DEPTH = 4


def _all_subsets(n: int) -> list[IndexSet]:
    return [frozenset(i for i in range(n) if (m >> i) & 1) for m in range(1 << n)]


def _subsets(system: System, subsets: Iterable[IndexSet] | None) -> list[IndexSet]:
    if subsets is not None:
        subs = list(subsets)
        indices = frozenset(range(system.n))
        for s in subs:
            if not indices.issuperset(s):
                raise ValueError(f"masked set {sorted(s)} has an index outside 0..{system.n - 1}")
        return subs
    if system.n > _MAX_EXHAUSTIVE_N:
        raise ValueError("exhaustive subset sweep is too large; pass a subset sample")
    return _all_subsets(system.n)


def _mask(masked: IndexSet) -> int:
    """A masked set as a bitmask, bit i standing for equation i."""
    return sum(1 << i for i in masked)


def _pruned_term_values(
    system: System, pbits: Sequence[int], ones: int, masks: list[int]
) -> list[list[int]]:
    """Value of the pruned (S, i) subterm for every given masked set S (as a
    bitmask) and every equation i, in one shared DAG; row k belongs to masks[k]."""
    builder = PrunedBuilder(system)
    term = builder.term
    equations = range(system.n)
    tids = [[term(mask, i) for i in equations] for mask in masks]
    values = node_values(builder.dag, system, pbits, ones)
    return [[values[tid] for tid in row] for row in tids]


def _equality(system, pbits, ones, subsets):
    """Both closed forms evaluate to the iterated least fixpoint, bit for bit."""
    iterated, _ = kleene_lfp(system, pbits, ones)
    pruned = eval_dag(build_pruned(system), system, pbits, ones)
    expanded = eval_dag(build_expanded(system), system, pbits, ones)
    for i in range(system.n):
        bad = (iterated[i] ^ pruned[i]) | (iterated[i] ^ expanded[i])
        if bad:
            yield bad, (
                f"coordinate {system.var_names[i]}: iterated={bool(iterated[i] & bad)} "
                f"pruned={bool(pruned[i] & bad)} expanded={bool(expanded[i] & bad)}"
            )


def _pruned_le_expanded(system, pbits, ones, subsets):
    """The pruned value never exceeds the expanded value, coordinatewise."""
    pruned = eval_dag(build_pruned(system), system, pbits, ones)
    expanded = eval_dag(build_expanded(system), system, pbits, ones)
    for i in range(system.n):
        bad = pruned[i] & ~expanded[i] & ones
        if bad:
            yield bad, f"coordinate {system.var_names[i]}: pruned=1 but expanded=0"


def _prune_le_iterate(system, pbits, ones, subsets):
    """Masked pruned terms are bounded by the equation at a late plain iterate.

    For every proper masked set S and equation i, the pruned subterm for
    (S, i) is at most f_i applied to the (n - |S| - 1)-th plain iterate.
    """
    n = system.n
    subs = [s for s in _subsets(system, subsets) if len(s) < n]
    values = _pruned_term_values(system, pbits, ones, [_mask(s) for s in subs])
    plain = masked_iterates(system, frozenset(), n + 1, pbits, ones)
    for masked, row in zip(subs, values):
        m = n - len(masked) - 1
        for i in range(n):
            bad = row[i] & ~plain[m + 1][i] & ones
            if bad:
                yield bad, (
                    f"masked={sorted(masked)} equation={system.var_names[i]}: "
                    f"pruned term exceeds iterate bound at m={m}"
                )


def _zero_prefix(system, pbits, ones, subsets):
    """If an equation is 0 at iterate m, it is 0 at every iterate up to m."""
    n = system.n
    plain = masked_iterates(system, frozenset(), n + 1, pbits, ones)
    for i in range(n):
        for m in range(n + 1):
            zero_at_m = ~plain[m + 1][i] & ones
            for earlier in range(m):
                bad = plain[earlier + 1][i] & zero_at_m
                if bad:
                    yield bad, (
                        f"equation {system.var_names[i]}: 0 at iterate {m} "
                        f"but 1 at iterate {earlier}"
                    )


def _masking_preserves_iterates(system, pbits, ones, subsets):
    """Pinning a dead equation to 0 leaves earlier masked iterates unchanged.

    If f_i evaluates to 0 at the m-th iterate masked by S, then masking
    S and masking S + {i} produce identical iterates up to m.
    """
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


def _masked_le_pruned(system, pbits, ones, subsets):
    """An equation applied to a masked iterate never exceeds its pruned term.

    For every masked set S, equation i outside S, and 0 <= m <= n - |S|,
    f_i at the m-th S-masked iterate is at most the pruned (S, i) term.
    """
    n = system.n
    subs = _subsets(system, subsets)
    values = _pruned_term_values(system, pbits, ones, [_mask(s) for s in subs])
    for masked, row in zip(subs, values):
        upto = n - len(masked)
        masked_iter = masked_iterates(system, masked, upto + 1, pbits, ones)
        for i in range(n):
            if i in masked:
                continue  # pinned side is constant 0, trivially bounded
            for m in range(upto + 1):
                lhs = masked_iter[m + 1][i]
                bad = lhs & ~row[i] & ones
                if bad:
                    yield bad, (
                        f"masked={sorted(masked)} equation={system.var_names[i]} m={m}: "
                        f"masked application exceeds the pruned term"
                    )


class _Lanes(NamedTuple):
    """Every masked iterate of every masked set, packed into the lanes of one int.

    Lane S*W + j holds masked set S (as a bitmask) under parameter
    assignment j, where W = ``width`` is the width of the parameter sweep.
    ``table[m][i]`` is coordinate i of iterate m in every lane; ``without[i]``
    is the lanes whose set lacks i, ``given`` those of the sets passed in, and
    ``masks`` are the given sets as bitmasks, in the order passed.
    """

    masks: list[int]
    table: list[Valuation]
    width: int
    without: list[int]
    given: int


def _lanes(
    system: System, pbits: Sequence[int], ones: int, subsets: Iterable[IndexSet] | None
) -> _Lanes:
    """One packed iteration, x_i <- f_i(x) & without[i], for all 2**n masked sets.

    The parameter masks repeat once per set, and iterates 0 .. n + 1 are kept,
    as the suites ask for them.
    """
    n = system.n
    masks = [_mask(s) for s in _subsets(system, subsets)]
    width = ones.bit_length()
    every = (1 << (width << n)) - 1
    # Bit i of S is 0 in the low half of each run of 2**(i+1) blocks.
    without = [
        ((1 << (width << i)) - 1) * (every // ((1 << (width << (i + 1))) - 1))
        for i in range(n)
    ]
    given = 0
    for mask in masks:
        given |= ones << mask * width
    repeat = every // ones
    table = _iterates(system, without, n + 1, [b * repeat for b in pbits], every)
    return _Lanes(masks, table, width, without, given)


def _masking_preserves_iterates_screen(system, pbits, ones, subsets) -> bool:
    """Whether ``_masking_preserves_iterates`` can fail, from one packed run.

    The S + {i} lane of a set S without i lies 2**i * W lanes above it.
    """
    lanes = _lanes(system, pbits, ones, subsets)
    table = lanes.table
    for i in range(system.n):
        shift = lanes.width << i
        keep = lanes.without[i] & lanes.given
        diff = 0  # lanes where iterates 0..m of S and S + {i} differ anywhere
        for m in range(system.n + 1):
            for v in table[m]:
                diff |= v ^ v >> shift
            if diff & ~table[m + 1][i] & keep:
                return True
    return False


def _masked_le_pruned_screen(system, pbits, ones, subsets) -> bool:
    """Whether ``_masked_le_pruned`` can fail, from one packed run.

    The pruned (S, i) values go into lane block S; iterate m + 1 is compared
    in the lanes of the sets with at most n - m members.
    """
    n = system.n
    lanes = _lanes(system, pbits, ones, subsets)
    width = lanes.width
    values = _pruned_term_values(system, pbits, ones, lanes.masks)
    sized = [ones]  # sized[k]: the lanes of the sets of k members
    for i in range(n):
        sized = [lo | hi << (width << i) for lo, hi in zip(sized + [0], [0] + sized)]
    at_most = list(accumulate(sized, or_))  # at_most[k]: the sets of at most k members
    bounds = [0] * n  # bounds[i]: the pruned (S, i) values, in lane block S
    for mask, row in zip(lanes.masks, values):
        for i, value in enumerate(row):
            bounds[i] |= value << mask * width
    for i in range(n):
        exceeds = ~bounds[i] & lanes.without[i] & lanes.given
        for m in range(n + 1):
            if lanes.table[m + 1][i] & exceeds & at_most[n - m]:
                return True
    return False


def _self_substitution(system, pbits, ones, subsets):
    """Replacing x_i by 0 inside its own equation preserves the least fixpoint."""
    base, _ = kleene_lfp(system, pbits, ones)
    for i in range(system.n):
        formulas = list(system.formulas)
        formulas[i] = substitute_var(formulas[i], i, Const(0))
        rewritten = System(tuple(formulas), system.var_names, system.param_names)
        other, _ = kleene_lfp(rewritten, pbits, ones)
        for j in range(system.n):
            bad = (base[j] ^ other[j]) & ones
            if bad:
                yield bad, (
                    f"zeroing {system.var_names[i]} inside its own equation "
                    f"changed the fixpoint at {system.var_names[j]}"
                )


def _memo_keys(system, pbits, ones, subsets):
    """Restricted-key and full-key pruned builders evaluate identically."""
    canonical = eval_dag(build_pruned(system), system, pbits, ones)
    reference = eval_dag(build_pruned_reference(system), system, pbits, ones)
    for i in range(system.n):
        bad = (canonical[i] ^ reference[i]) & ones
        if bad:
            yield bad, f"builders disagree at {system.var_names[i]}"


Check = Callable[..., Counterexample | None]


def _suite(
    name: str,
    violations: Callable[..., Iterator[tuple[int, str]]],
    screen: Callable[..., bool] | None = None,
) -> Check:
    """The check that reports the first of ``violations`` as a Counterexample.

    ``violations(system, pbits, ones, subsets)`` yields ``(bad, detail)`` for
    each failing comparison, ``bad`` holding one bit per failing parameter
    slice; the lowest slice is decoded when every assignment is swept.  A
    ``screen`` with the same arguments says whether any comparison can fail;
    up to ``_MAX_EXHAUSTIVE_N`` equations it runs first, and ``violations``
    is replayed only on a system it flags, which must then fail.
    """

    def check(
        system: System,
        params: ParamAssignment | None = None,
        subsets: Iterable[IndexSet] | None = None,
    ) -> Counterexample | None:
        if params is None:
            pbits, ones = param_masks(system.num_params)
        else:
            _check_params(system, params, 1)
            pbits, ones = params, 1
        screened = screen is not None and system.n <= _MAX_EXHAUSTIVE_N
        if screened and not screen(system, pbits, ones, subsets):
            return None
        for bad, detail in violations(system, pbits, ones, subsets):
            if params is None:
                params = decode_param_slice(system.num_params, (bad & -bad).bit_length() - 1)
            return Counterexample(name, system, params, detail)
        if screened:
            raise RuntimeError(f"{name}: the lane screen flags a system the scalar check passes")
        return None

    return check


_SCREENS: dict[str, Callable[..., bool]] = {
    "masking_preserves_iterates": _masking_preserves_iterates_screen,
    "masked_le_pruned": _masked_le_pruned_screen,
}

SUITES: dict[str, Check] = {
    v.__name__[1:]: _suite(v.__name__[1:], v, _SCREENS.get(v.__name__[1:]))
    for v in (
        _equality,
        _pruned_le_expanded,
        _prune_le_iterate,
        _zero_prefix,
        _masking_preserves_iterates,
        _masked_le_pruned,
        _self_substitution,
        _memo_keys,
    )
}


@dataclass
class SuiteTally:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[Counterexample] = field(default_factory=list)

    def record(self, cex: Counterexample | None) -> None:
        if cex is None:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(cex)


def run_random_battery(trials: int, seed: int, max_n: int = 6) -> list[SuiteTally]:
    """Seeded random systems through every suite, all parameter assignments."""
    if not 1 <= max_n <= _MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"max_n={max_n} is outside 1..{_MAX_EXHAUSTIVE_N}, "
            "the sizes whose masked sets are swept exhaustively"
        )
    rng = random.Random(seed)
    tallies = [SuiteTally(name) for name in SUITES]
    for _ in range(trials):
        n = rng.randint(1, max_n)
        num_params = rng.randint(0, _RANDOM_MAX_PARAMS)
        system = gen_random_monotone(n, num_params, _RANDOM_MAX_DEPTH, rng.randrange(2**62))
        subs = _all_subsets(n)
        for tally, check in zip(tallies, SUITES.values()):
            tally.record(check(system, None, subs))
    return tallies
