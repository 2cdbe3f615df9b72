"""Executable property suites behind the ``verify`` command.

``check_all(system, params=None, subsets=None, names=None)`` runs the named
suites, all by default, and maps each to None on success, or to a
Counterexample for its first failing comparison: the system, a parameter
assignment, and the coordinate.  ``SUITES[name]`` runs it on one name.  Given
an explicit assignment it checks that one; with ``params=None`` it sweeps
every assignment at once using packed bitmasks (one bit per assignment), so
a single pass covers all 2**P parameter choices, and it reports the lowest
failing assignment.  ``subsets`` samples the masked sets of the suites that
range over them, in a list that may repeat a set (an index outside 0..n-1
raises ValueError); by default a system of up to 14 equations has all swept.
A suite evaluates no equation itself: for i outside a masked set S,
f_i(x^m_S) is coordinate i of the S-masked iterate m + 1, and the pruned side
comes from ``node_values``.

The two suites that compare masked iterates set by set,
``masking_preserves_iterates`` and ``masked_le_pruned``, run every given set
at once in the lanes of one int.  Block k holds the k-th set in list order,
one lane per parameter assignment, each parameter mask repeated in every
block by one multiplication, and x_i <- f_i(x) is masked to the blocks
whose set lacks i, so one packed iteration gives every masked iterate of
every set.  ``masking_preserves_iterates`` runs it once more per equation i
with i pinned in every block: block k of that run is the S_k + {i}-masked
iteration, compared with block k of the first.  A failing comparison sets
lanes; the lowest one lies in the block of the first failing set, and the
report is decoded from that block's iterates in the order of the
comparisons, then the lowest failing slice.  ``self_substitution`` lays out
n + 1 blocks in the same way and settles them in one loop: block 0 is the
system, and in block i + 1 equation i reads its own variable as 0.  It
reports the first block that differs from block 0, at its first differing
coordinate, without rewriting a formula or building a system.

The suites of one call share a pass that computes each part they compare at
most once, on first read, for that call only: the plain iterates
(``prune_le_iterate``, ``zero_prefix``), the lanes (the two lane suites), the
pruned term values of every masked set (those and ``prune_le_iterate``) and
the pruned and expanded values (``equality``, ``pruned_le_expanded``, and the
pruned ones for ``memo_keys``).  Sharing merges no cross-check: each suite
recomputed these with the same code before.

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
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    IndexSet,
    ParamAssignment,
    System,
    Valuation,
    _check_masked,
    _check_params,
    _iterates,
    _settle,
    decode_param_slice,
    kleene_lfp,
    masked_iterates,
    param_masks,
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


def _mask(masked: IndexSet) -> int:
    """A masked set as a bitmask, bit i standing for equation i."""
    return sum(1 << i for i in masked)


class _Pass:
    """The parts suites share, each computed on first read, for one ``check_all`` call."""

    def __init__(self, system, pbits, ones, subsets):
        self.system, self.pbits, self.ones, self.subsets = system, pbits, ones, subsets

    @cached_property
    def sets(self) -> list[IndexSet]:
        if self.subsets is not None:
            subs = list(self.subsets)
            _check_masked(self.system, subs)
            return subs
        if self.system.n > _MAX_EXHAUSTIVE_N:
            raise ValueError("exhaustive subset sweep is too large; pass a subset sample")
        return _all_subsets(self.system.n)

    @cached_property
    def plain(self) -> list[Valuation]:
        return masked_iterates(self.system, frozenset(), self.system.n + 1, self.pbits, self.ones)

    @cached_property
    def lanes(self) -> _Lanes:
        return _lanes(self.system, self.pbits, self.ones, self.sets)

    @cached_property
    def rows(self) -> list[list[int]]:
        """Value of the pruned (S, i) subterm for every masked set S and
        every equation i, in one shared DAG; row k belongs to sets[k]."""
        builder = PrunedBuilder(self.system)
        term = builder.term
        equations = range(self.system.n)
        tids = [[term(mask, i) for i in equations] for mask in map(_mask, self.sets)]
        values = node_values(builder.dag, self.system, self.pbits, self.ones)
        return [[values[tid] for tid in row] for row in tids]

    @cached_property
    def pruned(self) -> list[int]:
        return eval_dag(build_pruned(self.system), self.system, self.pbits, self.ones)

    @cached_property
    def expanded(self) -> list[int]:
        return eval_dag(build_expanded(self.system), self.system, self.pbits, self.ones)


def _equality(run):
    """Both closed forms evaluate to the iterated least fixpoint, bit for bit."""
    system, pruned, expanded = run.system, run.pruned, run.expanded
    iterated, _ = kleene_lfp(system, run.pbits, run.ones)
    for i in range(system.n):
        bad = (iterated[i] ^ pruned[i]) | (iterated[i] ^ expanded[i])
        if bad:
            yield bad, (
                f"coordinate {system.var_names[i]}: iterated={bool(iterated[i] & bad)} "
                f"pruned={bool(pruned[i] & bad)} expanded={bool(expanded[i] & bad)}"
            )


def _pruned_le_expanded(run):
    """The pruned value never exceeds the expanded value, coordinatewise."""
    system, pruned, expanded = run.system, run.pruned, run.expanded
    for i in range(system.n):
        bad = pruned[i] & ~expanded[i] & run.ones
        if bad:
            yield bad, f"coordinate {system.var_names[i]}: pruned=1 but expanded=0"


def _prune_le_iterate(run):
    """Masked pruned terms are bounded by the equation at a late plain iterate.

    For every proper masked set S and equation i, the pruned subterm for
    (S, i) is at most f_i applied to the (n - |S| - 1)-th plain iterate.
    """
    system, n, rows, plain, ones = run.system, run.system.n, run.rows, run.plain, run.ones
    for masked, row in zip(run.sets, rows):
        if len(masked) == n:
            continue  # not proper: there is no iterate -1 to bound it by
        m = n - len(masked) - 1
        for i in range(n):
            bad = row[i] & ~plain[m + 1][i] & ones
            if bad:
                yield bad, (
                    f"masked={sorted(masked)} equation={system.var_names[i]}: "
                    f"pruned term exceeds iterate bound at m={m}"
                )


def _zero_prefix(run):
    """If an equation is 0 at iterate m, it is 0 at every iterate up to m."""
    system, n, plain, ones = run.system, run.system.n, run.plain, run.ones
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


class _Lanes(NamedTuple):
    """The given masked sets side by side in the lanes of one int.

    Block k, the W = ``width`` lanes from k*W, belongs to ``sets[k]``, in the
    order given, and lane k*W + j to parameter assignment j in it.
    ``without[i]`` is the lanes of the blocks whose set lacks i, ``pbits`` the
    parameter masks repeated in every block and ``every`` all the lanes.
    ``table[m][i]`` is coordinate i of iterate m, for m = 0 .. n + 1, of the
    iteration x_i <- f_i(x) & without[i]: its block k is the sets[k]-masked
    iteration.
    """

    width: int
    every: int
    pbits: tuple[int, ...]
    without: list[int]
    table: list[Valuation]


def _blocks(values: Sequence[int], width: int) -> int:
    """The lane int whose block k holds the width-bit int values[k].

    Long lists are split in halves that are joined by one shift, so each level
    of halving copies the lanes once.  Shifting every block in one at a time,
    as short lists do, copies them once per block: quadratic in the lanes.
    """
    if len(values) > 64:
        half = len(values) // 2
        return _blocks(values[half:], width) << half * width | _blocks(values[:half], width)
    out = 0
    for v in reversed(values):
        out = out << width | v
    return out


def _lanes(system: System, pbits: Sequence[int], ones: int, sets: list[IndexSet]) -> _Lanes:
    """Lay the given checked masked sets out in lanes and iterate them all at once."""
    width = ones.bit_length()
    without = [_blocks([0 if i in s else ones for s in sets], width) for i in range(system.n)]
    every = (1 << len(sets) * width) - 1
    repeated = tuple(bits * (every // ones) for bits in pbits)
    table = _iterates(system, without, system.n + 1, repeated, every)
    return _Lanes(width, every, repeated, without, table)


def _pinned_run(system: System, lanes: _Lanes, i: int) -> list[Valuation]:
    """The lane iteration with equation i pinned in every block as well, so
    that its block k is the sets[k] + {i}-masked iteration."""
    live = list(lanes.without)
    live[i] = 0
    return _iterates(system, live, system.n + 1, lanes.pbits, lanes.every)


def _first_failure(rows: list[list[int]], width: int) -> tuple[int, int, int, int] | None:
    """(k, i, c, lanes) for the failing lanes rows[i][c] of comparison c of
    equation i: the first block k with a failing lane, the first i and then c
    failing in it, and their failing lanes of block k shifted down to block 0;
    None when no lane fails anywhere."""
    lowest = min(((f & -f).bit_length() for row in rows for f in row if f), default=0)
    if not lowest:
        return None
    k, block = (lowest - 1) // width, (1 << width) - 1
    for i, row in enumerate(rows):
        for c, f in enumerate(row):
            lanes = f >> k * width & block
            if lanes:
                return k, i, c, lanes


def _dead_after_change(
    base: list[Valuation], pinned: list[Valuation], i: int, keep: int
) -> Iterator[int]:
    """For m = 0 .. n, the lanes of ``keep`` where f_i is 0 at base iterate m
    (coordinate i of iterate m + 1) while iterates 0 .. m of base and pinned
    differ somewhere."""
    diff = 0
    for m in range(len(base) - 1):
        for a, b in zip(base[m], pinned[m]):
            diff |= a ^ b
        yield diff & ~base[m + 1][i] & keep


def _masking_preserves_iterates(run):
    """Pinning a dead equation to 0 leaves earlier masked iterates unchanged.

    If f_i evaluates to 0 at the m-th iterate masked by S, then masking
    S and masking S + {i} produce identical iterates up to m.  The lane
    iteration and the one with i pinned are compared block for block, in the
    blocks whose set lacks i, and the first violation is decoded in its block.
    """
    system, n, lanes = run.system, run.system.n, run.lanes
    base, width = lanes.table, lanes.width
    rows = [
        list(_dead_after_change(base, _pinned_run(system, lanes, i), i, lanes.without[i]))
        for i in range(n)
    ]
    found = _first_failure(rows, width)
    if found is None:
        return
    k, i, m, dead = found
    pinned = _pinned_run(system, lanes, i)
    for p in range(m + 1):
        for j in range(n):
            bad = (base[p][j] ^ pinned[p][j]) >> k * width & dead
            if bad:
                yield bad, (
                    f"masked={sorted(run.sets[k])} pinned={system.var_names[i]}: "
                    f"iterate {p} differs at {system.var_names[j]} (m={m})"
                )
                return


def _masked_le_pruned(run):
    """An equation applied to a masked iterate never exceeds its pruned term.

    For every masked set S, equation i outside S, and 0 <= m <= n - |S|,
    f_i at the m-th S-masked iterate is at most the pruned (S, i) term.  The
    pruned values go into the lanes of their set's block, and iterate m + 1
    is compared in the blocks of the sets with at most n - m members.
    """
    system, n, ones, lanes, values = run.system, run.system.n, run.ones, run.lanes, run.rows
    table, width = lanes.table, lanes.width
    sizes = [len(s) for s in run.sets]
    at_most = [_blocks([ones if size <= c else 0 for size in sizes], width) for c in range(n + 1)]

    def exceeding(i: int) -> list[int]:
        # for m = 0 .. n, the lanes where f_i at iterate m exceeds the pruned term
        above = ~_blocks([row[i] for row in values], width) & lanes.without[i]
        return [table[m + 1][i] & above & at_most[n - m] for m in range(n + 1)]

    found = _first_failure([exceeding(i) for i in range(n)], width)
    if found is not None:
        k, i, m, bad = found
        yield bad, (
            f"masked={sorted(run.sets[k])} equation={system.var_names[i]} m={m}: "
            f"masked application exceeds the pruned term"
        )


def _self_substituted(system: System, pbits: Sequence[int], ones: int) -> Valuation:
    """The least fixpoint in lane block 0 and, in block i + 1, the least
    fixpoint with x_i read as 0 inside f_i, from one settle loop."""
    n, width = system.n, ones.bit_length()
    every = (1 << (n + 1) * width) - 1
    repeated = tuple(bits * (every // ones) for bits in pbits)
    own = [ones << (i + 1) * width for i in range(n)]
    fixpoint, _ = _settle(system, [0] * n, repeated, every, own)
    return fixpoint


def _self_substitution(run):
    """Replacing x_i by 0 inside its own equation preserves the least fixpoint.

    Block i + 1 of the lane fixpoint is compared with block 0, and the first
    differing block is reported at its first differing coordinate.
    """
    system, ones = run.system, run.ones
    width = ones.bit_length()
    repunit = ((1 << (system.n + 1) * width) - 1) // ones
    fixpoint = _self_substituted(system, run.pbits, ones)
    found = _first_failure([[v ^ (v & ones) * repunit] for v in fixpoint], width)
    if found is not None:
        k, j, _, bad = found
        yield bad, (
            f"zeroing {system.var_names[k - 1]} inside its own equation "
            f"changed the fixpoint at {system.var_names[j]}"
        )


def _memo_keys(run):
    """Restricted-key and full-key pruned builders evaluate identically."""
    system, canonical = run.system, run.pruned
    reference = eval_dag(build_pruned_reference(system), system, run.pbits, run.ones)
    for i in range(system.n):
        bad = (canonical[i] ^ reference[i]) & run.ones
        if bad:
            yield bad, f"builders disagree at {system.var_names[i]}"


# Each yields (bad, detail) per failing comparison, bad holding the failing slices.
_VIOLATIONS: dict[str, Callable[[_Pass], Iterator[tuple[int, str]]]] = {
    v.__name__[1:]: v
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


def check_all(
    system: System,
    params: ParamAssignment | None = None,
    subsets: Iterable[IndexSet] | None = None,
    names: Iterable[str] | None = None,
) -> dict[str, Counterexample | None]:
    """Each named suite's first failure on one pass over the system, or None;
    the lowest failing slice is decoded when every assignment is swept."""
    reports = dict.fromkeys(_VIOLATIONS if names is None else names)
    unknown = reports.keys() - _VIOLATIONS.keys()
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(map(repr, sorted(unknown)))}")
    if params is None:
        pbits, ones = param_masks(system.num_params)
    else:
        _check_params(system, params, 1)
        pbits, ones = params, 1
    run = _Pass(system, pbits, ones, subsets)
    for name in reports:
        for bad, detail in _VIOLATIONS[name](run):
            found = params
            if found is None:
                found = decode_param_slice(system.num_params, (bad & -bad).bit_length() - 1)
            reports[name] = Counterexample(name, system, found, detail)
            break
    return reports


def _check_one(name, system, params=None, subsets=None) -> Counterexample | None:
    return check_all(system, params, subsets, (name,))[name]


SUITES: dict[str, Callable[..., Counterexample | None]] = {
    name: partial(_check_one, name) for name in _VIOLATIONS
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
        reports = check_all(system)
        for tally in tallies:
            tally.record(reports[tally.name])
    return tallies
