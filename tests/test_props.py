"""The property suites on hand-picked and random systems.

Each check encodes one step of the chain of facts that makes the pruned
form correct; here they run against systems where the expected outcome is
known, plus a sweep asserting no random system ever trips any of them.
"""

import random
import re
import time

import pytest

import masked_oracle
from bes import core, props
from bes.core import Const, System, Var, decode_param_slice, masked_iterates, param_masks
from bes.dag import build_expanded
from bes.gen import gen_random_monotone
from bes.text import parse_system


EXAMPLES = [
    "x = x;",
    "x = 1;",
    "a = 1; b = a & c; c = b | a;",
    "x = y | 1; y = x & y;",
    "x = x | y; y = x & y;",
    "x = ?p & y; y = x | !?p;",
    "f = f | g; g = f & g;",
]


class TestSuitesPassOnExamples:
    @pytest.mark.parametrize("text", EXAMPLES)
    def test_all_suites(self, text):
        system = parse_system(text)
        for check in props.SUITES.values():
            assert check(system) is None

    @pytest.mark.parametrize("name", list(props.SUITES))
    def test_each_suite_individually(self, name):
        system = parse_system("a = 1; b = a & c; c = b | a;")
        assert props.SUITES[name](system) is None


class TestSuitesPassOnRandomSystems:
    def test_random_sweep(self):
        tallies = props.run_random_battery(trials=120, seed=5, max_n=5)
        for tally in tallies:
            assert tally.failed == 0, tally.failures
            assert tally.passed == 120

    def test_single_concrete_params(self):
        system = parse_system("x = ?p & y; y = x | ?q;")
        for p in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert props.SUITES["equality"](system, p) is None
            assert props.SUITES["masked_le_pruned"](system, p) is None

    @pytest.mark.parametrize("p", [(0, 2), (-1, 0)])
    def test_explicit_params_must_be_bits(self, p):
        system = parse_system("x = ?p & y; y = x | ?q;")
        for check in props.SUITES.values():
            with pytest.raises(ValueError, match="outside the 1-bit mask"):
                check(system, p)


class TestCounterexampleMachinery:
    def test_equality_check_detects_a_false_claim(self):
        # feed the checker a system evaluator cannot fix: fabricate a
        # mismatch by comparing against a doctored system with swapped
        # formulas; the suites must stay quiet on the honest system and
        # the decoded parameters must replay on failure shapes
        system = parse_system("x = ?p;")
        cex = props.SUITES["equality"](system)
        assert cex is None

    def test_masking_check_reports_a_differing_iterate(self, monkeypatch):
        # flip y in slice 2 (p=0, q=1) of iterate 1 when x is pinned; x is
        # dead at iterate 1 in every slice but p=q=1, so the check must
        # report the first differing coordinate of the first failing m
        system = parse_system("x = ?p & y; y = x | ?q;")

        def flip(out, lanes, live):
            out[1] = (out[1][0], out[1][1] ^ lanes({0}, 2))

        _inject_iteration_fault(monkeypatch, _iteration_fault(flip))
        cex = props.SUITES["masking_preserves_iterates"](system)
        assert cex == props.Counterexample(
            "masking_preserves_iterates",
            system,
            (0, 1),
            "masked=[] pinned=x: iterate 1 differs at y (m=1)",
        )


def _unrolled_zero_times(system):
    return build_expanded(system, 0)


def _all_ones(dag, system, p=(), ones=1):
    return [ones] * len(dag)


def _all_zeros(dag, system, p=(), ones=1):
    return [0] * len(dag)


_real_iterates = core._iterates


def _iteration_fault(edit):
    """A fault in masked iteration, as a stand-in for ``core._iterates``.

    ``edit(out, lanes, live)`` changes the iterate table ``out`` in place;
    a bit where ``live[i]`` is 0 has equation i pinned.  ``lanes(masked, j)``
    is the bits of the table whose masked set is exactly ``masked`` (any set
    if None) and, if j is given, whose parameters read assignment j.  Both
    speak of single bits, so the fault acts alike on a table of
    ``masked_iterates`` and on the lanes of ``props``, whatever sets they
    hold and in whatever order.
    """

    def fake(system, live, m, p, ones):
        out = _real_iterates(system, live, m, p, ones)

        def lanes(masked=None, j=None):
            got = ones
            if masked is not None:
                for i, bits in enumerate(live):
                    got &= ~bits if i in masked else bits
            if j is not None:
                for k, bits in enumerate(p):
                    got &= bits if j >> k & 1 else ~bits
            return got

        edit(out, lanes, live)
        return out

    return fake


def _inject_iteration_fault(monkeypatch, fake):
    # masked_iterates reaches core._iterates, the lane suites props._iterates
    monkeypatch.setattr(core, "_iterates", fake)
    monkeypatch.setattr(props, "_iterates", fake)


def _reverse_plain(out, lanes, live):
    # the iterates of the empty masked set in reverse order
    plain = lanes(frozenset())
    out[:] = [
        tuple(v & ~plain | r & plain for v, r in zip(a, b)) for a, b in zip(out, out[::-1])
    ]


def _flip_first_masked_iterate(out, lanes, live):
    # slice 0 of every coordinate of iterate 1, for every non-empty masked set
    flip = lanes(j=0) & ~lanes(frozenset())
    out[1] = tuple(v ^ flip for v in out[1])


_reversed_plain = _iteration_fault(_reverse_plain)
_flipped_first_masked_iterate = _iteration_fault(_flip_first_masked_iterate)


_real_settle = core._settle


def _own_lanes_settle_to_one(system, x, p, ones, own=None):
    # every lane of own[i] settles to 1 at coordinate i
    fixpoint, depth = _real_settle(system, x, p, ones, own)
    return tuple(v | hidden for v, hidden in zip(fixpoint, own)), depth


# One fault per suite, each standing in for a name ``props`` imports (a
# "masked_iterates" row: see the next table), and the exact report on
# "x = ?p | ?q; y = x & ?q;".  Slices count p as bit 0, so a
# failing mask of 0b1110 reports slice 1, (p, q) = (1, 0), and 0b1100 reports
# slice 2, (0, 1); explicit parameters are reported as given.
FAULT_TABLE = [
    ("equality", "build_expanded", _unrolled_zero_times, None, (1, 0),
     "coordinate x: iterated=True pruned=True expanded=False"),
    ("equality", "build_expanded", _unrolled_zero_times, (0, 1), (0, 1),
     "coordinate x: iterated=True pruned=True expanded=False"),
    ("pruned_le_expanded", "build_expanded", _unrolled_zero_times, None, (1, 0),
     "coordinate x: pruned=1 but expanded=0"),
    ("prune_le_iterate", "node_values", _all_ones, None, (0, 0),
     "masked=[] equation=x: pruned term exceeds iterate bound at m=1"),
    ("zero_prefix", "masked_iterates", _reversed_plain, None, (1, 0),
     "equation x: 0 at iterate 2 but 1 at iterate 0"),
    ("masked_le_pruned", "node_values", _all_zeros, None, (1, 0),
     "masked=[] equation=x m=0: masked application exceeds the pruned term"),
    ("self_substitution", "_settle", _own_lanes_settle_to_one, None, (0, 0),
     "zeroing x inside its own equation changed the fixpoint at x"),
    ("memo_keys", "build_pruned_reference", _unrolled_zero_times, None, (1, 0),
     "builders disagree at x"),
]


# Faults in masked iteration itself, on the same system with parameters swept.
# Their ids add the faked name, as "prune_le_iterate-packed" is taken above.
# A "masked_iterates" row fakes ``_iterates``, which masked_iterates and the
# lane suites both run, so the fault reaches the plain iterates and the lanes.
ITERATION_FAULT_TABLE = [
    ("prune_le_iterate", "masked_iterates", _reversed_plain, None, (0, 1),
     "masked=[] equation=y: pruned term exceeds iterate bound at m=1"),
    ("masking_preserves_iterates", "masked_iterates", _flipped_first_masked_iterate, None,
     (0, 0), "masked=[] pinned=x: iterate 1 differs at x (m=1)"),
    ("masked_le_pruned", "masked_iterates", _flipped_first_masked_iterate, None, (0, 0),
     "masked=[0] equation=y m=0: masked application exceeds the pruned term"),
]


@pytest.mark.parametrize(
    "suite, name, fake, params, reported, detail",
    FAULT_TABLE + ITERATION_FAULT_TABLE,
    ids=[f"{row[0]}-{'packed' if row[3] is None else 'explicit'}" for row in FAULT_TABLE]
    + [f"{row[0]}-packed-{row[1]}" for row in ITERATION_FAULT_TABLE],
)
def test_each_suite_reports_its_first_failure(
    monkeypatch, suite, name, fake, params, reported, detail
):
    system = parse_system("x = ?p | ?q; y = x & ?q;")
    assert props.SUITES[suite](system, params) is None
    _inject_row(monkeypatch, name, fake)
    assert props.SUITES[suite](system, params) == props.Counterexample(
        suite, system, reported, detail
    )


def _inject_row(monkeypatch, name, fake):
    # the fault of a FAULT_TABLE or ITERATION_FAULT_TABLE row
    if name == "masked_iterates":
        _inject_iteration_fault(monkeypatch, fake)
    else:
        monkeypatch.setattr(props, name, fake)


def _lag_one_round(out, lanes, live):
    out[1:] = out[:-1]


def _flip_under_first_pinned(out, lanes, live):
    # the last coordinate of iterate 1 in every slice of masked set {0}
    x = list(out[1])
    x[-1] ^= lanes({0})
    out[1] = tuple(x)


def _overshoot_last_round(out, lanes, live):
    # iterate n + 1, where a table has it, reads 1 in every lane
    n = len(live)
    if len(out) > n + 1:
        out[n + 1] = (lanes(),) * n


def _leak_pinned(out, lanes, live):
    # every pinned equation reads 1 at iterate 1 wherever it is pinned
    out[1] = tuple(v | lanes() & ~bits for v, bits in zip(out[1], live))


_real_node_values = props.node_values


def _flip_last_node(dag, system, p=(), ones=1):
    values = _real_node_values(dag, system, p, ones)
    values[-1] ^= ones
    return values


def _zero_odd_nodes(dag, system, p=(), ones=1):
    values = _real_node_values(dag, system, p, ones)
    return [0 if tid % 2 and tid > 1 else v for tid, v in enumerate(values)]


def _start_at_top(system, x, p, ones, own=None):
    # every settle loop starts from all ones, so kleene_lfp gives the gfp
    x[:] = [ones] * len(x)
    return _real_settle(system, x, p, ones, own)


# Faults that reach the oracle and the lane suites alike: in masked iteration
# through ``_iterates``, in the pruned values through node_values, and in
# the fixpoints through ``_settle``.
SHARED_FAULTS = {
    "flipped-first-masked-iterate": ("_iterates", _flipped_first_masked_iterate),
    "reversed-plain": ("_iterates", _reversed_plain),
    "lagging-round": ("_iterates", _iteration_fault(_lag_one_round)),
    "leaking-pinned": ("_iterates", _iteration_fault(_leak_pinned)),
    "flipped-under-first-pinned": ("_iterates", _iteration_fault(_flip_under_first_pinned)),
    "overshooting-last-round": ("_iterates", _iteration_fault(_overshoot_last_round)),
    "flipped-last-node": ("node_values", _flip_last_node),
    "zeroed-odd-nodes": ("node_values", _zero_odd_nodes),
    "starting-at-top": ("_settle", _start_at_top),
}


def _inject(monkeypatch, fault):
    name, fake = SHARED_FAULTS[fault]
    if hasattr(core, name):
        # a routine of core that props imports: the oracle reaches it in core
        monkeypatch.setattr(core, name, fake)
    monkeypatch.setattr(props, name, fake)


LANE_SUITES = ["masking_preserves_iterates", "masked_le_pruned"]
# The suites with a scalar form in ``masked_oracle``.
ORACLE_SUITES = LANE_SUITES + ["self_substitution"]


def _corpus_cases():
    """(system, params, subsets) for 300 small random systems: every other one
    under one explicit assignment, the rest with all swept; every third on the
    masked sets without equation 0, the rest on all."""
    rng = random.Random(20049)
    for k in range(300):
        system = gen_random_monotone(
            rng.randint(1, 5), rng.randint(0, 2), 4, rng.randrange(2**62)
        )
        params = tuple(j % 2 for j in range(system.num_params)) if k % 2 else None
        subsets = props._all_subsets(system.n)[::2] if k % 3 == 2 else None
        yield system, params, subsets


def _sampled_sets(n, seed):
    # 64 masked sets, drawn as ``bes verify`` draws them above 14 equations
    rng = random.Random(seed)
    return [frozenset(i for i in range(n) if rng.random() < 0.5) for _ in range(64)]


def _repeated_shuffled_sets(n, seed):
    # every masked set, about half of them twice, in no particular order
    rng = random.Random(seed)
    sets = props._all_subsets(n)
    sets += rng.sample(sets, len(sets) // 2 + 1)
    rng.shuffle(sets)
    return sets


CORPUS_CASES = list(_corpus_cases())
WIDE_CASES = [
    (gen_random_monotone(n, n % 3, 3, n), None, _sampled_sets(n, n)) for n in range(15, 21)
]
SHUFFLED_CASES = [
    (system, params, _repeated_shuffled_sets(system.n, k))
    for k, (system, params, _) in enumerate(CORPUS_CASES[:60])
]
CASES = CORPUS_CASES + WIDE_CASES + SHUFFLED_CASES


def _oracle_reports(suite, cases):
    """Per case, the Counterexample a suite builds from the oracle's first violation."""
    reports = []
    for system, params, subsets in cases:
        pbits, ones = param_masks(system.num_params) if params is None else (params, 1)
        violations = getattr(masked_oracle, suite)(system, pbits, ones, subsets)
        bad, detail = next(violations, (None, None))
        if bad is not None and params is None:
            params = decode_param_slice(system.num_params, (bad & -bad).bit_length() - 1)
        reports.append(None if bad is None else props.Counterexample(suite, system, params, detail))
    return reports


def _suite_reports(suite, cases):
    return [props.SUITES[suite](*case) for case in cases]


# The pairs where the fault makes the oracle fail on some corpus system.
DIFFERENTIAL = [
    ("masking_preserves_iterates", "flipped-first-masked-iterate"),
    ("masking_preserves_iterates", "reversed-plain"),
    ("masking_preserves_iterates", "leaking-pinned"),
    ("masking_preserves_iterates", "flipped-under-first-pinned"),
    ("masked_le_pruned", "flipped-first-masked-iterate"),
    ("masked_le_pruned", "overshooting-last-round"),
    ("masked_le_pruned", "flipped-last-node"),
    ("masked_le_pruned", "zeroed-odd-nodes"),
    ("self_substitution", "starting-at-top"),
]


class TestLanes:
    @pytest.mark.parametrize("params", [None, (1, 0)])
    def test_blocks_are_the_masked_iterations(self, params):
        # block k holds the k-th given set, repeats and order kept; in the run
        # with equation i pinned it holds that set + {i}
        system = parse_system("a = ?p | b & c; b = a & ?q; c = b | c & !?p;")
        pbits, ones = param_masks(2) if params is None else (params, 1)
        sets = [frozenset({2}), frozenset({0, 1}), frozenset(), frozenset({2}), frozenset({0})]
        lanes = props._lanes(system, pbits, ones, sets)
        width = ones.bit_length()
        assert lanes.width == width
        assert lanes.every == (1 << len(sets) * width) - 1

        def block(table, k):
            return [tuple(v >> k * width & ones for v in x) for x in table]

        for k, masked in enumerate(sets):
            expected = masked_iterates(system, masked, system.n + 1, pbits, ones)
            assert block(lanes.table, k) == expected
            for i in range(system.n):
                pinned = masked_iterates(system, masked | {i}, system.n + 1, pbits, ones)
                assert block(props._pinned_run(system, lanes, i), k) == pinned
                assert lanes.without[i] >> k * width & ones == (0 if i in masked else ones)

    @pytest.mark.parametrize("count", [1, 64, 65, 200])
    def test_repeated_parameter_lanes(self, count):
        # the parameter masks repeated in every block, on both sides of the
        # 64-value split in _blocks; explicit bits fill no lane or every lane
        system = parse_system("a = ?p | b & c; b = a & ?q; c = b | c & !?p;")
        sets = [frozenset({count % 3})] * count
        for pbits, ones in (param_masks(2), ((1, 0), 1), ((0, 1), 1)):
            lanes = props._lanes(system, pbits, ones, sets)
            assert lanes.pbits == tuple(props._blocks([b] * count, lanes.width) for b in pbits)
            if ones == 1:
                assert lanes.pbits == tuple(lanes.every if b else 0 for b in pbits)

    def test_no_masked_sets(self):
        # an empty list lays out no lanes and every suite passes on it
        system = parse_system("x = ?p & y; y = x | ?q;")
        assert props._blocks([], 4) == 0
        assert props._lanes(system, (0, 1), 1, []).every == 0
        for check in props.SUITES.values():
            assert check(system, None, []) is None
            assert check(system, (1, 0), []) is None

    @pytest.mark.parametrize("suite", ORACLE_SUITES)
    def test_clean_cases_pass(self, suite):
        assert not any(_oracle_reports(suite, CASES))
        assert not any(_suite_reports(suite, CASES))

    @pytest.mark.parametrize("suite, fault", DIFFERENTIAL)
    def test_reports_are_the_oracles(self, monkeypatch, suite, fault):
        _inject(monkeypatch, fault)
        expected = _oracle_reports(suite, CASES)
        assert any(expected)
        assert _suite_reports(suite, CASES) == expected

    def test_wide_parameters(self):
        # 2**14 masked sets under 2**8 assignments: 4M lanes, in seconds
        system = gen_random_monotone(14, 8, 3, 7)
        for suite in LANE_SUITES:
            started = time.perf_counter()
            assert props.SUITES[suite](system) is None
            assert time.perf_counter() - started < 8, suite


def _lanes_patched(**changes):
    # the lane layout with some fields replaced after its iteration ran
    def make(lanes_of):
        def fake(system, pbits, ones, subsets):
            lanes = lanes_of(system, pbits, ones, subsets)
            return lanes._replace(**{k: f(lanes) for k, f in changes.items()})

        return fake

    return make


def _flip_lane_zero(lanes):
    # lane 0 (the first set, all parameters 0) of iterate 1, every coordinate
    table = list(lanes.table)
    table[1] = tuple(v ^ 1 for v in table[1])
    return table


def _unmasked_lanes(iterates):
    # the lane iteration pins nothing: x_i <- f_i(x) in every lane
    return lambda system, live, m, p, ones: iterates(system, [ones] * len(live), m, p, ones)


# Faults in the lane suites alone, each made from the name it stands in for.
# Each must make some report on the cases differ from the oracle's, clean or
# under a shared fault.
LANE_FAULTS = {
    "flipped-lane": ("_lanes", _lanes_patched(table=_flip_lane_zero)),
    "unmasked-lanes": ("_iterates", _unmasked_lanes),
    "unrestricted-comparison": ("_lanes", _lanes_patched(
        without=lambda lanes: [-1] * len(lanes.without))),
    "doubled-width": ("_lanes", _lanes_patched(width=lambda lanes: 2 * lanes.width)),
    "misaligned-width": ("_lanes", _lanes_patched(width=lambda lanes: lanes.width + 1)),
}


def _ignored_own(settle):
    # every equation reads its own variable as it is, in every block
    return lambda system, x, p, ones, own=None: settle(system, x, p, ones)


def _rotated_own(settle):
    # equation i reads its own variable as 0 in the block of equation i + 1
    return lambda system, x, p, ones, own=None: settle(system, x, p, ones, own[1:] + own[:1])


def _reversed_blocks(self_substituted):
    # the lane fixpoint with its n + 1 blocks in reverse order
    def fake(system, pbits, ones):
        width, n = ones.bit_length(), system.n
        lanes = self_substituted(system, pbits, ones)
        return tuple(
            props._blocks([v >> k * width & ones for k in reversed(range(n + 1))], width)
            for v in lanes
        )

    return fake


# The same for the self-substitution lanes.
SELF_SUBSTITUTION_FAULTS = {
    "ignored-own": ("_settle", _ignored_own),
    "rotated-own": ("_settle", _rotated_own),
    "reversed-blocks": ("_self_substituted", _reversed_blocks),
}
# (suite, fault in its lanes, the shared fault that makes the oracle report)
LANE_FAULT_CASES = [
    (suite, fault, "flipped-first-masked-iterate") for fault in LANE_FAULTS for suite in LANE_SUITES
] + [("self_substitution", fault, "starting-at-top") for fault in SELF_SUBSTITUTION_FAULTS]


@pytest.mark.parametrize(
    "suite, fault, shared", LANE_FAULT_CASES, ids=[f"{s}-{f}" for s, f, _ in LANE_FAULT_CASES]
)
def test_lane_fault_is_caught(monkeypatch, suite, fault, shared):
    name, make = {**LANE_FAULTS, **SELF_SUBSTITUTION_FAULTS}[fault]
    for under in (None, shared):
        with monkeypatch.context() as patch:
            if under is not None:
                _inject(patch, under)
            expected = _oracle_reports(suite, CASES)
            patch.setattr(props, name, make(getattr(props, name)))
            if _suite_reports(suite, CASES) != expected:
                return
    pytest.fail(f"{fault} in the {suite} lanes went unnoticed")


# Every fault of FAULT_TABLE, ITERATION_FAULT_TABLE and SHARED_FAULTS once, by
# id: a row's first suite and name, or the shared fault's name.  A
# "masked_iterates" row injects its fake as the "_iterates" shared faults do,
# so a shared fault whose fake a row has already is left out.
ROW_FAULTS = {
    (name, fake): f"{suite}-{name}"
    for suite, name, fake, *_ in reversed(FAULT_TABLE + ITERATION_FAULT_TABLE)
}
EVERY_FAULT = {fault_id: ("row", name, fake) for (name, fake), fault_id in ROW_FAULTS.items()}
EVERY_FAULT.update(
    (fault, ("shared", fault))
    for fault, (_, fake) in SHARED_FAULTS.items()
    if all(fake is not row_fake for _, row_fake in ROW_FAULTS)
)
# What computes each part one pass shares between suites, by its name in
# ``props``: PrunedBuilder builds the pruned term rows.
SHARED_PARTS = ["build_pruned", "build_expanded", "masked_iterates", "_lanes", "PrunedBuilder"]


def _count_calls(monkeypatch, names):
    """Wrap each named callable of ``props`` in a counter; returns the counts."""
    counts = dict.fromkeys(names, 0)

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    for name in names:
        monkeypatch.setattr(props, name, counted(name, getattr(props, name)))
    return counts


class TestOnePass:
    @pytest.mark.parametrize("fault", [None, *EVERY_FAULT], ids=["clean", *EVERY_FAULT])
    def test_check_all_reports_what_each_suite_reports(self, monkeypatch, fault):
        if fault is not None:
            kind, *spec = EVERY_FAULT[fault]
            (_inject_row if kind == "row" else _inject)(monkeypatch, *spec)
        failed = False
        for case in CASES:
            together = props.check_all(*case)
            assert together == {name: check(*case) for name, check in props.SUITES.items()}
            assert list(together) == list(props.SUITES)
            failed = failed or any(together.values())
        assert failed == (fault is not None)

    def test_each_shared_part_is_computed_once(self, monkeypatch):
        counts = _count_calls(monkeypatch, SHARED_PARTS)
        for case in CASES[:30] + WIDE_CASES[:1] + SHUFFLED_CASES[:1]:
            counts.update(dict.fromkeys(counts, 0))
            assert not any(props.check_all(*case).values())
            assert counts == dict.fromkeys(SHARED_PARTS, 1)

    def test_a_suite_alone_computes_only_what_it_reads(self, monkeypatch):
        counts = _count_calls(monkeypatch, SHARED_PARTS + ["build_pruned_reference"])
        system = parse_system("x = ?p & y; y = x | ?q;")
        assert props.SUITES["zero_prefix"](system) is None
        assert [name for name, count in counts.items() if count] == ["masked_iterates"]
        counts.update(dict.fromkeys(counts, 0))
        assert props.SUITES["equality"](system) is None
        assert [name for name, count in counts.items() if count] == [
            "build_pruned", "build_expanded"
        ]

    def test_only_the_suites_that_read_masked_sets_need_them(self):
        # a system too wide to sweep every masked set passes the other suites
        wide = gen_random_monotone(15, 0, 2, 3)
        names = ["equality", "pruned_le_expanded", "zero_prefix", "self_substitution", "memo_keys"]
        assert props.check_all(wide, None, None, names) == dict.fromkeys(names)
        for name in set(props.SUITES) - set(names):
            with pytest.raises(ValueError, match="exhaustive subset sweep is too large"):
                props.SUITES[name](wide)

    def test_prune_le_iterate_skips_the_full_set(self, monkeypatch):
        # the shared rows hold the full set too; it has no iterate -1 to be
        # bounded by, so even a pruned term read as all ones passes there
        system = parse_system("x = ?p | ?q; y = x & ?q;")
        monkeypatch.setattr(props, "node_values", _all_ones)
        assert props.SUITES["prune_le_iterate"](system, None, [frozenset({0, 1})]) is None
        assert props.SUITES["prune_le_iterate"](system, None, [frozenset({0})]) is not None

    def test_names_pick_the_suites_in_the_order_given(self):
        system = parse_system("x = ?p & y; y = x | ?q;")
        names = ("memo_keys", "zero_prefix")
        reports = props.check_all(system, (1, 0), None, names)
        assert list(reports.items()) == [(name, None) for name in names]

    def test_unknown_names_are_refused_before_any_suite_runs(self, monkeypatch):
        system = parse_system("x = ?p & y; y = x | ?q;")

        def no_pass(*args):
            raise AssertionError("the pass was built")

        monkeypatch.setattr(props, "_Pass", no_pass)
        for names in (["nope"], ["equality", "nope", "zero_prefix"], iter(["nope"])):
            with pytest.raises(ValueError, match="unknown suites: 'nope'"):
                props.check_all(system, names=names)


class TestIterateTable:
    def test_table_matches_masked_iteration(self):
        # a shorter run is a prefix of a longer one
        system = parse_system("a = 1; b = a & c; c = b | a;")
        for masked in props._all_subsets(system.n):
            table = masked_iterates(system, masked, system.n)
            assert len(table) == system.n + 1
            for m in range(system.n + 1):
                assert masked_iterates(system, masked, m) == table[: m + 1]


class TestSubsetHandling:
    @pytest.mark.parametrize("bad", [{5}, {-1}, {1, 5, 6}])
    @pytest.mark.parametrize(
        "name", ["prune_le_iterate", "masking_preserves_iterates", "masked_le_pruned"]
    )
    def test_index_outside_the_system_rejected(self, name, bad):
        system = parse_system("x = ?p & y; y = x | ?q;")
        subs = [frozenset(), frozenset({1}), frozenset(bad)]
        with pytest.raises(ValueError, match=re.escape(f"masked set {sorted(bad)} has")):
            props.SUITES[name](system, None, subs)

    def test_subset_guard(self):
        wide = gen_random_monotone(15, 0, 2, 3)
        with pytest.raises(ValueError):
            props.SUITES["masked_le_pruned"](wide)

    def test_partial_subsets_accepted(self):
        wide = gen_random_monotone(15, 0, 2, 3)
        subs = [frozenset(), frozenset({0, 3}), frozenset(range(14))]
        assert props.SUITES["masked_le_pruned"](wide, None, subs) is None
        assert props.SUITES["masking_preserves_iterates"](wide, None, subs) is None


class TestExhaustiveTinySystems:
    def test_depth_two_grammar_n2(self):
        # every two-equation system over the depth-2 grammar passes every
        # suite; the acceptance module extends this to n = 3
        formulas = _depth2_formulas(2)
        names = ("x1", "x2")
        count = 0
        for f0 in formulas:
            for f1 in formulas:
                system = System((f0, f1), names)
                for check in props.SUITES.values():
                    assert check(system) is None
                count += 1
        assert count == len(formulas) ** 2


def _depth2_formulas(n):
    from bes.core import And, Or

    leaves = [Const(0), Const(1)] + [Var(i) for i in range(n)]
    out = list(leaves)
    for a in leaves:
        for b in leaves:
            out.append(And(a, b))
            out.append(Or(a, b))
    return out
