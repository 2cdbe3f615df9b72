"""The property suites on hand-picked and random systems.

Each check encodes one step of the chain of facts that makes the pruned
form correct; here they run against systems where the expected outcome is
known, plus a sweep asserting no random system ever trips any of them.
"""

import random
import re

import pytest

from bes import core, props
from bes.core import Const, System, Var, masked_iterates, param_masks
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

        def flip(out, lanes, n):
            block = lanes({0})
            out[1] = (out[1][0], out[1][1] ^ ((block & -block) << 2))

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

    ``edit(out, lanes, n)`` changes the iterate table ``out`` in place;
    ``lanes(masked)`` is the bits of the table whose masked set is exactly
    ``masked``.  That is every bit or none in a table of ``masked_iterates``,
    and one block of lanes in the packed table of the lane screens, so the
    same fault reaches both.
    """

    def fake(system, live, m, p, ones):
        out = _real_iterates(system, live, m, p, ones)

        def lanes(masked):
            got = ones
            for i, bits in enumerate(live):
                got &= ~bits if i in masked else bits
            return got

        edit(out, lanes, system.n)
        return out

    return fake


def _inject_iteration_fault(monkeypatch, fake):
    # masked_iterates reaches core._iterates, the lane screens props._iterates
    monkeypatch.setattr(core, "_iterates", fake)
    monkeypatch.setattr(props, "_iterates", fake)


def _reverse_plain(out, lanes, n):
    # the iterates of the empty masked set in reverse order
    plain = lanes(set())
    out[:] = [
        tuple(v & ~plain | r & plain for v, r in zip(a, b)) for a, b in zip(out, out[::-1])
    ]


def _flip_first_masked_iterate(out, lanes, n):
    # slice 0 of every coordinate of iterate 1, for every non-empty masked set
    flip = 0
    for masked in props._all_subsets(n)[1:]:
        block = lanes(masked)
        flip |= block & -block
    out[1] = tuple(v ^ flip for v in out[1])


_reversed_plain = _iteration_fault(_reverse_plain)
_flipped_first_masked_iterate = _iteration_fault(_flip_first_masked_iterate)


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
    ("self_substitution", "substitute_var", lambda f, i, by: Const(1), None, (0, 0),
     "zeroing x inside its own equation changed the fixpoint at x"),
    ("memo_keys", "build_pruned_reference", _unrolled_zero_times, None, (1, 0),
     "builders disagree at x"),
]


# Faults in masked iteration itself, on the same system with parameters swept.
# Their ids add the faked name, as "prune_le_iterate-packed" is taken above.
# A "masked_iterates" row fakes ``_iterates``, which masked_iterates and the
# lane screens both run, so the fault reaches the scalar tables and the lanes.
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
    if name == "masked_iterates":
        _inject_iteration_fault(monkeypatch, fake)
    else:
        monkeypatch.setattr(props, name, fake)
    assert props.SUITES[suite](system, params) == props.Counterexample(
        suite, system, reported, detail
    )


def _lag_one_round(out, lanes, n):
    out[1:] = out[:-1]


def _flip_under_first_pinned(out, lanes, n):
    # the last coordinate of iterate 1 in every slice of masked set {0}
    x = list(out[1])
    x[-1] ^= lanes({0})
    out[1] = tuple(x)


def _overshoot_last_round(out, lanes, n):
    # iterate n + 1, where a table has it, reads 1 in every lane
    if len(out) > n + 1:
        every = 0
        for masked in props._all_subsets(n):
            every |= lanes(masked)
        out[n + 1] = (every,) * n


def _leak_pinned(out, lanes, n):
    # every pinned equation reads 1 at iterate 1 of its masked sets
    x = list(out[1])
    for masked in props._all_subsets(n)[1:]:
        for i in masked:
            x[i] |= lanes(masked)
    out[1] = tuple(x)


_real_node_values = props.node_values


def _flip_last_node(dag, system, p=(), ones=1):
    values = _real_node_values(dag, system, p, ones)
    values[-1] ^= ones
    return values


def _zero_odd_nodes(dag, system, p=(), ones=1):
    values = _real_node_values(dag, system, p, ones)
    return [0 if tid % 2 and tid > 1 else v for tid, v in enumerate(values)]


# Faults that reach the scalar checks and the lane screens alike: in masked
# iteration through ``_iterates``, in the pruned values through node_values.
SHARED_FAULTS = {
    "flipped-first-masked-iterate": ("_iterates", _flipped_first_masked_iterate),
    "reversed-plain": ("_iterates", _reversed_plain),
    "lagging-round": ("_iterates", _iteration_fault(_lag_one_round)),
    "leaking-pinned": ("_iterates", _iteration_fault(_leak_pinned)),
    "flipped-under-first-pinned": ("_iterates", _iteration_fault(_flip_under_first_pinned)),
    "overshooting-last-round": ("_iterates", _iteration_fault(_overshoot_last_round)),
    "flipped-last-node": ("node_values", _flip_last_node),
    "zeroed-odd-nodes": ("node_values", _zero_odd_nodes),
}


def _inject(monkeypatch, fault):
    name, fake = SHARED_FAULTS[fault]
    if name == "_iterates":
        _inject_iteration_fault(monkeypatch, fake)
    else:
        monkeypatch.setattr(props, name, fake)


def _screen_corpus():
    rng = random.Random(20049)
    return [
        gen_random_monotone(rng.randint(1, 5), rng.randint(0, 2), 4, rng.randrange(2**62))
        for _ in range(300)
    ]


SCREEN_CORPUS = _screen_corpus()


def _screen_verdicts(suite, systems):
    """(scalar check fails, lane screen flags) per system.  Every other system
    is checked under one explicit assignment, the rest with all swept; every
    third on the masked sets without equation 0, the rest on all."""
    screen = props._SCREENS[suite]
    scalar = getattr(props, f"_{suite}")
    for k, system in enumerate(systems):
        if k % 2:
            pbits, ones = tuple(j % 2 for j in range(system.num_params)), 1
        else:
            pbits, ones = param_masks(system.num_params)
        subsets = props._all_subsets(system.n)[::2] if k % 3 == 2 else None
        fails = next(scalar(system, pbits, ones, subsets), None) is not None
        yield fails, screen(system, pbits, ones, subsets)


# The pairs where the fault makes the scalar check fail on some corpus system.
DIFFERENTIAL = [
    ("masking_preserves_iterates", "flipped-first-masked-iterate"),
    ("masking_preserves_iterates", "reversed-plain"),
    ("masking_preserves_iterates", "leaking-pinned"),
    ("masking_preserves_iterates", "flipped-under-first-pinned"),
    ("masked_le_pruned", "flipped-first-masked-iterate"),
    ("masked_le_pruned", "overshooting-last-round"),
    ("masked_le_pruned", "flipped-last-node"),
    ("masked_le_pruned", "zeroed-odd-nodes"),
]


class TestLaneScreens:
    @pytest.mark.parametrize("params", [None, (1, 0)])
    def test_lane_blocks_are_the_masked_iterates(self, params):
        # lane block S of the packed table is the S-masked iteration
        system = parse_system("a = ?p | b & c; b = a & ?q; c = b | c & !?p;")
        pbits, ones = param_masks(2) if params is None else (params, 1)
        subsets = [frozenset({2}), frozenset({0, 1})]
        lanes = props._lanes(system, pbits, ones, subsets)
        width = ones.bit_length()
        assert lanes.width == width and lanes.masks == [4, 3]
        for masked in props._all_subsets(system.n):
            mask = props._mask(masked)
            expected = masked_iterates(system, masked, system.n + 1, pbits, ones)
            block = [tuple(v >> mask * width & ones for v in x) for x in lanes.table]
            assert block == expected
            assert lanes.given >> mask * width & ones == (ones if mask in (3, 4) else 0)
            for i in range(system.n):
                assert lanes.without[i] >> mask * width & ones == (0 if i in masked else ones)

    @pytest.mark.parametrize("suite, fault", DIFFERENTIAL)
    def test_screen_flags_exactly_what_the_scalar_check_reports(self, monkeypatch, suite, fault):
        _inject(monkeypatch, fault)
        verdicts = list(_screen_verdicts(suite, SCREEN_CORPUS))
        assert any(fails for fails, _ in verdicts)
        assert [fails for fails, _ in verdicts] == [flags for _, flags in verdicts]

    @pytest.mark.parametrize("suite", list(props._SCREENS))
    def test_clean_corpus_is_not_flagged(self, suite):
        assert not any(any(v) for v in _screen_verdicts(suite, SCREEN_CORPUS))

    def test_flag_the_replay_passes_raises(self, monkeypatch):
        # a lane the scalar iteration does not share: the screen flags, the
        # replay finds nothing, and the suite refuses to pass
        system = parse_system("x = ?p & y; y = x | ?q;")
        monkeypatch.setattr(props, "_iterates", _lane_flipped(props._iterates))
        for suite in props._SCREENS:
            with pytest.raises(RuntimeError, match=f"{suite}: the lane screen flags"):
                props.SUITES[suite](system)


def _lane_flipped(iterates):
    # lane 0 (empty masked set, all parameters 0) of iterate 1, every coordinate
    def fake(system, live, m, p, ones):
        out = iterates(system, live, m, p, ones)
        out[1] = tuple(v ^ 1 for v in out[1])
        return out

    return fake


def _unmasked_lanes(iterates):
    # the lane iteration pins nothing: x_i <- f_i(x) in every lane
    return lambda system, live, m, p, ones: iterates(system, [ones] * len(live), m, p, ones)


def _lanes_patched(**changes):
    # the lane layout with some fields replaced after the iteration ran
    def make(lanes_of):
        def fake(system, pbits, ones, subsets):
            lanes = lanes_of(system, pbits, ones, subsets)
            return lanes._replace(**{k: f(lanes) for k, f in changes.items()})

        return fake

    return make


# Faults in the screens alone, each made from the name it stands in for.  Each
# must make some screen verdict on the corpus differ from the scalar check,
# clean or under a shared fault.
SCREEN_FAULTS = {
    "flipped-lane": ("_iterates", _lane_flipped),
    "unmasked-lanes": ("_iterates", _unmasked_lanes),
    "unrestricted-comparison": ("_lanes", _lanes_patched(
        without=lambda lanes: [-1] * len(lanes.without))),
    "doubled-width": ("_lanes", _lanes_patched(width=lambda lanes: 2 * lanes.width)),
    "misaligned-width": ("_lanes", _lanes_patched(width=lambda lanes: lanes.width + 1)),
}


@pytest.mark.parametrize("fault", list(SCREEN_FAULTS))
@pytest.mark.parametrize("suite", list(props._SCREENS))
def test_screen_fault_is_caught(monkeypatch, suite, fault):
    name, make = SCREEN_FAULTS[fault]
    for shared in (None, "flipped-first-masked-iterate"):
        with monkeypatch.context() as patch:
            if shared is not None:
                _inject(patch, shared)
            patch.setattr(props, name, make(getattr(props, name)))
            if any(fails != flags for fails, flags in _screen_verdicts(suite, SCREEN_CORPUS)):
                return
    pytest.fail(f"{fault} in the {suite} screen went unnoticed")


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
