import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bes import props
from bes.core import (
    And,
    Const,
    Or,
    Param,
    System,
    Var,
    _iterates,
    _run,
    _settle,
    decode_param_slice,
    greatest_fixpoint,
    kleene_lfp,
    masked_iterates,
    param_masks,
    support,
)
from bes.gen import gen_random_monotone
from bes.text import parse_system
from formula_oracle import eval_formula
from masked_oracle import zero_own_variable


def systems(max_n=5, max_params=2, max_depth=4):
    return st.builds(
        gen_random_monotone,
        st.integers(1, max_n),
        st.integers(0, max_params),
        st.integers(1, max_depth),
        st.integers(0, 2**32),
    )


def all_valuations(n):
    return [tuple((m >> i) & 1 for i in range(n)) for m in range(1 << n)]


def all_params(np):
    return [tuple((m >> k) & 1 for k in range(np)) for m in range(1 << np)]


def step(s, x, p=(), ones=1):
    """One parallel application of all equations to x."""
    return tuple(eval_formula(f, x, p, ones) for f in s.formulas)


def tuple_le(x, y):
    """Componentwise order on valuations of one length."""
    if len(x) != len(y):
        raise ValueError("valuations of different length are incomparable")
    return all(a <= b for a, b in zip(x, y))


def compiled(s, i, x, p, ones=1):
    """f_i of s under x and p, through the gate list s compiled for it."""
    slots = [x[v] for v in s._supports[i]]
    for bits in p:
        slots += [bits, bits ^ ones]
    return _run(s._programs[i], slots, ones)


def system_of(formulas, n, num_params):
    """The formulas as the first equations of a system over at least n variables."""
    formulas = tuple(formulas) + (Const(0),) * (n - len(formulas))
    names = tuple(f"x{i}" for i in range(len(formulas)))
    return System(formulas, names, tuple(f"p{k}" for k in range(num_params)))


def run_formula(f, x, p, ones=1):
    """f under x and p, as equation 0 of a system over len(x) variables."""
    return compiled(system_of([f], len(x), len(p)), 0, x, p, ones)


def brute(f, x, p):
    """Truth-table interpreter of one scalar assignment."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Var):
        return x[f.index]
    if isinstance(f, Param):
        return 1 - p[f.index] if f.negated else p[f.index]
    l, r = brute(f.left, x, p), brute(f.right, x, p)
    return l and r if isinstance(f, And) else l or r


def agree_on_every_lane(formulas, n, num_params):
    """Evaluate each formula, as an equation of one system, over every
    assignment of n variables and num_params parameters: packed in one run
    against the tree-walk oracle, and lane by lane, scalar, against the
    oracle and the truth table."""
    s = system_of(formulas, n, num_params)
    masks, ones = param_masks(n + num_params)
    x, p = masks[:n], masks[n:]
    lanes = [
        (decode_param_slice(n, j), decode_param_slice(num_params, j >> n))
        for j in range(ones.bit_length())
    ]
    for i, f in enumerate(formulas):
        packed = compiled(s, i, x, p, ones)
        assert packed == eval_formula(f, x, p, ones), f
        for j, (xj, pj) in enumerate(lanes):
            bit = compiled(s, i, xj, pj)
            assert bit == eval_formula(f, xj, pj) == brute(f, xj, pj) == (packed >> j) & 1, (f, j)


class TestEvalFormula:
    """``System._programs`` run by ``core._run`` against the tree-walk oracle."""

    def test_const(self):
        assert run_formula(Const(0), (1, 1), ()) == 0
        assert run_formula(Const(1), (0,), ()) == 1
        assert run_formula(Const(1), (0,), (), ones=0b111) == 0b111

    def test_projection(self):
        assert run_formula(Var(0), (1, 0), ()) == 1
        assert run_formula(Var(1), (1, 0), ()) == 0

    def test_nested(self):
        # a & (b | 1) at x=(1,0); truth-table check by hand: 1 & (0 | 1) = 1
        f = And(Var(0), Or(Var(1), Const(1)))
        assert run_formula(f, (1, 0), ()) == 1
        assert run_formula(f, (0, 1), ()) == 0

    def test_param_polarity(self):
        assert run_formula(Param(0), (), (1,)) == 1
        assert run_formula(Param(0, negated=True), (), (1,)) == 0
        assert run_formula(Param(0, negated=True), (), (0,)) == 1
        assert run_formula(And(Param(1, True), Param(0)), (), (0b01, 0b10), ones=0b11) == 0b01

    def test_truth_table_oracle(self):
        f = Or(And(Var(0), Param(0, True)), And(Var(1), Or(Const(0), Param(1))))
        agree_on_every_lane([f], 2, 2)

    def test_every_formula_of_depth_two(self):
        # every And/Or tree of depth at most 2 over three variables, both
        # constants and both literals of one parameter
        leaves = [Const(0), Const(1), Var(0), Var(1), Var(2), Param(0), Param(0, True)]
        shallow = leaves + [op(a, b) for op in (And, Or) for a in leaves for b in leaves]
        formulas = leaves + [op(a, b) for op in (And, Or) for a in shallow for b in shallow]
        assert len(formulas) == 7 + 2 * 105 * 105
        agree_on_every_lane(formulas, 3, 1)

    def test_emitter_corpus(self):
        from test_emit import corpus

        for s, _ in corpus():
            agree_on_every_lane(s.formulas, s.n, s.num_params)


class TestStep:
    def test_hand_iteration(self):
        s = parse_system("a = 1; b = a & c; c = b | a;")
        assert step(s, (0, 0, 0)) == (1, 0, 0)
        assert step(s, (1, 0, 0)) == (1, 0, 1)

    def test_identity(self):
        s = parse_system("x = x;")
        assert step(s, (0,)) == (0,)

    def test_fixpoint_of_top(self):
        s = parse_system("x = x | y; y = x & y;")
        assert step(s, (1, 1)) == (1, 1)


class TestKleene:
    def test_bottom_already_fixed(self):
        s = parse_system("x = x;")
        assert kleene_lfp(s) == ((0,), 0)

    def test_three_steps(self):
        # (0,0,0) -> (1,0,0) -> (1,0,1) -> (1,1,1) -> fixed
        s = parse_system("a = 1; b = a & c; c = b | a;")
        assert kleene_lfp(s) == ((1, 1, 1), 3)

    def test_one_step(self):
        # (0,0) -> (1,0) -> fixed
        s = parse_system("x = y | 1; y = x & y;")
        assert kleene_lfp(s) == ((1, 0), 1)

    @given(systems())
    @settings(max_examples=150, deadline=None)
    def test_depth_bounded_and_fixed(self, s):
        p = (0,) * s.num_params
        value, depth = kleene_lfp(s, p)
        assert depth <= s.n
        assert step(s, value, p) == value

    def test_least_among_all_fixpoints(self):
        # exhaustive minimality check on small instances
        for seed in range(60):
            s = gen_random_monotone(seed % 4 + 1, seed % 3, 3, seed)
            for p in all_params(s.num_params):
                lfp, _ = kleene_lfp(s, p)
                fixed = [x for x in all_valuations(s.n) if step(s, x, p) == x]
                assert lfp in fixed
                assert all(tuple_le(lfp, x) for x in fixed)

    def test_non_monotone_detected(self):
        # a negation smuggled in via object construction, not the parser
        s = System.__new__(System)
        object.__setattr__(s, "formulas", (NotFormula(Var(0)),))
        object.__setattr__(s, "var_names", ("x",))
        object.__setattr__(s, "param_names", ())
        with pytest.raises((RuntimeError, TypeError)):
            kleene_lfp(s)


class TestParameterLength:
    """A parameter tuple gives exactly one bit, or mask, per parameter."""

    def entry_points(self, s, p, ones=1):
        from bes.dag import build_expanded, build_pruned, eval_dag, node_values

        calls = {
            "kleene_lfp": lambda: kleene_lfp(s, p, ones),
            "masked_iterates": lambda: masked_iterates(s, frozenset(), 2, p, ones),
            "masked_iterates m=0": lambda: masked_iterates(s, frozenset(), 0, p, ones),
            "node_values": lambda: node_values(build_pruned(s), s, p, ones),
            "eval_dag": lambda: eval_dag(build_expanded(s), s, p, ones),
        }
        if ones == 1 and type(ones) is int:  # it takes no mask, so not True or 1.0
            calls["greatest_fixpoint"] = lambda: greatest_fixpoint(s, p)
        return calls

    @pytest.mark.parametrize("p", [(), (1,), (1, 1, 1)])
    def test_wrong_length_rejected(self, p):
        s = parse_system("x = ?p & y; y = x | ?q;")
        for call in self.entry_points(s, p).values():
            with pytest.raises(ValueError, match="parameter bits"):
                call()

    def test_packed_masks_of_the_wrong_length_rejected(self):
        s = parse_system("x = ?p & y; y = x | ?q;")
        masks, ones = param_masks(2)
        for p in (masks[:1], masks + masks[:1]):
            for call in self.entry_points(s, p, ones).values():
                with pytest.raises(ValueError, match="parameter bits"):
                    call()
        for call in self.entry_points(s, masks, ones).values():
            call()

    @pytest.mark.parametrize("bits", [2, -1])
    def test_entries_outside_the_mask_rejected(self, bits):
        s = parse_system("x = ?p & y; y = x | ?q;")
        for call in self.entry_points(s, (0, bits)).values():
            with pytest.raises(ValueError, match="outside the 1-bit mask"):
                call()

    def test_packed_mask_wider_than_ones_rejected(self):
        s = parse_system("x = ?p & y; y = x | ?q;")
        masks, ones = param_masks(2)
        for call in self.entry_points(s, (masks[0], masks[1] | (ones + 1)), ones).values():
            with pytest.raises(ValueError, match="outside the 4-bit mask"):
                call()

    @pytest.mark.parametrize("ones", [-1, 0, 2, 6, 12, True, 1.0, 3.0, None])
    def test_lane_mask_not_all_ones_rejected(self, ones):
        # -1 once gave x = -1, and 6 gave x = 6 with a wrong "3-bit mask" message
        s = parse_system("x = y | !?a; y = x & ?b;")
        for call in self.entry_points(s, (0, 0), ones).values():
            with pytest.raises(ValueError, match="lane mask"):
                call()

    def test_lane_masks_of_every_width_accepted(self):
        s = parse_system("x = y | !?a; y = x & ?b;")
        for width in (1, 2, 7, 64, 65):
            ones = (1 << width) - 1
            assert kleene_lfp(s, (0, 0), ones) == ((ones, 0), 1)
            for call in self.entry_points(s, (0, ones), ones).values():
                call()

    @pytest.mark.parametrize("bits", [True, False, 1.0, 0.0, "1", None])
    def test_parameter_bits_that_are_not_ints_rejected(self, bits):
        s = parse_system("x = ?p & y; y = x | ?q;")
        for ones in (1, 0b11):
            for call in self.entry_points(s, (0, bits), ones).values():
                with pytest.raises(ValueError, match="not an int"):
                    call()
        with pytest.raises(ValueError, match="not an int"):
            props.check_all(s, (0, bits))

    def test_check_all_refuses_bits_outside_one_lane(self):
        s = parse_system("x = ?p & y; y = x | ?q;")
        with pytest.raises(ValueError, match="outside the 1-bit mask"):
            props.check_all(s, (0, 2))
        assert props.check_all(s, (0, 1)) == dict.fromkeys(props.SUITES)

    def test_parameter_free_system_takes_the_empty_tuple(self):
        s = parse_system("x = y; y = x | 1;")
        assert kleene_lfp(s) == ((1, 1), 2)
        for call in self.entry_points(s, ()).values():
            call()
        for call in self.entry_points(s, (0,)).values():
            with pytest.raises(ValueError, match="parameter bits"):
                call()


class TestParamMasks:
    def test_masks_are_their_definition(self):
        # bit j of mask k is bit k of assignment j
        for num_params in range(11):
            masks, ones = param_masks(num_params)
            width = 1 << num_params
            assert ones == (1 << width) - 1
            assert masks == tuple(
                sum(1 << j for j in range(width) if j >> k & 1) for k in range(num_params)
            )


class NotFormula:
    """Stand-in node that is not part of the grammar."""

    def __init__(self, inner):
        self.inner = inner


class TestMaskedIteration:
    def test_all_masked_stays_bottom(self):
        s = parse_system("a = 1; b = a & c; c = b | a;")
        for m in range(4):
            assert masked_iterates(s, frozenset({0, 1, 2}), m)[m] == (0, 0, 0)

    def test_empty_mask_reaches_lfp(self):
        s = parse_system("a = 1; b = a & c; c = b | a;")
        assert masked_iterates(s, frozenset(), s.n)[s.n] == kleene_lfp(s)[0]

    def test_masking_first_equation(self):
        # with a pinned to 0 nothing ever rises
        s = parse_system("a = 1; b = a & c; c = b | a;")
        assert masked_iterates(s, frozenset({0}), 3)[3] == (0, 0, 0)

    def test_zero_iterations(self):
        s = parse_system("x = 1; y = 1;")
        assert masked_iterates(s, frozenset(), 0)[0] == (0, 0)

    @pytest.mark.parametrize("index", [99, 2, -1])
    def test_index_outside_the_system_rejected(self, index):
        # the suites refuse the same masked set with the same message
        s = parse_system("x = y; y = 1;")
        message = rf"masked set \[{index}\] has an index outside 0\.\.1"
        with pytest.raises(ValueError, match=message):
            masked_iterates(s, frozenset({index}), 3)
        with pytest.raises(ValueError, match=message):
            props.SUITES["masked_le_pruned"](s, None, [frozenset({index})])


def definitional_fixpoint(s, start, p, ones):
    """Apply every equation in every round, from ``start`` in every slot,
    until the iterate stops changing: the least fixpoint from 0, the
    greatest from ``ones``."""
    x = (start,) * s.n
    for k in range(s.n + 1):
        nxt = step(s, x, p, ones)
        if nxt == x:
            return x, k
        x = nxt
    raise RuntimeError("no fixpoint within n + 1 rounds")


def definitional_iterates(s, masked, m, p, ones):
    """x^0 .. x^m of the system with the equations in ``masked`` pinned to 0."""
    x = (0,) * s.n
    out = [x]
    for _ in range(m):
        x = tuple(0 if i in masked else b for i, b in enumerate(step(s, x, p, ones)))
        out.append(x)
    return out


class TestChangeDrivenIteration:
    """Re-evaluating only the readers of changed variables gives the same
    iterates, fixpoint and depth as applying every equation every round."""

    def test_matches_definitional_loop(self):
        for seed in range(1000):
            s = gen_random_monotone(seed % 8 + 1, seed % 4, 3, seed)
            runs = [(p, 1) for p in all_params(s.num_params)]
            runs.append(param_masks(s.num_params))
            masked_sets = [frozenset()]
            if s.n <= 5:
                masked_sets = [
                    frozenset(i for i in range(s.n) if (bits >> i) & 1)
                    for bits in range(1 << s.n)
                ]
            for p, ones in runs:
                assert kleene_lfp(s, p, ones) == definitional_fixpoint(s, 0, p, ones)
                for masked in masked_sets:
                    expected = definitional_iterates(s, masked, s.n + 1, p, ones)
                    for m in range(s.n + 2):
                        assert masked_iterates(s, masked, m, p, ones) == expected[: m + 1]

    def test_lane_masks_match_definitional_loop(self):
        # each equation gets its own live mask: 0 in every lane, all-ones or
        # mixed; lane j is then the iteration masked by the equations whose
        # live bit j is 0, at the parameters' bit j
        rng = random.Random(29)
        kinds = Counter()
        for seed in range(400):
            s = gen_random_monotone(seed % 7 + 1, seed % 3, 3, seed)
            width = rng.randint(1, 9)
            ones = (1 << width) - 1
            live = [rng.choice((0, ones, rng.randint(0, ones))) for _ in range(s.n)]
            p = tuple(rng.randint(0, ones) for _ in range(s.num_params))
            kinds.update("none" if not m else "all" if m == ones else "mixed" for m in live)
            got = _iterates(s, live, s.n + 1, p, ones)
            for j in range(width):
                masked = frozenset(i for i in range(s.n) if not live[i] >> j & 1)
                lane = tuple(bits >> j & 1 for bits in p)
                expected = definitional_iterates(s, masked, s.n + 1, lane, 1)
                assert [tuple(v >> j & 1 for v in x) for x in got] == expected, (seed, j)
        assert min(kinds["none"], kinds["all"], kinds["mixed"]) > 100, kinds

    def test_gfp_matches_descending_loop(self):
        for seed in range(1000):
            s = gen_random_monotone(seed % 8 + 1, seed % 4, 3, seed)
            for p in all_params(s.num_params):
                assert greatest_fixpoint(s, p) == definitional_fixpoint(s, 1, p, 1), (seed, p)

    def test_chain_costs_linear_evaluations(self, monkeypatch):
        import bes.core

        n = 1000
        s = parse_system("d0 = 1;\n" + "".join(f"d{i} = d{i - 1};\n" for i in range(1, n)))
        calls = 0
        real = bes.core._run

        def counting(program, slots, ones):
            nonlocal calls
            calls += 1
            return real(program, slots, ones)

        monkeypatch.setattr(bes.core, "_run", counting)
        assert kleene_lfp(s) == ((1,) * n, n)
        # n in the first round, then one reader per round; the round-based
        # loop made n * (n + 1)
        assert calls <= 2 * n

    def test_oscillation_raises_after_n_plus_1_rounds(self, monkeypatch):
        import bes.core

        s = parse_system("a = b; b = c; c = a;")
        calls = 0

        def negated(program, slots, ones):
            nonlocal calls
            calls += 1
            return slots[program[1]] ^ ones

        monkeypatch.setattr(bes.core, "_run", negated)
        with pytest.raises(RuntimeError, match="lattice height"):
            kleene_lfp(s)
        assert calls == s.n * (s.n + 1)


class TestSupportCache:
    TEXT = "a = b & ?p; b = a | c; c = 1;"

    def test_cache_is_invisible(self):
        import dataclasses

        from bes.dag import build_pruned

        caches = {"_supports", "_readers", "_programs", "_cones"}
        warm, cold = parse_system(self.TEXT), parse_system(self.TEXT)
        fields_before = dataclasses.fields(warm)
        assert warm.supports() == [(1,), (0, 2), ()]
        kleene_lfp(warm, (1,))
        assert "_cones" not in vars(warm)  # iteration needs no cones
        build_pruned(warm)
        assert caches <= vars(warm).keys() and not caches & vars(cold).keys()
        assert warm == cold and cold == warm
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert dataclasses.fields(warm) == fields_before
        assert [f.name for f in fields_before] == ["formulas", "var_names", "param_names"]
        assert dataclasses.replace(warm) == cold
        renamed = dataclasses.replace(warm, var_names=("u", "v", "w"))
        assert not caches & vars(renamed).keys()
        assert renamed._programs == warm._programs == cold._programs
        assert renamed._cones == warm._cones == cold._cones == (0b111, 0b111, 0b100)

    def test_returned_list_is_a_copy(self):
        s = parse_system(self.TEXT)
        got = s.supports()
        got[0] = (2,)
        got.append((0,))
        assert s.supports() == [(1,), (0, 2), ()]
        assert kleene_lfp(s, (1,)) == ((1, 1, 1), 3)


class TestSupport:
    def test_constant(self):
        assert support(Const(0)) == frozenset()

    def test_duplicates_collapse(self):
        f = And(Var(0), Or(Var(1), Var(0)))
        assert support(f) == frozenset({0, 1})

    def test_projection_of_two(self):
        assert support(And(Var(0), Var(1))) == frozenset({0, 1})

    def test_params_do_not_count(self):
        assert support(Or(Param(0), Const(1))) == frozenset()


class TestTupleOrder:
    def test_examples(self):
        assert tuple_le((0, 0), (1, 0))
        assert not tuple_le((1, 0), (0, 1))
        assert tuple_le((0, 0, 0), (1, 1, 0))

    def test_bottom_below_everything(self):
        for x in all_valuations(3):
            assert tuple_le((0, 0, 0), x)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tuple_le((0,), (0, 0))


class TestDualize:
    def test_identity_system_self_dual(self):
        s = parse_system("x = x;")
        assert greatest_fixpoint(s) == ((1,), 0)

    def test_and_zero(self):
        s = parse_system("x = x & 0;")
        assert greatest_fixpoint(s) == ((0,), 1)

    @given(systems(max_n=4, max_params=2))
    @settings(max_examples=80, deadline=None)
    def test_gfp_is_complement_of_dual_lfp(self, s):
        for p in all_params(s.num_params):
            gfp, _ = greatest_fixpoint(s, p)
            assert step(s, gfp, p) == gfp
            fixed = [x for x in all_valuations(s.n) if step(s, x, p) == x]
            assert all(tuple_le(x, gfp) for x in fixed)


class TestAscentAndMonotonicity:
    @given(systems(max_params=1))
    @settings(max_examples=120, deadline=None)
    def test_iterates_ascend(self, s):
        p = (0,) * s.num_params
        x = (0,) * s.n
        for _ in range(s.n):
            nxt = step(s, x, p)
            assert tuple_le(x, nxt)
            x = nxt

    def test_step_monotone_exhaustive_small(self):
        for seed in range(40):
            s = gen_random_monotone(seed % 4 + 1, 0, 3, seed + 1000)
            vals = all_valuations(s.n)
            for x in vals:
                for y in vals:
                    if tuple_le(x, y):
                        assert tuple_le(step(s, x), step(s, y))

    @given(systems(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_step_monotone_random_pairs(self, s, data):
        p = (0,) * s.num_params
        y = tuple(data.draw(st.integers(0, 1)) for _ in range(s.n))
        x = tuple(b & data.draw(st.integers(0, 1)) for b in y)
        assert tuple_le(step(s, x, p), step(s, y, p))

    @given(systems(max_n=4))
    @settings(max_examples=60, deadline=None)
    def test_semantic_check_accepts_grammar(self, s):
        # exhaustive over every state pair and every parameter assignment
        vals = all_valuations(s.n)
        for p in all_params(s.num_params):
            images = {x: step(s, x, p) for x in vals}
            for x in vals:
                for y in vals:
                    if tuple_le(x, y):
                        assert tuple_le(images[x], images[y])


class TestSelfSubstitution:
    def test_lfp_unchanged_by_zeroing_own_variable(self):
        for seed in range(80):
            s = gen_random_monotone(seed % 4 + 1, seed % 2, 4, seed)
            for i in range(s.n):
                rewritten = zero_own_variable(s, i)
                for p in all_params(s.num_params):
                    assert kleene_lfp(s, p)[0] == kleene_lfp(rewritten, p)[0]

    @pytest.mark.parametrize("swept", [True, False], ids=["swept", "explicit"])
    def test_lane_blocks_are_the_rewritten_fixpoints(self, swept):
        # block 0 of the lane settle is the system's least fixpoint, block
        # i + 1 that of the system with x_i replaced by 0 inside f_i
        rng = random.Random(1984)
        for _ in range(120):
            s = gen_random_monotone(rng.randint(1, 8), rng.randint(0, 3), 4, rng.randrange(2**62))
            if swept:
                pbits, ones = param_masks(s.num_params)
            else:
                pbits, ones = tuple(rng.randint(0, 1) for _ in range(s.num_params)), 1
            width = ones.bit_length()
            lanes = props._self_substituted(s, pbits, ones)
            blocks = [tuple(v >> k * width & ones for v in lanes) for k in range(s.n + 1)]
            assert blocks[0] == kleene_lfp(s, pbits, ones)[0]
            for i in range(s.n):
                assert blocks[i + 1] == kleene_lfp(zero_own_variable(s, i), pbits, ones)[0]

    def test_own_variable_reads_zero_from_a_top_start(self):
        # x = x; from all ones: block 0 stays 1, while block 1 reads x as 0
        # inside its own equation and falls to 0, the gfp of x = 0
        s = parse_system("x = x;")
        assert _settle(s, [0b11], (), 0b11, [0b10]) == ((0b01,), 1)
        assert greatest_fixpoint(s) == ((1,), 0)
        assert greatest_fixpoint(zero_own_variable(s, 0)) == ((0,), 1)

    def test_top_start_blocks_are_the_rewritten_gfps(self):
        # where own matters: from all ones, block i + 1 settles to the greatest
        # fixpoint of the system with x_i replaced by 0 inside f_i
        rng = random.Random(1997)
        for _ in range(120):
            s = gen_random_monotone(rng.randint(1, 8), rng.randint(0, 3), 4, rng.randrange(2**62))
            p = tuple(rng.randint(0, 1) for _ in range(s.num_params))
            every = (1 << s.n + 1) - 1
            own = [1 << i + 1 for i in range(s.n)]
            lanes, _ = _settle(s, [every] * s.n, tuple(every * b for b in p), every, own)
            assert tuple(v & 1 for v in lanes) == greatest_fixpoint(s, p)[0]
            for i in range(s.n):
                block = tuple(v >> i + 1 & 1 for v in lanes)
                assert block == greatest_fixpoint(zero_own_variable(s, i), p)[0]


class TestSystemValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            System((), ())

    def test_rejects_out_of_range_var(self):
        with pytest.raises(ValueError):
            System((Var(1),), ("x",))

    def test_rejects_clashing_names(self):
        with pytest.raises(ValueError):
            System((Var(0), Var(0)), ("x", "x"))
        with pytest.raises(ValueError):
            System((Param(0),), ("x",), ("x",))

    def test_rejects_constants_other_than_0_and_1(self):
        # Const(2) would solve to 1 but print as text the parser refuses, and
        # Const(1.0) and Const(True) print as "1.0" and "True"
        for value in (2, -1, 1.0, 0.0, True, False):
            with pytest.raises(ValueError, match="constant"):
                System((Or(Var(0), Const(value)),), ("x",))
        assert System((And(Const(1), Const(0)),), ("x",)).n == 1

    def test_rejects_non_formula_nodes(self):
        # caught here, not later as a TypeError deep inside _gate_list; _run
        # would treat MyAnd as a constant, so "a = b & a; b = 0;" would solve
        # to (1, 0) where its printed text solves to (0, 0)
        class MyAnd(And):
            pass

        for bad in ("junk", Or(Var(0), 1), And(None, Var(0)), MyAnd(Var(0), Var(0))):
            with pytest.raises(ValueError, match="not a formula node"):
                System((bad,), ("x",))
        with pytest.raises(ValueError, match="not a formula node"):
            System((MyAnd(Var(1), Var(0)), Const(0)), ("a", "b"))

    def test_rejects_a_polarity_other_than_a_bool(self):
        # negated=2 prints as "!?p" but its gate slot reads q's literal
        for negated in (2, 1, 0, None):
            with pytest.raises(ValueError, match="polarity a bool"):
                System((Param(0, negated=negated),), ("a",), ("p", "q"))
        for negated in (False, True):
            assert System((Param(0, negated),), ("a",), ("p", "q")).n == 1

    @pytest.mark.parametrize("node", [Var(1.0), Var(True), Param(1.0), Param(True)])
    def test_rejects_indices_other_than_ints(self, node):
        # Var(1.0) passes a range check, then fails as a TypeError deep inside
        # kleene_lfp, format_system and build_pruned
        with pytest.raises(ValueError, match="an index an int in range"):
            System((And(node, Var(0)), Const(1)), ("a", "b"), ("p", "q"))


class TestCounts:
    """The public counts follow the constructor's rule: an int, not a bool."""

    @pytest.mark.parametrize("m", [1.5, 2.0, True, "2"])
    def test_iteration_count(self, m):
        s = parse_system("x = y; y = 1;")
        with pytest.raises(ValueError, match="iteration count"):
            masked_iterates(s, frozenset(), m)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_unrolling_depth(self, k):
        from bes.dag import build_expanded

        s = parse_system("x = y; y = 1;")
        with pytest.raises(ValueError, match="unrolling depth"):
            build_expanded(s, k)


# The public functions and classes each reworked module defines.  Names
# retired from the package must not come back as stale exports; a new
# public name is added here on purpose.
DEFINED = {
    "core": {
        "And", "Const", "Or", "Param", "System", "Var",
        "decode_param_slice", "greatest_fixpoint", "kleene_lfp",
        "masked_iterates", "param_masks", "support",
    },
    "dag": {
        "Apply", "DagStats", "PrunedBuilder", "TermDag", "build_expanded",
        "build_pruned", "build_pruned_reference", "dag_stats", "eval_dag",
        "node_values", "with_top_leaves",
    },
    "props": {"Counterexample", "SuiteTally", "check_all", "run_random_battery"},
}


class TestPublicNames:
    def test_every_export_resolves(self):
        import bes

        for name in bes.__all__:
            assert getattr(bes, name) is not None, name
        submodules = {"cli", "core", "dag", "emit", "gen", "props", "text"}
        public = {n for n in dir(bes) if not n.startswith("_")} - submodules
        assert public == set(bes.__all__)

    def test_no_stale_names_in_submodules(self):
        import importlib
        import inspect
        import pkgutil

        import bes

        found = {m.name for m in pkgutil.iter_modules(bes.__path__)}
        assert found == {"cli", "core", "dag", "emit", "gen", "props", "text"}
        for name, expected in DEFINED.items():
            module = importlib.import_module(f"bes.{name}")
            defined = {
                attr
                for attr, obj in vars(module).items()
                if not attr.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
            }
            assert defined == expected, name

    def test_no_unused_imports(self):
        # no linter runs here: every name a top-level import binds in a
        # module of the package is read somewhere in that module
        import ast
        import pathlib

        import bes

        modules = sorted(pathlib.Path(bes.__file__).parent.glob("*.py"))
        assert len(modules) == 8
        for path in modules:
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            bound = set()
            for node in tree.body:
                if isinstance(node, ast.Import):
                    bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound.update(alias.asname or alias.name for alias in node.names)
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            assert bound - used == set(), path.name

    def test_every_private_name_is_used_in_the_package(self):
        # a private function, class, constant or class member that a module
        # of the package defines is read again in the package, outside its
        # own definition, so no helper is kept for tests alone
        import ast
        import pathlib

        import bes

        def reads(node):
            return Counter(
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
            )

        def definitions(body):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    yield node.name, node
                    if isinstance(node, ast.ClassDef):
                        yield from definitions(node.body)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        for n in ast.walk(target):
                            if isinstance(n, ast.Name):
                                yield n.id, node

        modules = sorted(pathlib.Path(bes.__file__).parent.glob("*.py"))
        trees = [ast.parse(path.read_text()) for path in modules]
        total = sum(map(reads, trees), Counter())
        private = [
            (name, node)
            for tree in trees
            for name, node in definitions(tree.body)
            if name.startswith("_") and not name.endswith("__")
        ]
        assert len(private) >= 75  # the walk reaches the helpers
        unused = [name for name, node in private if total[name] == reads(node)[name]]
        assert unused == []
