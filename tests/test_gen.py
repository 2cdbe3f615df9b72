import pytest

from bes.core import Const, Var, kleene_lfp, support
from bes.dag import build_pruned, dag_stats
from bes.gen import FamilySpec, gen_family, gen_random_monotone


class TestFamilySpec:
    def test_chain_needs_even_arity(self):
        with pytest.raises(ValueError):
            FamilySpec("chain", 3)
        with pytest.raises(ValueError):
            FamilySpec("chain", 0)
        FamilySpec("chain", 8)

    def test_sparse3_is_fixed(self):
        with pytest.raises(ValueError):
            FamilySpec("sparse3", 4)
        FamilySpec("sparse3", 3)

    def test_density_range(self):
        with pytest.raises(ValueError):
            FamilySpec("random", 4, density=0.0)
        with pytest.raises(ValueError):
            FamilySpec("random", 4, density=1.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            FamilySpec("ring", 4)

    def test_arity_other_than_an_int(self):
        # complete at True built a one-equation system, and 3.0 failed in range()
        for family in ("chain", "complete", "sparse3", "random"):
            for n in (True, 3.0, 4.0, "4", None):
                with pytest.raises(ValueError, match="arity .* is not an int"):
                    FamilySpec(family, n)


    def test_seed_other_than_an_int(self):
        # random.Random(None) seeds from the OS: two equal specs, two systems
        for family, n in (("chain", 4), ("complete", 3), ("sparse3", 3), ("random", 6)):
            for seed in (None, True, 1.0, "1"):
                with pytest.raises(ValueError, match="seed .* is not an int"):
                    FamilySpec(family, n, seed=seed)

    def test_density_other_than_a_real_number(self):
        for density in (True, False, None, "0.5", 1j):
            with pytest.raises(ValueError, match="density .* is not a real number"):
                FamilySpec("random", 4, density=density)
        for density in (float("nan"), -0.5, 0, 2):
            with pytest.raises(ValueError, match=r"density must be in \(0, 1\]"):
                FamilySpec("random", 4, density=density)
        assert gen_family(FamilySpec("random", 4, density=1)).n == 4


class TestFamilies:
    def test_chain_supports_follow_parity(self):
        s = gen_family(FamilySpec("chain", 6))
        expected = [
            {0, 1}, {0, 1}, {2, 3}, {2, 3}, {4, 5}, {4, 5},
        ]
        assert [set(support(f)) for f in s.formulas] == expected

    def test_chain_n2_argument_pattern(self):
        s = gen_family(FamilySpec("chain", 2))
        from bes.core import Or

        assert s.formulas == (Or(Var(0), Var(1)), Or(Var(0), Var(1)))
        assert s.var_names == ("f1", "f2")

    def test_complete_supports_everything(self):
        s = gen_family(FamilySpec("complete", 5))
        assert all(support(f) == frozenset(range(5)) for f in s.formulas)

    def test_sparse3_supports(self):
        s = gen_family(FamilySpec("sparse3", 3))
        assert [set(support(f)) for f in s.formulas] == [{0, 1}, {0}, {1, 2}]
        assert s.var_names == ("x", "y", "z")

    def test_random_deterministic(self):
        a = gen_family(FamilySpec("random", 5, seed=7))
        b = gen_family(FamilySpec("random", 5, seed=7))
        assert a == b
        c = gen_family(FamilySpec("random", 5, seed=8))
        assert a != c

    def test_random_density_controls_support(self):
        dense = gen_family(FamilySpec("random", 30, seed=1, density=0.9))
        sparse = gen_family(FamilySpec("random", 30, seed=1, density=0.1))
        avg = lambda s: sum(len(support(f)) for f in s.formulas) / s.n
        assert avg(dense) > avg(sparse)


class TestRandomMonotone:
    def test_depth_one_means_leaves(self):
        for seed in range(30):
            s = gen_random_monotone(4, 0, 1, seed)
            assert all(isinstance(f, (Const, Var)) for f in s.formulas)

    def test_validator_accepts_output(self):
        # construction passes System validation for a spread of shapes
        for seed in range(50):
            gen_random_monotone(seed % 7 + 1, seed % 4, seed % 5 + 1, seed)

    def test_seeded_fixpoint_terminates(self):
        s = gen_random_monotone(3, 0, 4, 42)
        _, depth = kleene_lfp(s)
        assert depth <= 3

    def test_determinism(self):
        assert gen_random_monotone(5, 2, 4, 7) == gen_random_monotone(5, 2, 4, 7)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_random_monotone(0, 0, 1, 1)
        with pytest.raises(ValueError):
            gen_random_monotone(1, -1, 1, 1)
        with pytest.raises(ValueError):
            gen_random_monotone(1, 0, 0, 1)
        # the counts are ints and not bools, as at the other entry points
        for args, name in [
            ((True, 0, 2, 1), "n"),
            ((2.0, 0, 2, 1), "n"),
            ((2, False, 2, 1), "num_params"),
            ((2, 1.0, 2, 1), "num_params"),
            ((2, 0, 2.0, 1), "max_depth"),
            ((2, 0, True, 1), "max_depth"),
            ((2, 0, 2, None), "seed"),
            ((2, 0, 2, True), "seed"),
            ((2, 0, 2, 1.0), "seed"),
        ]:
            with pytest.raises(ValueError, match=f"{name} .* is not an int"):
                gen_random_monotone(*args)


class TestScaling:
    def test_chain_pruned_growth_is_linear(self):
        counts = {
            n: dag_stats(build_pruned(gen_family(FamilySpec("chain", n)))).apply_count
            for n in (8, 16, 32, 64)
        }
        assert all(counts[n] == 2 * n for n in counts)
        for n in (8, 16, 32):
            assert 1.8 <= counts[2 * n] / counts[n] <= 2.2

    def test_complete_pruned_count_formula(self):
        for n in range(1, 11):
            s = gen_family(FamilySpec("complete", n))
            assert dag_stats(build_pruned(s)).apply_count == n * 2 ** (n - 1)
