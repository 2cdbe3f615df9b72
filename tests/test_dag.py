import pytest
from hypothesis import given, settings, strategies as st

from bes.core import decode_param_slice, kleene_lfp, param_masks
from bes.dag import (
    Apply,
    BOTTOM,
    DagStats,
    PrunedBuilder,
    TOP,
    build_expanded,
    build_pruned,
    build_pruned_reference,
    dag_stats,
    eval_dag,
    node_values,
    with_top_leaves,
)
from bes.gen import FamilySpec, gen_family, gen_random_monotone
from bes.props import SUITES
from bes.text import parse_system
from formula_oracle import eval_formula
from pruned_oracle import PrunedOracle, dfs_cones
from test_emit import corpus


def systems(max_n=5, max_params=2, max_depth=4):
    return st.builds(
        gen_random_monotone,
        st.integers(1, max_n),
        st.integers(0, max_params),
        st.integers(1, max_depth),
        st.integers(0, 2**32),
    )


def tree_eval(dag, system, tid, p=()):
    """Oracle: evaluate the fully unshared tree below tid, no memoization."""
    if tid == BOTTOM:
        return 0
    if tid == TOP:
        return 1
    node = dag.node(tid)
    x = [0] * system.n
    for v, arg in node.args:
        x[v] = tree_eval(dag, system, arg, p)
    return eval_formula(system.formulas[node.func], tuple(x), p)


class TestExpanded:
    def test_single_unrolling(self):
        s = parse_system("x = x;")
        dag = build_expanded(s, 1)
        assert dag.node(dag.roots[0]) == Apply(0, ((0, BOTTOM),))

    def test_zero_depth_is_bottom(self):
        s = parse_system("x = x | y; y = x & y;")
        dag = build_expanded(s, 0)
        assert dag.roots == (BOTTOM, BOTTOM)
        assert eval_dag(dag, s) == (0, 0)

    def test_generic_n3_has_nine_applications(self):
        s = parse_system("f = f | g | h; g = f & g & h; h = (f | g) & h;")
        stats = dag_stats(build_expanded(s, 3))
        assert stats.apply_count == 9

    def test_chain_n4_counts(self):
        # recounted by hand: 4 levels x 4 equations, 2 edges each
        s = gen_family(FamilySpec("chain", 4))
        dag = build_expanded(s, 4)
        stats = dag_stats(dag)
        assert (stats.apply_count, stats.edge_count) == (16, 32)
        # independent recount by walking the node table
        applies = [dag.node(t) for t in dag.reachable() if t > TOP]
        assert len(applies) == 16
        assert sum(len(a.args) for a in applies) == 32

    @given(systems(), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_size_bound(self, s, k):
        assert dag_stats(build_expanded(s, k)).apply_count <= k * s.n

    @given(systems(max_params=0))
    @settings(max_examples=80, deadline=None)
    def test_under_unrolling_stays_below_lfp(self, s):
        lfp, _ = kleene_lfp(s)
        for k in range(s.n + 1):
            under = eval_dag(build_expanded(s, k), s)
            assert all(a <= b for a, b in zip(under, lfp))


class TestPruned:
    def test_n2_generic_structure(self):
        s = parse_system("f = f | g; g = f & g;")
        dag = build_pruned(s)
        f_root, g_root = dag.roots
        g_inner = dag.node(f_root).args[1][1]
        assert dag.node(f_root) == Apply(0, ((0, BOTTOM), (1, g_inner)))
        assert dag.node(g_inner) == Apply(1, ((0, BOTTOM), (1, BOTTOM)))
        f_inner = dag.node(g_root).args[0][1]
        assert dag.node(g_root) == Apply(1, ((0, f_inner), (1, BOTTOM)))
        assert dag.node(f_inner) == Apply(0, ((0, BOTTOM), (1, BOTTOM)))

    def test_builder_takes_masked_sets_as_bitmasks(self):
        # bit i of the mask masks equation i
        s = parse_system("f = f | g; g = f & g;")
        builder = PrunedBuilder(s)
        assert builder.term(0b01, 0) == BOTTOM and builder.term(0b11, 1) == BOTTOM
        g_under_f = builder.term(0b01, 1)
        assert builder.dag.node(g_under_f) == Apply(1, ((0, BOTTOM), (1, BOTTOM)))
        f_under_g = builder.term(0b10, 0)
        assert builder.dag.node(f_under_g) == Apply(0, ((0, BOTTOM), (1, BOTTOM)))
        assert builder.term(0, 0) != builder.term(0, 1)

    def test_args_cover_support_in_order(self):
        s = parse_system("a = c | b; b = a; c = 1;")
        dag = build_pruned(s)
        node = dag.node(dag.roots[0])
        assert [v for v, _ in node.args] == [1, 2]

    def test_hand_evaluation(self):
        # f(bot, g(bot,bot)): g(bot,bot)=0, 0|1=1; g(f(bot,..), bot)=1&0=0
        s = parse_system("x = y | 1; y = x & y;")
        assert eval_dag(build_pruned(s), s) == (1, 0)

    def test_cross_check_against_iteration(self):
        s = parse_system("a = 1; b = a & c; c = b | a;")
        assert eval_dag(build_pruned(s), s) == kleene_lfp(s)[0]

    def test_acyclic_and_hash_consed(self):
        s = gen_random_monotone(6, 0, 4, 99)
        dag = build_pruned(s)
        seen = set()
        for tid in range(2, len(dag)):
            node = dag.node(tid)
            assert all(arg < tid for _, arg in node.args)
            assert node not in seen
            seen.add(node)

    @given(systems(max_n=4, max_params=1))
    @settings(max_examples=60, deadline=None)
    def test_eval_equals_unshared_tree_oracle(self, s):
        dag = build_pruned(s)
        if dag_stats(dag).tree_size > 3000:
            return
        p = (0,) * s.num_params
        values = eval_dag(dag, s, p)
        for i, root in enumerate(dag.roots):
            assert values[i] == tree_eval(dag, s, root, p)

    @given(systems(max_n=4, max_params=2))
    @settings(max_examples=80, deadline=None)
    def test_memo_key_restriction_is_sound(self, s):
        reference = build_pruned_reference(s)
        canonical = build_pruned(s)
        P = s.num_params
        for p in [decode_param_slice(P, j) for j in range(1 << P)]:
            assert eval_dag(canonical, s, p) == eval_dag(reference, s, p)

    def test_disconnected_components_share_via_key_restriction(self):
        # two independent 2-cliques: restricted keys ignore the other half
        s = parse_system("a = a | b; b = a & b; c = c | d; d = c & d;")
        assert len(build_pruned(s)) <= len(build_pruned_reference(s))

    def test_key_restriction_saves_rebuilding(self, monkeypatch):
        # along the line x0 = x1, ..., x29 = 1 each x_i is first reached with
        # x0..x_{i-1} masked; restricted to the cone of x_i that mask is
        # empty, so the later roots hit the memo instead of rebuilding
        from bes.dag import TermDag

        n = 30
        s = parse_system(" ".join(f"x{i} = x{i + 1};" for i in range(n - 1)) + f" x{n - 1} = 1;")
        calls = []
        original = TermDag._intern
        monkeypatch.setattr(
            TermDag, "_intern", lambda dag, func, args: calls.append(func) or original(dag, func, args)
        )
        assert len(build_pruned(s)) == n + 2 and len(calls) == n
        calls.clear()
        assert len(build_pruned_reference(s)) == n + 2 and len(calls) == n * (n + 1) // 2

    def test_memo_key_equivalence_exhaustive_n_le_4(self):
        # builders consult supports only, so checking structural equality of
        # the two builders' roots over every support pattern covers every
        # system of that arity, whatever the formulas
        from itertools import product

        from bes.core import Const, Or, System, Var

        def formula_with_support(members):
            if not members:
                return Const(0)
            f = Var(members[0])
            for v in members[1:]:
                f = Or(f, Var(v))
            return f

        for n in range(1, 5):
            names = tuple(f"x{i}" for i in range(n))
            subsets = [tuple(i for i in range(n) if (m >> i) & 1) for m in range(1 << n)]
            for pattern in product(subsets, repeat=n):
                s = System(tuple(formula_with_support(p) for p in pattern), names)
                canonical = build_pruned(s)
                reference = build_pruned_reference(s)
                assert _same_terms(canonical, reference), pattern


def oracle_shapes():
    """Random systems, every family at small n, and the cycles and paths the
    key restriction is most sensitive to."""
    shapes = [
        gen_random_monotone(n, p, d, seed)
        for n in range(1, 9) for p in (0, 2) for d in (1, 4) for seed in range(6)
    ]
    shapes += [gen_family(FamilySpec("chain", n)) for n in (2, 4, 6, 8)]
    shapes += [gen_family(FamilySpec("complete", n)) for n in range(1, 7)]
    shapes += [gen_family(FamilySpec("sparse3", 3))]
    shapes += [gen_family(FamilySpec("random", n, seed, 0.3)) for n in (5, 8) for seed in range(4)]
    shapes += [
        parse_system("a = b; b = c; c = a | d; d = 1;"),
        parse_system("a = a | b; b = a & b; c = c | d; d = c & d;"),
        parse_system(" ".join(f"c{i} = c{(i + 1) % 9};" for i in range(9))),
    ]
    return shapes


def same_build(builder, oracle):
    """Equal tables, and each equation's memo equal to that equation's
    entries of the oracle's memo, in the same order."""
    assert builder.dag.table == oracle.dag.table
    for i, memo in enumerate(builder._memo):
        assert list(memo.items()) == [(k, t) for (j, k), t in oracle._memo.items() if j == i]


class TestBuilderOracle:
    """``PrunedBuilder`` against the builder that recurses on every child."""

    def test_roots_tables_and_memos_equal_the_oracle(self):
        for s in oracle_shapes():
            for canonical in (True, False):
                builder = PrunedBuilder(s, canonical_keys=canonical)
                oracle = PrunedOracle(s, canonical_keys=canonical)
                roots = [builder.term(0, i) for i in range(s.n)]
                assert roots == [oracle.term(0, i) for i in range(s.n)], s
                same_build(builder, oracle)

    def test_every_masked_set_as_the_rows_build_them(self):
        # props._Pass.rows asks for term(S, i) for every masked set S
        for s in oracle_shapes():
            if s.n > 6:
                continue
            for canonical in (True, False):
                builder = PrunedBuilder(s, canonical_keys=canonical)
                oracle = PrunedOracle(s, canonical_keys=canonical)
                for mask in range(1 << s.n):
                    for i in range(s.n):
                        assert builder.term(mask, i) == oracle.term(mask, i), (s, mask, i)
                same_build(builder, oracle)

    def test_build_functions_equal_the_oracle(self):
        for s in oracle_shapes():
            for build, canonical in ((build_pruned, True), (build_pruned_reference, False)):
                dag = build(s)
                oracle = PrunedOracle(s, canonical_keys=canonical)
                roots = tuple(oracle.term(0, i) for i in range(s.n))
                assert dag.table == oracle.dag.table and dag.roots == roots, s

    def test_term_is_entered_once_per_memo_miss(self, monkeypatch):
        entered = []
        real = PrunedBuilder.term
        monkeypatch.setattr(
            PrunedBuilder, "term", lambda b, masked, i: entered.append(i) or real(b, masked, i)
        )
        for s in oracle_shapes():
            for canonical in (True, False):
                builder = PrunedBuilder(s, canonical_keys=canonical)
                for mask in (0, 1, (1 << s.n) - 2):
                    for i in range(s.n):
                        key = mask & builder._key_sets[i]
                        miss = not mask >> i & 1 and key not in builder._memo[i]
                        before, entered[:] = sum(map(len, builder._memo)), []
                        builder.term(mask, i)
                        # the outside call, then one call per node the memos gained
                        gained = sum(map(len, builder._memo)) - before
                        assert len(entered) == gained + (not miss)

    def test_complete_system_calls_equal_its_nodes(self, monkeypatch):
        # every root of complete-n is a miss, so build_pruned enters term
        # once per application: n * 2^(n-1) times
        calls = []
        real = PrunedBuilder.term
        monkeypatch.setattr(
            PrunedBuilder, "term", lambda b, masked, i: calls.append(i) or real(b, masked, i)
        )
        dag = build_pruned(gen_family(FamilySpec("complete", 8)))
        assert len(calls) == len(dag) - 2 == 8 * 2**7


class TestTrustedInterning:
    def test_builder_tables_equal_a_replay_through_apply(self):
        # the builders intern their nodes without apply's checks; replaying
        # every node through the checked apply, in id order, must give each
        # node its own id again and rebuild the same table and index
        from bes.dag import TermDag

        systems = [gen_random_monotone(seed % 6 + 1, seed % 3, 4, seed + 7000) for seed in range(200)]
        systems += [gen_family(FamilySpec("chain", 8)), gen_family(FamilySpec("complete", 5))]
        for s in systems:
            pruned = build_pruned(s)
            expanded = build_expanded(s)
            for dag in (
                pruned, build_pruned_reference(s), expanded, build_expanded(s, 2),
                with_top_leaves(pruned), with_top_leaves(expanded),
            ):
                replay = TermDag(dag.supports)
                for tid in range(2, len(dag)):
                    func, ids = dag.table[tid]
                    assert replay.apply(func, ids) == tid
                assert replay.table == dag.table
                assert replay._index == dag._index
                assert replay.freeze(dag.roots).roots == dag.roots


def _same_terms(a, b):
    """Structural equality of root terms via interning both into one table."""
    from bes.dag import TermDag

    shared = TermDag(a.supports)
    memo = {}

    def intern(dag, tid, side):
        key = (side, tid)
        got = memo.get(key)
        if got is None:
            if tid <= TOP:
                got = tid
            else:
                node = dag.node(tid)
                got = shared.apply(node.func, tuple(intern(dag, arg, side) for _, arg in node.args))
            memo[key] = got
        return got

    return all(
        intern(a, ra, 0) == intern(b, rb, 1) for ra, rb in zip(a.roots, b.roots)
    )


def closure_cones(system):
    """Oracle: Warshall's transitive closure of the support relation, as a
    bitmask per variable with the variable itself included."""
    n = system.n
    reach = [[j in supp for j in range(n)] for supp in system.supports()]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return tuple(
        (1 << i) | sum(1 << j for j in range(n) if reach[i][j]) for i in range(n)
    )


def brute_force_components(system):
    """Oracle: the classes of mutual reachability, from Warshall's closure."""
    cones = closure_cones(system)
    return {
        frozenset(j for j in range(system.n) if cones[i] >> j & 1 and cones[j] >> i & 1)
        for i in range(system.n)
    }


def check_components(system):
    components, component_of = system._sccs
    assert set(map(frozenset, components)) == brute_force_components(system), system
    assert len(components) == len(set(map(frozenset, components)))
    for c, members in enumerate(components):
        assert list(members) == sorted(members)
        assert all(component_of[v] == c for v in members)
    assert len(component_of) == system.n
    # reverse topological: an edge leaving a component enters an earlier one
    for v, supp in enumerate(system._supports):
        assert all(component_of[w] <= component_of[v] for w in supp)


class TestComponents:
    def test_components_equal_mutual_reachability(self):
        from test_emit import corpus

        shapes = [s for s, _ in corpus()] + oracle_shapes() + [
            parse_system("x = x;"),
            parse_system("x = y; y = 1;"),
            parse_system("a = a & b; b = c; c = b | d; d = d; e = a | e;"),
            parse_system("u = v; v = w; w = u; s = t | u; t = s & ?p;"),
            *(gen_random_monotone(n, 1, 3, seed) for n in (12, 20, 30) for seed in range(10)),
        ]
        for s in shapes:
            check_components(s)

    def test_every_support_graph_up_to_three_variables(self):
        # _sccs reads only the supports, so every support graph on up to three
        # variables covers every system of the exhaustive n <= 3 corpus in
        # test_acceptance, components that no path joins included
        from itertools import product

        from bes.core import Const, Or, System, Var

        for n in range(1, 4):
            names = tuple(f"x{i}" for i in range(n))
            subsets = [[Var(i) for i in range(n) if m >> i & 1] for m in range(1 << n)]
            for pattern in product(subsets, repeat=n):
                formulas = []
                for members in pattern:
                    f = members[0] if members else Const(0)
                    for v in members[1:]:
                        f = Or(f, v)
                    formulas.append(f)
                check_components(System(tuple(formulas), names))

    def test_self_loops_and_singletons_without_one(self):
        # x reads itself, y reads nothing, z reads only y: three singletons
        s = parse_system("x = x | z; y = 1; z = y;")
        components, component_of = s._sccs
        assert components == ((1,), (2,), (0,))
        assert component_of == (2, 0, 1)
        assert s._cones == (0b111, 0b010, 0b110)

    def test_long_path_and_long_cycle_need_no_recursion(self):
        n = 3000
        path = parse_system(" ".join(f"x{i} = x{i + 1};" for i in range(n - 1)) + f" x{n - 1} = 1;")
        components, component_of = path._sccs
        assert components == tuple((i,) for i in reversed(range(n)))
        assert component_of == tuple(reversed(range(n)))
        everything = (1 << n) - 1
        assert path._cones == tuple(everything ^ ((1 << i) - 1) for i in range(n))
        cycle = parse_system(" ".join(f"c{i} = c{(i + 1) % n};" for i in range(n)))
        assert cycle._sccs == ((tuple(range(n)),), (0,) * n)
        assert cycle._cones == (everything,) * n


class TestCones:
    def test_cones_equal_the_transitive_closure(self):
        from test_emit import corpus

        cycle = " ".join(f"c{i} = c{(i + 1) % 50};" for i in range(50))
        shapes = [s for s, _ in corpus()] + [
            parse_system(cycle),
            gen_family(FamilySpec("chain", 40)),
            *(gen_random_monotone(n, 1, 3, seed) for n in (8, 12, 20) for seed in range(5)),
        ]
        for s in shapes:
            assert s._cones == closure_cones(s), s
        for s in oracle_shapes():
            assert s._cones == closure_cones(s) == dfs_cones(s), s

    def test_one_cone_table_per_system(self):
        # every builder of one system reads the cones computed by the first
        s = gen_random_monotone(5, 2, 3, 7)
        build_pruned(s)
        cones = vars(s)["_cones"]
        assert SUITES["prune_le_iterate"](s) is None
        assert SUITES["masked_le_pruned"](s) is None
        assert vars(s)["_cones"] is cones
        assert PrunedBuilder(s)._key_sets is cones

    def test_reference_keys_keep_every_masked_bit(self):
        # d's cone is {d}, so the canonical builder gives d one key under
        # the masked sets {}, {c}, {b, c} and {a, b, c}; the reference, four
        s = parse_system("a = b; b = c; c = a | d; d = 1;")
        memo_sizes = []
        for canonical in (True, False):
            builder = PrunedBuilder(s, canonical_keys=canonical)
            roots = [builder.term(0, i) for i in range(s.n)]
            memo_sizes.append(sum(map(len, builder._memo)))
            assert len(builder.dag) == 12 and len(set(roots)) == 4
        assert memo_sizes == [10, 13]


class TestStats:
    def test_bottom_only(self):
        s = parse_system("x = x; y = y;")
        stats = dag_stats(build_expanded(s, 0))
        assert stats.apply_count == 0
        assert stats.edge_count == 0
        assert stats.dag_depth == 0
        assert stats.tree_size == 2  # one bottom leaf per root

    def test_chain_n4_pruned(self):
        s = gen_family(FamilySpec("chain", 4))
        stats = dag_stats(build_pruned(s))
        assert stats.apply_count == 8
        assert stats.edge_count == 16
        assert stats.dag_depth == 2

    def test_complete_reachable_pair_count(self):
        # distinct (masked set, equation) pairs with the equation outside
        # the set: sum over k of C(n,k)*(n-k) = n * 2^(n-1)
        for n in (4, 6, 10):
            s = gen_family(FamilySpec("complete", n))
            expected = n * 2 ** (n - 1)
            assert dag_stats(build_pruned(s)).apply_count == expected

    def test_tree_size_oracle(self):
        s = parse_system("f = f | g; g = f & g;")
        dag = build_pruned(s)

        def tree_size(tid):
            if tid <= TOP:
                return 1
            return 1 + sum(tree_size(arg) for _, arg in dag.node(tid).args)

        assert dag_stats(dag).tree_size == sum(tree_size(r) for r in dag.roots)

    def test_random_tables_against_a_search_oracle(self):
        # reachable() and dag_stats sweep the table by id; a set-based
        # search from the roots and recursive depth and size must agree
        import random

        from bes.dag import TermDag

        rng = random.Random(1010)
        for _ in range(200):
            arity = rng.randint(1, 4)
            supports = [
                sorted(rng.sample(range(arity), rng.randint(0, min(arity, 3))))
                for _ in range(arity)
            ]
            dag = TermDag(supports)
            for _ in range(rng.randint(0, 30)):
                func = rng.randrange(arity)
                dag.apply(func, tuple(rng.randrange(len(dag)) for _ in supports[func]))
            dag.freeze(tuple(rng.randrange(len(dag)) for _ in range(arity)))

            seen = set(dag.roots)
            stack = list(seen)
            while stack:
                node = dag.node(stack.pop())
                for _, arg in getattr(node, "args", ()):
                    if arg not in seen:
                        seen.add(arg)
                        stack.append(arg)
            assert dag.reachable() == sorted(seen)

            def depth(tid):
                args = getattr(dag.node(tid), "args", None)
                if args is None:
                    return 0
                return 1 + max((depth(a) for _, a in args), default=-1)

            def size(tid):
                return 1 + sum(size(a) for _, a in getattr(dag.node(tid), "args", ()))

            applies = [dag.node(t) for t in seen if t > TOP]
            assert dag_stats(dag) == DagStats(
                apply_count=len(applies),
                edge_count=sum(len(node.args) for node in applies),
                dag_depth=max(depth(r) for r in dag.roots),
                tree_size=sum(size(r) for r in dag.roots),
            )

    @given(systems())
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, s):
        stats = dag_stats(build_pruned(s))
        assert stats.tree_size >= stats.apply_count
        # each root contributes at most one application not fed by an edge
        assert stats.apply_count <= stats.edge_count + s.n


class TestTopLeaves:
    def test_swaps_every_bottom(self):
        s = parse_system("x = x & y; y = x | y;")
        dag = with_top_leaves(build_pruned(s))
        for tid in dag.reachable():
            if tid <= TOP:
                assert dag.node(tid) == "top"

    def test_evaluates_to_greatest_fixpoint(self):
        from bes.core import greatest_fixpoint, param_masks

        for seed in range(60):
            s = gen_random_monotone(seed % 4 + 1, seed % 3, 4, seed)
            P = s.num_params
            gfps = [greatest_fixpoint(s, decode_param_slice(P, j))[0] for j in range(1 << P)]
            masks, ones = param_masks(P)
            for build in (build_pruned, build_expanded):
                packed = eval_dag(with_top_leaves(build(s)), s, masks, ones)
                for j, gfp in enumerate(gfps):
                    assert tuple((v >> j) & 1 for v in packed) == gfp, (seed, build, j)


def oracle_values(dag, system, p=(), ones=1):
    """Every node's value, each by ``eval_formula`` at its arguments' values."""
    values = [0, ones]
    for tid in range(2, len(dag)):
        node = dag.node(tid)
        x = [0] * system.n
        for v, arg in node.args:
            x[v] = values[arg]
        values.append(eval_formula(system.formulas[node.func], tuple(x), p, ones))
    return values


class TestDistinctApplications:
    """``node_values`` runs each distinct (equation, argument values) once."""

    @staticmethod
    def dags(s):
        pruned, expanded = build_pruned(s), build_expanded(s)
        return pruned, expanded, with_top_leaves(pruned), with_top_leaves(expanded)

    @staticmethod
    def assignments(s):
        """The packed masks of every assignment, then each assignment alone."""
        P = s.num_params
        yield param_masks(P)
        for j in range(1 << P):
            yield decode_param_slice(P, j), 1

    def test_every_node_is_its_formula_at_its_arguments(self):
        cases = list(corpus())
        for seed in range(300):
            s = gen_random_monotone(seed % 6 + 1, seed % 4, 4, seed + 9000)
            cases.append((s, self.dags(s)))
        for s, dags in cases:
            for dag in dags:
                for p, ones in self.assignments(s):
                    assert node_values(dag, s, p, ones) == oracle_values(dag, s, p, ones), (s, p)

    SHAPES = {
        "complete-8": lambda: gen_family(FamilySpec("complete", 8)),
        "dense-11": lambda: gen_family(FamilySpec("random", 11, 3, 0.6)),
        "random-8-packed": lambda: gen_random_monotone(8, 3, 4, 189),
    }

    @pytest.mark.parametrize("name", SHAPES)
    def test_gate_lists_run_once_per_distinct_application(self, monkeypatch, name):
        import bes.dag

        s = self.SHAPES[name]()
        p, ones = param_masks(s.num_params)
        dag = build_pruned(s)
        expected = oracle_values(dag, s, p, ones)
        distinct = {(func, tuple(expected[a] for a in ids)) for func, ids in dag.table[2:]}
        equation_of = {id(program): i for i, program in enumerate(s._programs)}
        calls = []
        real = bes.dag._run

        def counting(program, slots, ones):
            i = equation_of[id(program)]
            calls.append((i, tuple(slots[: len(s._supports[i])])))
            return real(program, slots, ones)

        monkeypatch.setattr(bes.dag, "_run", counting)
        assert node_values(dag, s, p, ones) == expected
        assert len(calls) == len(distinct) and set(calls) == distinct
        # most applications repeat one already seen
        assert len(distinct) < (len(dag) - 2) / 2, name


class TestRootUnrolling:
    def test_extra_unrolling_of_a_root_slot_preserves_value(self):
        # replacing a bottom argument at variable slot v of a root
        # application with the finished root value for v cannot change the
        # value: the variant is squeezed between the pruned value and the
        # fixpoint coordinate, which coincide
        from bes.dag import node_values

        for seed in range(60):
            s = gen_random_monotone(seed % 4 + 1, seed % 2, 3, seed + 500)
            base = build_pruned(s)
            P = s.num_params
            for p in [decode_param_slice(P, j) for j in range(1 << P)]:
                per_node = node_values(base, s, p)
                roots = [per_node[r] for r in base.roots]
                for i, root in enumerate(base.roots):
                    if root <= TOP:
                        continue
                    node = base.node(root)
                    x = [0] * s.n
                    for v, arg in node.args:
                        x[v] = roots[v] if arg == BOTTOM else per_node[arg]
                    variant = eval_formula(s.formulas[node.func], tuple(x), p)
                    assert variant == roots[i], (seed, i, p)


class TestVerifyClosedForms:
    def test_identity(self):
        s = parse_system("x = x;")
        assert SUITES["equality"](s, ()) is None
        assert kleene_lfp(s)[0] == eval_dag(build_pruned(s), s) == eval_dag(build_expanded(s), s)
        assert kleene_lfp(s)[0] == (0,)

    def test_example_system(self):
        s = parse_system("a = 1; b = a & c; c = b | a;")
        assert SUITES["equality"](s, ()) is None
        assert kleene_lfp(s) == ((1, 1, 1), 3)

    def test_all_two_variable_instantiations(self):
        # every pair of parameter-free monotone formulas drawn from a pool
        pool = ["x & y", "x | y", "0", "1", "x", "y"]
        for fx in pool:
            for fy in pool:
                s = parse_system(f"x = {fx}; y = {fy};")
                assert SUITES["equality"](s, ()) is None

    def test_mismatch_reporting_shape(self, monkeypatch):
        from bes import props

        s = parse_system("x = 1;")
        assert SUITES["equality"](s, ()) is None
        # a zero-depth unrolling stands in for a broken expanded builder
        monkeypatch.setattr(props, "build_expanded", lambda system: build_expanded(system, 0))
        cex = SUITES["equality"](s, ())
        assert cex == props.Counterexample(
            "equality", s, (), "coordinate x: iterated=True pruned=True expanded=False"
        )


class TestFrozenDiscipline:
    def test_apply_after_freeze_rejected(self):
        s = parse_system("x = x;")
        dag = build_pruned(s)
        with pytest.raises(RuntimeError):
            dag.apply(0, ())

    def test_freeze_takes_one_root_per_equation_once(self):
        from bes.dag import TermDag

        dag = TermDag([(0,), (0, 1)])
        tid = dag.apply(0, (BOTTOM,))
        bad = (
            (), (tid,), (tid, tid, tid), (tid, tid + 1), (-1, tid), (1.0, tid), ("a", tid),
            (True, False), (tid, False),
        )
        for roots in bad:
            with pytest.raises(ValueError):
                dag.freeze(roots)
        assert dag.freeze((tid, BOTTOM)) is dag
        assert dag.roots == (tid, BOTTOM)
        with pytest.raises(RuntimeError):
            dag.freeze((tid, BOTTOM))
        assert dag.roots == (tid, BOTTOM)

    def test_freeze_keeps_its_own_roots(self):
        # a list the caller changes after freezing must not reach the DAG
        from bes.dag import TermDag

        s = parse_system("x = x;")
        dag = TermDag(s.supports())
        tid = dag.apply(0, (BOTTOM,))
        roots = [tid]
        dag.freeze(roots)
        roots[0] = 57
        assert dag.roots == (tid,)
        assert eval_dag(dag, s) == (0,)

    def test_equation_index_outside_the_arity_rejected(self):
        # eval_dag and the emitters would index the system's equations with it
        from bes.dag import TermDag

        dag = TermDag([()])
        for func in (3, 1, -1):
            with pytest.raises(ValueError):
                dag.apply(func, ())
        assert len(dag) == 2
        assert dag.apply(0, ()) == 2

    def test_argument_count_other_than_the_support_rejected(self):
        # every pass reads a node's ids beside its equation's support
        # variables, so a missing or extra id would shift or drop arguments
        from bes.dag import TermDag

        dag = TermDag([(0, 1), ()])
        for func, ids in ((0, ()), (0, (BOTTOM,)), (0, (BOTTOM, TOP, TOP)), (1, (TOP,))):
            with pytest.raises(ValueError):
                dag.apply(func, ids)
        assert len(dag) == 2
        assert dag.apply(0, (BOTTOM, TOP)) == 2
        assert dag.apply(1, ()) == 3

    def test_dag_under_construction_is_refused(self):
        from bes.dag import TermDag
        from bes.emit import to_cnf, to_dot, to_let_text, to_sexpr

        s = parse_system("x = x;")
        dag = TermDag(s.supports())
        dag.apply(0, (BOTTOM,))
        with pytest.raises(RuntimeError):
            dag.roots
        for emit in (to_let_text, to_sexpr, to_dot):
            with pytest.raises(RuntimeError):
                emit(dag, s)
        with pytest.raises(RuntimeError):
            to_cnf(dag, s, (0, 1))

    def test_reachable_is_swept_once_and_handed_out_as_fresh_lists(self, monkeypatch):
        import itertools

        import bes.dag
        from bes.dag import TermDag

        s = parse_system("x = y | 1; y = x & y; z = z;")
        dag = TermDag(s.supports())
        with pytest.raises(RuntimeError):
            dag.reachable()
        dag = build_pruned(s)
        sweeps = []
        real = itertools.compress
        monkeypatch.setattr(bes.dag, "compress", lambda *a: sweeps.append(1) or real(*a))
        first = dag.reachable()
        swept = len(sweeps)
        first.append(99)
        first[0] = -5
        second = dag.reachable()
        assert second == [BOTTOM, 2, 3, 4, 5, 6] and second is not first  # top is unused
        assert dag.reachable() == second and dag.reachable() is not second
        assert len(sweeps) == swept > 0  # the later calls read the kept ids

    def test_node_refuses_an_id_outside_the_table(self):
        from bes.dag import TermDag

        dag = TermDag([(0,)])
        tid = dag.apply(0, (BOTTOM,))
        for bad in (-1, -3, tid + 1, 10**9, True, False, 1.0, "2", None):
            with pytest.raises(ValueError, match="not the id of a node"):
                dag.node(bad)
        assert [dag.node(t) for t in range(len(dag))] == ["bot", "top", Apply(0, ((0, BOTTOM),))]

    def test_equal_applications_share_one_node(self):
        from bes.dag import TermDag

        dag = TermDag([(0, 1), (0, 1)])
        inner = dag.apply(1, (BOTTOM, TOP))
        ids = (inner, BOTTOM)
        tid = dag.apply(0, ids)
        assert dag.apply(0, ids) == tid
        assert dag.apply(0, tuple(list(ids))) == tid
        assert dag.apply(1, (BOTTOM, TOP)) == inner
        assert len(dag) == 4
        args = ((0, inner), (1, BOTTOM))
        assert dag.node(tid) == Apply(0, args)
        assert dag.node(tid).func == 0 and dag.node(tid).args == args
        assert isinstance(dag.node(tid), Apply)

    def test_arity_mismatch_rejected(self):
        from bes.emit import to_cnf, to_dot, to_let_text, to_sexpr

        for a, b in (
            ("x = x;", "x = x; y = y;"),
            ("x = y; y = x | ?p;", "u = 1; v = u; w = v;"),
        ):
            a, b = parse_system(a), parse_system(b)
            dag = build_pruned(a)
            with pytest.raises(ValueError, match="arity"):
                eval_dag(dag, b)
            with pytest.raises(ValueError, match="arity"):
                to_cnf(dag, b, (1, 1))
            for emit in (to_let_text, to_sexpr, to_dot):
                with pytest.raises(ValueError, match="arity"):
                    emit(dag, b)

    def test_argument_ids_outside_the_table_rejected(self):
        # node_values would read a negative id as a Python index from the
        # end: for x = x an argument of -1 picks up top and evaluates to 1,
        # not the fixpoint 0
        from bes.dag import TermDag

        dag = TermDag([(0,)])
        for arg in (-1, -2, 2):
            with pytest.raises(ValueError):
                dag.apply(0, (arg,))
        assert len(dag) == 2
        assert dag.apply(0, (BOTTOM,)) == 2

    def test_argument_ids_that_are_not_ints_rejected(self):
        # a float id inside the table's range would be interned and fail
        # only when node_values indexes its list with it
        from bes.dag import TermDag

        dag = TermDag([(0,)])
        for arg in (0.5, 1.0, "1", None, True, False):
            with pytest.raises(ValueError, match="is not the id of a node"):
                dag.apply(0, (arg,))
        assert len(dag) == 2
        # nor a bool, though it hashes like the node with that int id
        dag = TermDag([(0,), (0,)])
        assert dag.apply(0, (BOTTOM,)) == 2
        for arg in (True, False):
            with pytest.raises(ValueError, match="is not the id of a node"):
                dag.apply(1, (arg,))
            with pytest.raises(ValueError, match="is not the id of a node"):
                dag.apply(0, (arg,))
        assert len(dag) == 3

    def test_equation_index_and_id_tuple_of_other_types_rejected(self):
        # refused like the other malformed nodes, not as a TypeError from
        # indexing the supports or hashing the node; a frozenset of ids
        # would be interned with its ids in no fixed order
        from bes.dag import TermDag

        dag = TermDag([(0,)])
        for func, ids in (
            (0.0, (BOTTOM,)), ("0", (BOTTOM,)), (None, (BOTTOM,)), (False, (BOTTOM,)),
            (0, [BOTTOM]), (0, frozenset({BOTTOM})), (0, ([BOTTOM],)),
        ):
            with pytest.raises(ValueError):
                dag.apply(func, ids)
        assert len(dag) == 2
        assert dag.apply(0, (BOTTOM,)) == 2

    def test_support_mismatch_rejected(self):
        # to_cnf reads each node's argument literals by position, and the
        # text emitters name each argument by it, so each must refuse a DAG
        # of another system rather than encode or print it
        from bes.emit import to_cnf, to_dot, to_let_text, to_sexpr

        for a, others in (
            ("x = x; y = x;", ("x = x; y = y;", "x = x | ?p; y = y & ?p;", "x = x; y = x & y;")),
            ("x = y; y = x | ?p;", ("x = ?p; y = x;",)),
        ):
            dag = build_pruned(parse_system(a))
            for b in others:
                b = parse_system(b)
                with pytest.raises(ValueError, match="layout"):
                    eval_dag(dag, b)
                with pytest.raises(ValueError, match="layout"):
                    to_cnf(dag, b, (1, 1))
                for emit in (to_let_text, to_sexpr, to_dot):
                    with pytest.raises(ValueError, match="layout"):
                        emit(dag, b)
