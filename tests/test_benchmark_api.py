"""The shapes of the library that the benchmark in ``perfbench/`` reads.

The benchmark's smoke tests run the whole benchmark in a child process;
these pin each shape it relies on directly, so a change to one shows here
by name.  Nothing here imports the benchmark.
"""

import dataclasses

import pytest

import bes.core
import bes.dag
import bes.emit
import bes.gen
import bes.props
import bes.text

TEXT = "x = ?p & y | x; y = x | ?q & !?p; z = (x & y) | 0 | 1;\n"


def test_term_nodes_and_roots():
    s = bes.text.parse_system(TEXT)
    supports = s.supports()
    for dag in (bes.dag.build_pruned(s), bes.dag.build_expanded(s), bes.dag.build_expanded(s, 2)):
        assert isinstance(dag.roots, tuple) and len(dag.roots) == s.n
        assert all(0 <= r < len(dag) for r in dag.roots)
        for tid in range(2, len(dag)):
            node = dag.node(tid)
            assert isinstance(node.func, int)
            assert tuple(v for v, _ in node.args) == supports[node.func]
            assert all(0 <= arg < tid for _, arg in node.args)


def test_kleene_lfp_takes_packed_masks():
    s = bes.text.parse_system(TEXT)
    masks, ones = bes.core.param_masks(s.num_params)
    values, depth = bes.core.kleene_lfp(s, masks, ones)
    assert len(values) == s.n and isinstance(depth, int)
    assert values == bes.dag.eval_dag(bes.dag.build_pruned(s), s, masks, ones)


def test_dag_stats_fields():
    s = bes.text.parse_system(TEXT)
    stats = bes.dag.dag_stats(bes.dag.build_pruned(s))
    assert [f.name for f in dataclasses.fields(stats)] == [
        "apply_count", "edge_count", "dag_depth", "tree_size",
    ]


def test_emitters():
    s = bes.text.parse_system(TEXT)
    dag = bes.dag.build_expanded(s)
    for emit in (bes.emit.to_let_text, bes.emit.to_dot, bes.emit.to_sexpr):
        assert isinstance(emit(dag, s), str)
    assert isinstance(bes.emit.DEFAULT_TREE_SIZE_LIMIT, int)
    cnf = bes.emit.to_cnf(dag, s, (0, 1))
    assert isinstance(cnf.num_vars, int)
    assert all(isinstance(clause, tuple) for clause in cnf.clauses)
    assert bes.emit.write_dimacs(cnf).startswith("c map ")


def test_suite_names():
    # each name is also the per-layer metric ``props.<name>.s``
    assert list(bes.props.SUITES) == [
        "equality", "pruned_le_expanded", "prune_le_iterate", "zero_prefix",
        "masking_preserves_iterates", "masked_le_pruned", "self_substitution", "memo_keys",
    ]


def test_suites_take_a_subset_sample():
    s = bes.gen.gen_random_monotone(3, 2, 4, 7)
    subsets = [frozenset(i for i in range(3) if (m >> i) & 1) for m in range(8)]
    assert bes.props.SUITES
    for check in bes.props.SUITES.values():
        assert check(s, None, subsets) is None


def test_formula_nodes():
    s = bes.text.parse_system(TEXT)
    seen = set()
    stack = list(s.formulas)
    while stack:
        node = stack.pop()
        kind = type(node).__name__
        seen.add(kind)
        if kind == "Const":
            assert node.value in (0, 1)
        elif kind == "Var":
            assert 0 <= node.index < s.n
        elif kind == "Param":
            assert 0 <= node.index < s.num_params and isinstance(node.negated, bool)
        else:
            assert kind in ("And", "Or")
            stack.extend((node.left, node.right))
    assert seen == {"Const", "Var", "Param", "And", "Or"}


def test_generators_and_text():
    chain = bes.gen.gen_family(bes.gen.FamilySpec("chain", 4))
    assert chain.var_names == ("f1", "f2", "f3", "f4") and chain.param_names == ()
    s = bes.text.parse_system(TEXT)
    assert bes.text.parse_system(bes.text.format_system(s)) == s


def test_wide_equation_failures():
    """The benchmark's one planned failure, pinned where tier-1 sees it.

    ``deep-solve`` holds a system of four equations, one a disjunction of
    3000 terms, which the parser reads as a left-deep chain of binary ``|``
    nodes.  ``perfbench/tests/test_smoke.py`` expects exactly these four
    calls on it to raise ``RecursionError`` (its ``WIDE_FAILURES``), and
    the workload's ``cnf_clauses`` counts no clause of it.  All four fail
    inside ``core._gate_list``, which compiles the equation that each of them
    replays.  The change that makes them work (ROADMAP item 1: an iterative
    ``_gate_list``) changes the benchmark's expected figures with it.
    """
    terms = " | ".join(f"w{t % 4} & {'!' if t % 2 else ''}?r{t % 3 + 1}" for t in range(3000))
    s = bes.text.parse_system(f"w0 = {terms};\nw1 = w0 & ?r1;\nw2 = w1 | ?r2;\nw3 = w2 & w3;\n")
    masks, ones = bes.core.param_masks(s.num_params)
    dag = bes.dag.build_expanded(s, 4)
    with pytest.raises(RecursionError):
        bes.text.format_system(s)
    with pytest.raises(RecursionError):
        bes.core.kleene_lfp(s, masks, ones)
    with pytest.raises(RecursionError):
        bes.dag.eval_dag(dag, s, masks, ones)
    with pytest.raises(RecursionError):
        bes.emit.to_cnf(dag, s, (0, 1))
