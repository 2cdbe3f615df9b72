import hashlib
import random
import re

import pytest

from bes.dag import (
    BOTTOM,
    TOP,
    DagStats,
    TermDag,
    build_expanded,
    build_pruned,
    dag_stats,
    with_top_leaves,
)
from bes.emit import (
    TreeSizeLimitError,
    to_cnf,
    to_dot,
    to_let_text,
    to_sexpr,
    write_dimacs,
)
from bes.gen import FamilySpec, gen_family, gen_random_monotone
from bes.text import parse_system

GENERIC3 = "f = f | g | h; g = f & g & h; h = (f | g) & h;"


class TestLetText:
    def test_bottom_only_roots(self):
        s = parse_system("x = x; y = y;")
        assert to_let_text(build_expanded(s, 0), s) == "(bot, bot)\n"

    def test_expanded_generic_n3_matches_level_layout(self):
        # one binder per (level, equation), levels in order, tuple of the
        # last level's binders at the end
        s = parse_system(GENERIC3)
        assert to_let_text(build_expanded(s, 3), s) == (
            "let t0 = f(bot, bot, bot) in\n"
            "let t1 = g(bot, bot, bot) in\n"
            "let t2 = h(bot, bot, bot) in\n"
            "let t3 = f(t0, t1, t2) in\n"
            "let t4 = g(t0, t1, t2) in\n"
            "let t5 = h(t0, t1, t2) in\n"
            "let t6 = f(t3, t4, t5) in\n"
            "let t7 = g(t3, t4, t5) in\n"
            "let t8 = h(t3, t4, t5) in\n"
            "(t6, t7, t8)\n"
        )

    def test_chain_pruned_bindings(self):
        s = gen_family(FamilySpec("chain", 2))
        assert to_let_text(build_pruned(s), s) == (
            "let t0 = f2(bot, bot) in\n"
            "let t1 = f1(bot, t0) in\n"
            "let t2 = f1(bot, bot) in\n"
            "let t3 = f2(t2, bot) in\n"
            "(t1, t3)\n"
        )

    def test_binding_count_equals_apply_count(self):
        for seed in range(30):
            s = gen_random_monotone(seed % 5 + 1, 0, 4, seed)
            dag = build_pruned(s)
            text = to_let_text(dag, s)
            assert text.count("let ") == dag_stats(dag).apply_count

    def test_top_prints_as_top(self):
        s = parse_system("x = x;")
        dag = with_top_leaves(build_pruned(s))
        assert to_let_text(dag, s) == "let t0 = x(top) in\n(t0)\n"


class TestSexpr:
    def test_single_root(self):
        s = parse_system("x = x;")
        assert to_sexpr(build_pruned(s), s) == "(x bot)\n"

    def test_n2_generic_golden(self):
        s = parse_system("f = f | g; g = f & g;")
        assert to_sexpr(build_pruned(s), s) == "((f bot (g bot bot)) (g (f bot bot) bot))\n"

    def test_size_refusal_carries_tree_size(self):
        s = gen_family(FamilySpec("complete", 10))
        dag = build_pruned(s)
        with pytest.raises(TreeSizeLimitError) as err:
            to_sexpr(dag, s)
        assert err.value.tree_size == dag_stats(dag).tree_size
        assert err.value.tree_size > 10**6
        assert str(err.value.tree_size) in str(err.value)

    def test_limit_is_adjustable(self):
        s = parse_system("f = f | g; g = f & g;")
        dag = build_pruned(s)
        with pytest.raises(TreeSizeLimitError):
            to_sexpr(dag, s, max_tree_size=3)
        assert to_sexpr(dag, s, max_tree_size=100)

    def test_limit_must_be_a_nonnegative_int(self):
        s = parse_system("f = f | g; g = f & g;")
        dag = build_pruned(s)
        for limit in ("7", None, True, False, 7.0, 1.5, -1):
            with pytest.raises(ValueError, match="tree size limit .* is not a nonnegative int"):
                to_sexpr(dag, s, max_tree_size=limit)
        with pytest.raises(TreeSizeLimitError):
            to_sexpr(dag, s, max_tree_size=0)
        # the limit is inclusive
        size = dag_stats(dag).tree_size
        with pytest.raises(TreeSizeLimitError):
            to_sexpr(dag, s, max_tree_size=size - 1)
        assert to_sexpr(dag, s, max_tree_size=size) == to_sexpr(dag, s)


DOT_NODE = re.compile(r'^  n(\d+) \[label="\w+"\];$')
DOT_EDGE = re.compile(r'^  n(\d+) -> n(\d+) \[label="\w+"\];$')


def check_dot(text):
    """Structural check of the emitted graph description."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph bes {"
    assert lines[-1] == "}"
    nodes, edges = set(), []
    for line in lines[1:-1]:
        m = DOT_NODE.match(line)
        if m:
            nodes.add(int(m.group(1)))
            continue
        m = DOT_EDGE.match(line)
        assert m, f"unparsable line: {line!r}"
        edges.append((int(m.group(1)), int(m.group(2))))
    for a, b in edges:
        assert a in nodes and b in nodes
    return nodes, edges


class TestDot:
    def test_bottom_only(self):
        s = parse_system("x = x;")
        nodes, edges = check_dot(to_dot(build_expanded(s, 0), s))
        assert len(nodes) == 1 and not edges

    def test_n2_pruned_counts(self):
        s = parse_system("f = f | g; g = f & g;")
        nodes, edges = check_dot(to_dot(build_pruned(s), s))
        assert len(nodes) == 5  # 4 applications and one shared bottom
        assert len(edges) == 8

    def test_deterministic(self):
        s = gen_random_monotone(5, 1, 4, 7)
        dag = build_pruned(s)
        assert to_dot(dag, s) == to_dot(dag, s)


class TestEmitterDeterminism:
    def test_identical_input_identical_output(self):
        s = gen_random_monotone(6, 2, 4, 11)
        for build in (build_pruned, lambda q: build_expanded(q)):
            a, b = build(s), build(s)
            assert to_let_text(a, s) == to_let_text(b, s)
            assert to_sexpr(a, s, 10**7) == to_sexpr(b, s, 10**7)
            assert to_dot(a, s) == to_dot(b, s)

    def test_corpus_digest_is_unchanged(self):
        # Every emitter on 200 seeded systems, three DAGs each; the digest
        # pins the bytes, 178 of the systems use a constant
        digest = hashlib.sha256()
        for s, dags in corpus():
            for dag in dags:
                for text in (repr(dag_stats(dag)), to_let_text(dag, s), to_dot(dag, s), to_sexpr(dag, s)):
                    digest.update(text.encode())
                for v in range(s.n):
                    for bit in (0, 1):
                        digest.update(write_dimacs(to_cnf(dag, s, (v, bit))).encode())
        assert digest.hexdigest() == (
            "13c18d82bf895b43aa1a9bde0a354486e17e15f1cfb8261f699a76535c1c4d17"
        )


def corpus():
    """200 seeded systems, each with a pruned, an expanded and a top-leaved DAG."""
    rng = random.Random(2004)
    for _ in range(200):
        n = rng.randint(1, 6)
        s = gen_random_monotone(n, rng.randint(0, 3), 4, rng.randrange(2**32))
        yield s, (build_pruned(s), build_expanded(s), with_top_leaves(build_expanded(s, 2)))


class TestNodeViews:
    def test_views_follow_the_supports_and_rebuild_the_table(self):
        # node() pairs each id with its support variable; interning the
        # views' ids again, in id order, gives back every id and node
        for s, dags in corpus():
            supports = s.supports()
            for dag in dags:
                fresh = TermDag(supports)
                for tid in range(2, len(dag)):
                    node = dag.node(tid)
                    assert tuple(v for v, _ in node.args) == supports[node.func]
                    assert all(0 <= arg < tid for _, arg in node.args)
                    assert fresh.apply(node.func, tuple(a for _, a in node.args)) == tid
                assert len(fresh) == len(dag)
                assert fresh.table == dag.table
                assert [fresh.node(t) for t in range(len(dag))] == [
                    dag.node(t) for t in range(len(dag))
                ]


class TestUnreachableNodes:
    """A hand-built table whose unreachable nodes sit between reachable ones."""

    SYSTEM = "x = y | ?p; y = x & y;"

    def dag(self):
        dag = TermDag(parse_system(self.SYSTEM).supports())  # x reads y; y reads x, y
        shared = dag.apply(1, (BOTTOM, TOP))       # 2, read by 3 and 5
        x = dag.apply(0, (shared,))                # 3, root x
        dead_x = dag.apply(0, (TOP,))              # 4
        y = dag.apply(1, (x, shared))              # 5, root y
        dag.apply(1, (dead_x, dead_x))             # 6
        return dag.freeze((x, y))

    def test_reachable_and_stats_skip_them(self):
        dag = self.dag()
        assert dag.reachable() == [BOTTOM, TOP, 2, 3, 5]
        # depths 1, 2, 3; unshared sizes 3, 4 and 1 + 4 + 3
        assert dag_stats(dag) == DagStats(apply_count=3, edge_count=5, dag_depth=3, tree_size=12)

    def test_emitters_mention_only_reachable_ids(self):
        s = parse_system(self.SYSTEM)
        dag = self.dag()
        nodes, edges = check_dot(to_dot(dag, s))
        assert nodes == {BOTTOM, TOP, 2, 3, 5}
        assert sorted(edges) == [(2, BOTTOM), (2, TOP), (3, 2), (5, 2), (5, 3)]
        assert to_let_text(dag, s) == (
            "let t0 = y(bot, top) in\n"
            "let t1 = x(t0) in\n"
            "let t2 = y(t1, t0) in\n"
            "(t1, t2)\n"
        )
        cnf = to_cnf(dag, s, (1, 1))
        terms = [note.split()[1] for note in cnf.node_map.values() if note.startswith("term")]
        assert terms == ["0", "1", "2", "3", "5"]
        # one parameter, five nodes and one gate per application
        assert cnf.num_vars == 1 + 5 + 3
