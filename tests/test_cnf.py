import random
from collections.abc import Mapping

import pytest

from bes import emit

from bes.cli import main
from bes.core import Const, decode_param_slice, greatest_fixpoint, kleene_lfp
from bes.dag import TOP, build_expanded, build_pruned, eval_dag, with_top_leaves
from bes.emit import CnfFormula, parse_dimacs, to_cnf, write_dimacs
from bes.gen import gen_random_monotone
from bes.text import format_system, parse_system
from cnf_oracle import encode, to_dimacs
from dpll import solve


def exists_param(system, var, bit):
    """Brute-force oracle: does any parameter assignment give lfp[var] == bit?"""
    P = system.num_params
    return any(
        kleene_lfp(system, decode_param_slice(P, j))[0][var] == bit for j in range(1 << P)
    )


class TestDpll:
    def test_trivial(self):
        assert solve(0, []) == {}
        assert solve(1, [[1]]) == {1: True}
        assert solve(1, [[1], [-1]]) is None

    def test_small_instances(self):
        # (x1 | x2) & (!x1 | x3) & (!x2 | !x3)
        model = solve(3, [[1, 2], [-1, 3], [-2, -3]])
        assert model is not None
        for clause in [[1, 2], [-1, 3], [-2, -3]]:
            assert any(model[abs(l)] == (l > 0) for l in clause)

    def test_unsat_pigeonhole(self):
        # 3 pigeons, 2 holes
        clauses = [[1, 2], [3, 4], [5, 6]]
        for a, b in [(1, 3), (1, 5), (3, 5)]:
            clauses.append([-a, -b])
        for a, b in [(2, 4), (2, 6), (4, 6)]:
            clauses.append([-a, -b])
        assert solve(6, clauses) is None

    def test_empty_clause_is_unsat(self):
        assert solve(2, [[1], []]) is None


class TestToCnf:
    def test_constant_system(self):
        s = parse_system("x = 1;")
        dag = build_pruned(s)
        assert solve(*_vc(to_cnf(dag, s, (0, 1)))) is not None
        assert solve(*_vc(to_cnf(dag, s, (0, 0)))) is None

    def test_single_parameter(self):
        s = parse_system("x = ?p;")
        dag = build_pruned(s)
        cnf = to_cnf(dag, s, (0, 1))
        model = solve(*_vc(cnf))
        assert model is not None
        assert model[1] is True  # parameter variables come first

    def test_negated_parameter(self):
        s = parse_system("x = !?p;")
        dag = build_pruned(s)
        model = solve(*_vc(to_cnf(dag, s, (0, 1))))
        assert model is not None and model[1] is False

    def test_query_validation(self):
        s = parse_system("x = 1;")
        dag = build_pruned(s)
        with pytest.raises(ValueError):
            to_cnf(dag, s, (5, 1))
        with pytest.raises(ValueError):
            to_cnf(dag, s, (0, 2))
        for qvar in (0.0, "0", None, True, False):
            with pytest.raises(ValueError, match="query variable"):
                to_cnf(dag, s, (qvar, 1))
        for qbit in (True, False, 1.0, 0.0, "1", None):
            with pytest.raises(ValueError, match="query bit"):
                to_cnf(dag, s, (0, qbit))

    def test_node_map_names_params_and_terms(self):
        s = parse_system("x = ?p & x;")
        cnf = to_cnf(build_pruned(s), s, (0, 0))
        notes = list(cnf.node_map.values())
        assert "param p" in notes
        assert any(note.startswith("term") for note in notes)

    def test_equisatisfiability_random(self):
        # 300 random parametric systems against the enumeration oracle;
        # the acceptance suite runs the full thousand
        checked = 0
        for seed in range(300):
            s = gen_random_monotone(seed % 6 + 1, seed % 5, 4, seed)
            dag = build_pruned(s) if seed % 2 else build_expanded(s)
            var = seed % s.n
            bit = (seed // 7) % 2
            cnf = to_cnf(dag, s, (var, bit))
            sat = solve(cnf.num_vars, cnf.clauses) is not None
            assert sat == exists_param(s, var, bit), (seed, var, bit)
            checked += 1
        assert checked == 300

    def test_result_passes_the_checked_constructor(self):
        # to_cnf builds its formula without the constructor's literal walk;
        # rebuilding every result from its clause tuples through the checked
        # constructor must succeed and give an equal formula
        from test_emit import corpus

        def check(dag, s, query):
            cnf = to_cnf(dag, s, query)
            assert CnfFormula(cnf.num_vars, tuple(cnf.clauses), cnf.node_map) == cnf

        for s, dags in corpus():
            for dag in dags:
                for v in range(s.n):
                    for bit in (0, 1):
                        check(dag, s, (v, bit))
        for seed in range(200):
            s = gen_random_monotone(seed % 6 + 1, seed % 5, 4, seed + 3000)
            dag = build_pruned(s) if seed % 2 else build_expanded(s)
            check(dag, s, (seed % s.n, (seed // 3) % 2))

    def test_model_decodes_to_witness(self):
        s = parse_system("x = ?p & !?q; y = x | ?r;")
        dag = build_pruned(s)
        cnf = to_cnf(dag, s, (0, 1))
        model = solve(cnf.num_vars, cnf.clauses)
        assert model is not None
        p = tuple(int(model[k + 1]) for k in range(s.num_params))
        assert eval_dag(dag, s, p)[0] == 1

    def test_dimacs_golden(self):
        # Variables: parameters first, then each reachable node in id order
        # followed by its equation's gates in post-order.  A constant's one
        # shared variable is numbered where it is first used, between the
        # gates: 5 for the 0 in x, 9 for the 1 in y.
        s = parse_system("x = y & 0 | ?p; y = !?q & (x | 1);")
        dag = with_top_leaves(build_expanded(s, 1))
        assert write_dimacs(to_cnf(dag, s, (0, 1))) == (
            "c map 1 param p\n"
            "c map 2 param q\n"
            "c map 3 term 1 top\n"
            "c map 4 term 2 x\n"
            "c map 8 term 3 y\n"
            "p cnf 11 20\n"
            "3 0\n"
            # x: 5 is the constant 0, 6 = y & 0, 7 = 6 | p, and 4 <-> 7
            "-5 0\n"
            "-6 3 0\n-6 5 0\n6 -3 -5 0\n"
            "-6 7 0\n-1 7 0\n-7 6 1 0\n"
            "-4 7 0\n4 -7 0\n"
            # y: 9 is the constant 1, 10 = x | 1, 11 = !q & 10, and 8 <-> 11
            "9 0\n"
            "-3 10 0\n-9 10 0\n-10 3 9 0\n"
            "-11 -2 0\n-11 10 0\n11 2 -10 0\n"
            "-8 11 0\n8 -11 0\n"
            "4 0\n"
        )


class TestCnfOracle:
    """``write_dimacs(to_cnf(...))`` is the per-gate encoder's text, byte for byte."""

    def check(self, s, dag, var):
        for bit in (0, 1):
            cnf = to_cnf(dag, s, (var, bit))
            assert write_dimacs(cnf) == to_dimacs(dag, s, (var, bit))
            # the map view reads its notes in numbering order
            assert list(cnf.node_map.items()) == list(encode(dag, s, (var, bit))[2].items())

    def test_emitter_corpus(self):
        # each system's clause templates are shared by its three DAGs and
        # both query bits, in that order
        from test_emit import corpus

        for k, (s, dags) in enumerate(corpus()):
            for dag in dags:
                self.check(s, dag, k % s.n)

    def test_random_systems(self):
        for seed in range(300):
            s = gen_random_monotone(seed % 8 + 1, seed % 4, 5, seed + 7000)
            dag = build_pruned(s) if seed % 2 else build_expanded(s)
            self.check(s, dag, seed % s.n)

    @pytest.mark.parametrize(
        "text",
        [
            # a constant numbered between the gates of a node's equation
            "x = y | ?p; y = z & ?q; z = x | 1;",
            "x = ?p & y; y = x | ?q; z = (y & 0) | x;",
            # one constant twice in one formula, numbered once
            "x = (x & 1) | (?p & 1);",
            "x = (y | 0) & (?p | 0) & 0; y = x | ?p;",
            # both constants first used by one node, in either order
            "x = (0 | ?p) & (1 & x);",
            "x = (y & 1) | (0 & ?p) | y; y = ?q | x;",
            # an equation that is a bare constant
            "x = 1;",
            "x = 0; y = x | ?p;",
            "x = y & 1; y = 0;",
            # no parameters
            "x = y & z; y = x | z; z = y;",
            "x = x | 1;",
        ],
    )
    def test_hand_picked(self, text):
        s = parse_system(text)
        for var in range(s.n):
            for dag in (
                build_pruned(s),
                build_expanded(s),
                with_top_leaves(build_expanded(s, 1)),
                with_top_leaves(build_expanded(s, 3)),
            ):
                self.check(s, dag, var)

    def test_constant_first_used_mid_dag(self):
        # z, the one equation with a constant, first applies after nodes of
        # x and y, and nodes of x, y and w follow it
        s = parse_system("x = y | ?p; y = x & ?q; z = y | 1; w = z & x;")
        for dag in (build_pruned(s), build_expanded(s), with_top_leaves(build_expanded(s, 1))):
            order = [s.var_names[dag.table[t][0]] for t in dag.reachable() if t > TOP]
            assert 0 < order.index("z") < len(order) - 1
            for var in range(s.n):
                self.check(s, dag, var)


class TestClauseView:
    """``CnfFormula.clauses`` is a read-only view over the DIMACS body."""

    S = "x = y & 0 | ?p; y = !?q & (x | 1);"

    def formula(self):
        s = parse_system(self.S)
        return to_cnf(with_top_leaves(build_expanded(s, 2)), s, (0, 1))

    def test_len_builds_no_tuples(self):
        cnf = self.formula()
        text = write_dimacs(cnf)
        assert len(cnf.clauses) == int(text.split("p cnf ")[1].split()[1]) == 36
        assert cnf.clauses._parsed is None
        assert write_dimacs(cnf) == text and cnf.clauses._parsed is None

    def test_reads_agree_with_parse_dimacs(self):
        cnf = self.formula()
        text = write_dimacs(cnf)
        expected = tuple(parse_dimacs(text).clauses)
        body = [line for line in text.splitlines() if line[0] not in "cp"]
        assert expected == tuple(tuple(map(int, line.split()[:-1])) for line in body)
        assert len(expected) == len(cnf.clauses)
        assert list(cnf.clauses) == list(expected)
        assert all(type(c) is tuple and all(type(lit) is int for lit in c) for c in cnf.clauses)
        for i in (0, 5, len(expected) - 1, -1, -len(expected)):
            assert cnf.clauses[i] == expected[i]
        assert cnf.clauses[3:7] == expected[3:7]
        with pytest.raises(IndexError):
            cnf.clauses[len(expected)]
        assert cnf.clauses == expected and expected == cnf.clauses
        assert cnf.clauses != expected[:-1] and cnf.clauses != list(expected)
        assert cnf.clauses == parse_dimacs(write_dimacs(cnf)).clauses
        assert expected[2] in cnf.clauses and cnf.clauses.index(expected[2]) == 2
        assert repr(cnf.clauses) == repr(expected)

    def test_read_only(self):
        cnf = self.formula()
        with pytest.raises(TypeError):
            cnf.clauses[0] = (1,)
        with pytest.raises(TypeError):
            hash(cnf.clauses)

    def test_checked_constructor_takes_tuples_only(self):
        # the view is not a tuple: the checked constructor refuses it, and
        # takes the tuples it holds
        cnf = self.formula()
        with pytest.raises(ValueError, match="not a tuple"):
            CnfFormula(cnf.num_vars, cnf.clauses, cnf.node_map)
        rebuilt = CnfFormula(cnf.num_vars, tuple(cnf.clauses), cnf.node_map)
        assert rebuilt == cnf and write_dimacs(rebuilt) == write_dimacs(cnf)
        # another variable count, or one clause fewer, is another formula
        assert CnfFormula(cnf.num_vars + 1, tuple(cnf.clauses), cnf.node_map) != cnf
        assert CnfFormula(cnf.num_vars, tuple(cnf.clauses)[:-1], cnf.node_map) != cnf


class TestFormulaText:
    """A formula holds its one DIMACS text; ``node_map`` is a view over its map lines."""

    S = TestClauseView.S

    def formula(self):
        s = parse_system(self.S)
        dag = with_top_leaves(build_expanded(s, 2))
        return to_cnf(dag, s, (0, 1)), encode(dag, s, (0, 1))[2]

    def test_write_dimacs_returns_the_stored_text(self):
        cnf, _ = self.formula()
        assert write_dimacs(cnf) is write_dimacs(cnf)
        rebuilt = CnfFormula(cnf.num_vars, tuple(cnf.clauses), dict(cnf.node_map))
        assert write_dimacs(rebuilt) is write_dimacs(rebuilt)
        assert write_dimacs(rebuilt) == write_dimacs(cnf)

    def test_reading_the_map_leaves_the_clauses_unread(self):
        cnf, expected = self.formula()
        assert dict(cnf.node_map) == expected and len(cnf.node_map) == len(expected)
        assert cnf.node_map[1] == "param p" and cnf.node_map.get(10**6) is None
        assert cnf.clauses._parsed is None

    def test_map_view_is_read_only_and_equals_the_dict(self):
        cnf, expected = self.formula()
        view = cnf.node_map
        assert isinstance(view, Mapping) and type(view) is not dict
        assert view == expected and expected == view and not view != expected
        assert list(view) == sorted(expected) and list(view.items()) == list(expected.items())
        assert repr(view) == repr(expected)
        assert view != {**expected, 1: "param other"} and view != list(expected.items())
        assert 1 in view and 10**6 not in view
        with pytest.raises(KeyError):
            view[10**6]
        with pytest.raises(TypeError):
            view[1] = "param other"
        with pytest.raises(TypeError):
            del view[1]
        with pytest.raises(TypeError):
            hash(view)
        assert not hasattr(view, "update") and not hasattr(view, "pop")

    def test_checked_constructor_takes_a_dict_or_a_view(self):
        cnf, expected = self.formula()
        for node_map in (cnf.node_map, expected, dict(reversed(expected.items()))):
            rebuilt = CnfFormula(cnf.num_vars, tuple(cnf.clauses), node_map)
            assert rebuilt == cnf and write_dimacs(rebuilt) == write_dimacs(cnf)
            assert list(rebuilt.node_map.items()) == list(expected.items())
        # the view is checked like a dict: its keys against the new count
        with pytest.raises(ValueError, match="node map key .* is not an int between 1 and 1"):
            CnfFormula(1, (), cnf.node_map)
        for node_map in (list(expected.items()), None):
            with pytest.raises(ValueError, match="node map .* is not a dict"):
                CnfFormula(cnf.num_vars, tuple(cnf.clauses), node_map)

    def test_constructor_keeps_no_reference_to_the_dict(self):
        given = {1: "param p"}
        cnf = CnfFormula(1, ((1,),), given)
        given[1] = "param q"
        assert cnf.node_map == {1: "param p"}
        assert write_dimacs(cnf) == "c map 1 param p\np cnf 1 1\n1 0\n"

    def test_another_map_is_another_formula(self):
        cnf, expected = self.formula()
        clauses = tuple(cnf.clauses)
        other = CnfFormula(cnf.num_vars, clauses, {**expected, 1: "param other"})
        assert other != cnf and other.clauses == cnf.clauses
        assert CnfFormula(cnf.num_vars, clauses, {}) != cnf


def deep_style(n, seed):
    """A system in the style of the benchmark's deep family, with constants.

    d_i = d_{i-1} & ?a | d_j & !?b for seeded a, b and j, so a few dozen
    shapes cover all n equations; every 7th equation also ORs a constant,
    so templates are compiled for several sets of numbered constants.
    """
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        a, b, j = rng.randrange(4), rng.randrange(4), rng.randrange(n)
        head = f"?q{a}" if i == 0 else f"d{i - 1} & ?q{a}"
        extra = f" | {rng.randrange(2)}" if i % 7 == 3 else ""
        lines.append(f"d{i} = {head} | d{j} & !?q{b}{extra};")
    return parse_system("\n".join(lines))


class TestSharedTemplates:
    """One clause template per (numbered-constant set, equation shape)."""

    @staticmethod
    def shape(s, i):
        gates, out = s._programs[i]
        return len(s.supports()[i]), tuple(gates), out

    def expected_pairs(self, s, dag):
        # the constants numbered before each node, as the oracle numbers them
        known, pairs = frozenset(), set()
        for tid in dag.reachable():
            if tid > TOP:
                func = dag.table[tid][0]
                pairs.add((known, self.shape(s, func)))
                known |= {a for op, a, _ in s._programs[func][0] if op is Const}
        return pairs

    def compiled(self, monkeypatch):
        calls = []
        template = emit._template

        def counting(program, num_args, num_params, known):
            numbered = frozenset(c for c in (0, 1) if known >> c & 1)
            calls.append((numbered, (num_args, tuple(program[0]), program[1])))
            return template(program, num_args, num_params, known)

        monkeypatch.setattr(emit, "_template", counting)
        return calls

    def test_one_call_per_constant_set_and_shape(self, monkeypatch):
        for n, seed in ((200, 1), (160, 2), (120, 3)):
            s = deep_style(n, seed)
            shapes = {self.shape(s, i) for i in range(s.n)}
            assert len(shapes) < n // 2  # the equations do share shapes
            dag = build_expanded(s, 4)
            pairs = self.expected_pairs(s, dag)
            assert len({known for known, _ in pairs}) >= 2
            calls = self.compiled(monkeypatch)
            TestCnfOracle().check(s, dag, 0)
            assert len(calls) == len(set(calls)) == len(pairs)
            assert set(calls) == pairs
            # a second DAG of the same system compiles only the pairs it adds
            calls.clear()
            more = with_top_leaves(build_expanded(s, 6))
            TestCnfOracle().check(s, more, n - 1)
            assert set(calls) == self.expected_pairs(s, more) - pairs
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "text",
        [
            # with one parameter both gate lists are [(And, 0, 1)]
            "x = a & ?p; y = a & b; a = a | ?p; b = b & a;",
            # the same gate list and output slot: no gate, slot 0
            "x = ?p; y = x;",
            "x = ?p; y = x; z = y;",
        ],
    )
    def test_support_length_separates_shapes(self, text, monkeypatch):
        s = parse_system(text)
        assert s._programs[0][0] == s._programs[1][0]
        assert len(s.supports()[0]) != len(s.supports()[1])
        assert s._shapes[0] != s._shapes[1]
        calls = self.compiled(monkeypatch)
        for dag in (build_pruned(s), build_expanded(s), with_top_leaves(build_expanded(s, 2))):
            for var in range(s.n):
                TestCnfOracle().check(s, dag, var)
        assert len(calls) == len(set(calls))

    def test_shapes_group_equal_programs(self):
        for seed in range(60):
            s = gen_random_monotone(seed % 8 + 1, seed % 4, 3, seed + 9100)
            for i in range(s.n):
                peers = s._shapes[i]
                assert i in peers and peers == tuple(sorted(peers))
                assert peers == tuple(j for j in range(s.n) if self.shape(s, j) == self.shape(s, i))
                assert all(s._shapes[j] is peers for j in peers)


class TestGfpQuery:
    def test_cli_gfp_dimacs_is_equisatisfiable(self, tmp_path):
        # `build --gfp` end to end: the query v=b is satisfiable exactly
        # when some parameter assignment gives greatest-fixpoint bit b at v
        path = tmp_path / "s.bes"
        out = tmp_path / "s.cnf"
        for seed in range(80):
            s = gen_random_monotone(seed % 5 + 1, seed % 4, 4, seed + 900)
            path.write_text(format_system(s))
            P = s.num_params
            gfps = [greatest_fixpoint(s, decode_param_slice(P, j))[0] for j in range(1 << P)]
            form = ("pruned", "expanded")[seed % 2]
            for var, name in enumerate(s.var_names):
                for bit in (0, 1):
                    query = f"{name}={bit}"
                    assert main(
                        ["build", str(path), "--form", form, "--emit", "dimacs",
                         "--query", query, "--gfp", "-o", str(out)]
                    ) == 0
                    cnf = parse_dimacs(out.read_text())
                    sat = solve(cnf.num_vars, cnf.clauses) is not None
                    assert sat == any(g[var] == bit for g in gfps), (seed, name, bit)


def _vc(cnf):
    return cnf.num_vars, cnf.clauses


class TestDimacs:
    def test_empty(self):
        assert write_dimacs(CnfFormula(0, ())) == "p cnf 0 0\n"

    def test_unit_clause(self):
        assert write_dimacs(CnfFormula(1, ((1,),))) == "p cnf 1 1\n1 0\n"

    def test_clauses_of_every_length_print_as_joined(self):
        # clauses of 1 to 3 literals take a fast path; each line must still
        # be the literals joined by spaces and closed by " 0"
        clauses = ((-7,), (12, -3), (1, -10, 11), (2, -4, 5, -6, 123))
        cnf = CnfFormula(123, clauses, {12: "term 12 x", 1: "param p"})
        text = write_dimacs(cnf)
        assert text == (
            "c map 1 param p\nc map 12 term 12 x\np cnf 123 4\n"
            "-7 0\n12 -3 0\n1 -10 11 0\n2 -4 5 -6 123 0\n"
        )
        joined = [" ".join(map(str, clause)) + " 0" for clause in clauses]
        assert text.splitlines()[3:] == joined
        assert parse_dimacs(text) == cnf

    def test_round_trip(self):
        for seed in range(40):
            s = gen_random_monotone(seed % 5 + 1, seed % 4, 4, seed)
            cnf = to_cnf(build_pruned(s), s, (0, seed % 2))
            assert parse_dimacs(write_dimacs(cnf)) == cnf

    def test_round_trip_keeps_node_map(self):
        s = parse_system("x = ?p | y; y = x;")
        cnf = to_cnf(build_pruned(s), s, (1, 1))
        back = parse_dimacs(write_dimacs(cnf))
        assert back.node_map == cnf.node_map

    def test_ascii_and_newline_terminated(self):
        s = parse_system("x = ?p;")
        text = write_dimacs(to_cnf(build_pruned(s), s, (0, 1)))
        assert text.endswith("\n")
        text.encode("ascii")

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 1\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 1 1\n1\n")
        with pytest.raises(ValueError):
            parse_dimacs("1 0\n")
        # the problem line's first word is exactly p
        with pytest.raises(ValueError):
            parse_dimacs("pq cnf 1 1\n1 0\n")

    def test_one_problem_line_before_every_clause(self):
        # otherwise a later problem line would win, and clauses could come first
        with pytest.raises(ValueError, match="second problem line"):
            parse_dimacs("p cnf 1 1\n1 0\np cnf 5 1\n")
        with pytest.raises(ValueError, match="second problem line"):
            parse_dimacs("p cnf 1 0\np cnf 1 0\n")
        with pytest.raises(ValueError, match="clause line before the problem line"):
            parse_dimacs("1 0\np cnf 1 1\n")
        with pytest.raises(ValueError, match="clause line before the problem line"):
            parse_dimacs("c map 1 x\n-1 0\np cnf 1 1\n")
        assert parse_dimacs("c map 1 x\np cnf 1 1\n-1 0\n") == CnfFormula(1, ((-1,),), {1: "x"})

    def test_validation(self):
        with pytest.raises(ValueError):
            CnfFormula(1, ((2,),))
        with pytest.raises(ValueError):
            CnfFormula(1, ((),))
        # write_dimacs would print 1.5 and True as "1", and fail on a None
        for clause in ((1.5,), (True,), (1, False), (1, None), (1, "2")):
            with pytest.raises(ValueError, match="literal .* is not a nonzero int between -2 and 2"):
                CnfFormula(2, (clause,))
        for clause in ([1, -2], frozenset({1})):
            with pytest.raises(ValueError, match="not a tuple"):
                CnfFormula(2, (clause,))
        for clauses in ([[1, -2]], [(1, -2)]):
            with pytest.raises(ValueError, match="not a tuple"):
                CnfFormula(2, clauses)
        assert write_dimacs(CnfFormula(2, ((1, -2),))) == "p cnf 2 1\n1 -2 0\n"
        # write_dimacs would print a key that parse_dimacs refuses or reads
        # back as another, or a key that is no variable of the formula
        for key in (True, "x", 0, 3, -1, 1.0):
            with pytest.raises(ValueError, match="node map key .* is not an int between 1 and 2"):
                CnfFormula(2, ((1,),), {key: "a"})
        # ... and a note that parse_dimacs refuses ("a\nb", "a\x1cb") or
        # reads back as another (" a" as "a", "" as no entry, 3 as "3")
        for note in ("a\nb", "a\x1cb", "a\n", " a", "a ", "", 3, None):
            with pytest.raises(ValueError, match="node map note .* is not one nonblank line"):
                CnfFormula(2, ((1,),), {1: note})
        for node_map in ([(1, "a")], None):
            with pytest.raises(ValueError, match="node map .* is not a dict"):
                CnfFormula(2, ((1,),), node_map)
        cnf = CnfFormula(2, ((1,),), {1: "param p", 2: "term 3 x"})
        assert parse_dimacs(write_dimacs(cnf)) == cnf

    def test_second_map_line_for_a_variable_rejected(self):
        # the last note used to win without a word
        with pytest.raises(ValueError, match="second map line for variable 1: 'c map 1 b'"):
            parse_dimacs("c map 1 a\nc map 1 b\np cnf 1 0\n")
        with pytest.raises(ValueError, match="second map line for variable 2: 'c map 02 b'"):
            parse_dimacs("c map 2 a\np cnf 2 0\nc map 02 b\n")
        assert parse_dimacs("c map 2 b\nc map 1 a\np cnf 2 0\n").node_map == {1: "a", 2: "b"}

    @pytest.mark.parametrize(
        "text, token, line",
        [
            ("p cnf 2 1\n1 x 0\n", "x", "1 x 0"),
            ("p cnf 2 1\n1 -2 0.5\n", "0.5", "1 -2 0.5"),
            ("p cnf 2 1\n1 --2 0\n", "--2", "1 --2 0"),
            ("c map x note\np cnf 2 0\n", "x", "c map x note"),
            ("c map 1.0 note\np cnf 2 0\n", "1.0", "c map 1.0 note"),
            ("p cnf two 0\n", "two", "p cnf two 0"),
            ("p cnf 2 1x\n1 0\n", "1x", "p cnf 2 1x"),
        ],
    )
    def test_token_other_than_an_int_rejected_with_its_line(self, text, token, line):
        with pytest.raises(ValueError) as err:
            parse_dimacs(text)
        assert str(err.value) == f"{token!r} is not an int, in line {line!r}"

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match="variable count -1 is negative"):
            CnfFormula(-1, ())
        with pytest.raises(ValueError, match="variable count -2 is negative"):
            parse_dimacs("p cnf -2 0\n")

    def test_variable_count_other_than_an_int_rejected(self):
        # write_dimacs would print "p cnf 2.5 2", which parse_dimacs refuses
        for count in (2.5, True, "2", None):
            with pytest.raises(ValueError, match="variable count .* is not an int"):
                CnfFormula(count, ((1,), (-2,)))
