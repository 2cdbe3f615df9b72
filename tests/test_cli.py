import subprocess
import sys

import pytest

from bes.cli import _make_parser, main
from bes.emit import DEFAULT_TREE_SIZE_LIMIT
from bes.text import parse_system

EXAMPLE = "a = 1; b = a & c; c = b | a;\n"


@pytest.fixture
def bes_file(tmp_path):
    path = tmp_path / "example.bes"
    path.write_text(EXAMPLE)
    return str(path)


class TestSolve:
    def test_lfp_output(self, bes_file, capsys):
        assert main(["solve", bes_file]) == 0
        out = capsys.readouterr().out
        assert out == "(1,1,1)\nK=3\na=1\nb=1\nc=1\n"

    def test_gfp(self, tmp_path, capsys):
        path = tmp_path / "g.bes"
        path.write_text("x = x & 0;\n")
        assert main(["solve", str(path), "--gfp"]) == 0
        assert capsys.readouterr().out.startswith("(0)\n")

    def test_params_required(self, tmp_path, capsys):
        path = tmp_path / "p.bes"
        path.write_text("x = ?p;\n")
        assert main(["solve", str(path)]) == 3
        assert main(["solve", str(path), "--params", "p=1"]) == 0
        assert capsys.readouterr().out.startswith("(1)\n")

    def test_unknown_param_rejected(self, tmp_path):
        path = tmp_path / "p.bes"
        path.write_text("x = ?p;\n")
        assert main(["solve", str(path), "--params", "p=1,zz=0"]) == 3

    def test_param_assigned_twice_rejected(self, tmp_path, capsys):
        path = tmp_path / "p.bes"
        path.write_text("x = ?p & ?q;\n")
        assert main(["solve", str(path), "--params", "p=1,p=0,q=1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parameter 'p' is assigned twice\n"

    def test_missing_file(self):
        assert main(["solve", "/nonexistent/nowhere.bes"]) == 4

    def test_parse_error_exit_codes(self, tmp_path):
        syntax = tmp_path / "bad.bes"
        syntax.write_text("x = ;\n")
        assert main(["solve", str(syntax)]) == 2
        semantic = tmp_path / "sem.bes"
        semantic.write_text("x = y;\n")
        assert main(["solve", str(semantic)]) == 3

    def test_non_ascii_name_is_a_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "u.bes"
        path.write_text("é = 1;\n", encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == "error: 1:1: unexpected character 'é'\n"

    def test_deep_nesting_is_solved(self, tmp_path, capsys):
        path = tmp_path / "nested.bes"
        path.write_text("x = " + "(" * 5000 + "x" + ")" * 5000 + ";\n")
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out.startswith("(0)\n")

    def test_deep_recursion_is_a_clean_error(self, tmp_path, capsys):
        # 3000 disjuncts parse into a left-deep chain that evaluation recurses through
        path = tmp_path / "wide.bes"
        path.write_text("x = " + " | ".join(["x"] * 3000) + ";\n")
        assert main(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_long_path_pruned_is_a_clean_error(self, tmp_path, capsys):
        # x_i = x_{i+1}, x_1499 = 1: the pruned form has only 1,500
        # applications, but its recursion nests one call per equation
        n = 1500
        path = tmp_path / "path.bes"
        path.write_text("".join(f"x{i} = x{i + 1};\n" for i in range(n - 1)) + f"x{n - 1} = 1;\n")
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out.startswith("(" + ",".join(["1"] * n) + ")\nK=1500\n")
        build = ["build", str(path), "--form", "pruned", "--emit", "let"]
        for argv in (build, ["stats", str(path)]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: input nested too deeply (recursion limit reached)\n"


class TestRightNested:
    """x = ?a | (?a | (... ?b ...)), 2000 levels: the parser takes it, and
    every command that compiles the equation's gate list fails cleanly."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "right.bes"
        path.write_text("x = " + "?a | (" * 1999 + "?b" + ")" * 1999 + ";\n")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--params", "a=0,b=1"],
            ["build", "--form", "expanded", "--emit", "dimacs", "--query", "x=1"],
        ],
    )
    def test_gate_list_is_a_clean_error(self, path, argv, capsys):
        assert main([argv[0], path] + argv[1:]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input nested too deeply (recursion limit reached)\n"

    def test_pruned_sexpr_is_rendered(self, path, capsys):
        # the pruned form never compiles the gate list: one node, no arguments
        assert main(["build", path, "--form", "pruned", "--emit", "sexpr"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "(x)\n" and captured.err == ""


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestBuild:
    def test_long_cycle_pruned_is_a_clean_error(self, tmp_path, capsys):
        # x_i = x_{i+1 mod n}: the pruned recursion nests one call per equation
        n = 1500
        path = tmp_path / "cycle.bes"
        path.write_text("".join(f"x{i} = x{(i + 1) % n};\n" for i in range(n)))
        assert main(["build", str(path), "--form", "pruned", "--emit", "let"]) == 3
        _assert_one_error_line(capsys)

    def test_wide_dimacs_is_a_clean_error(self, tmp_path, capsys):
        # 3000 disjuncts parse into a left-deep chain the CNF encoding recurses through
        path = tmp_path / "wide.bes"
        path.write_text("x = " + " | ".join(["x"] * 3000) + ";\n")
        argv = ["build", str(path), "--form", "pruned", "--emit", "dimacs", "--query", "x=1"]
        assert main(argv) == 3
        _assert_one_error_line(capsys)

    def test_sexpr_chain(self, tmp_path, capsys):
        path = tmp_path / "chain.bes"
        path.write_text("f1 = f1 | f2; f2 = f1 | f2;\n")
        assert main(["build", str(path), "--form", "pruned", "--emit", "sexpr"]) == 0
        out = capsys.readouterr().out
        assert out == "((f1 bot (f2 bot bot)) (f2 (f1 bot bot) bot))\n"

    def test_let_to_file(self, bes_file, tmp_path, capsys):
        out_path = tmp_path / "out.txt"
        assert main(
            ["build", bes_file, "--form", "expanded", "--emit", "let", "-o", str(out_path)]
        ) == 0
        assert out_path.read_text().endswith("(t0, t3, t6)\n")
        assert capsys.readouterr().out == ""

    def test_depth_flag(self, bes_file, capsys):
        assert main(["build", bes_file, "--form", "expanded", "--depth", "0", "--emit", "let"]) == 0
        assert capsys.readouterr().out == "(bot, bot, bot)\n"

    def test_depth_rejected_for_pruned(self, bes_file):
        assert main(["build", bes_file, "--form", "pruned", "--depth", "2", "--emit", "let"]) == 3

    def test_dimacs_requires_query(self, bes_file, capsys):
        assert main(["build", bes_file, "--form", "pruned", "--emit", "dimacs"]) == 3
        assert main(
            ["build", bes_file, "--form", "pruned", "--emit", "dimacs", "--query", "a=1"]
        ) == 0
        assert "p cnf" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "query, message",
        [
            ("zz=1", "unknown variable 'zz' in --query"),
            ("a=2", "--query needs a 0/1 value"),
            ("a=", "--query needs a 0/1 value"),
            ("a=01", "--query needs a 0/1 value"),
            ("a", "--query must be var=bit, got 'a'"),
            ("=1", "--query must be var=bit, got '=1'"),
        ],
    )
    def test_dimacs_query_refusals(self, bes_file, capsys, query, message):
        argv = ["build", bes_file, "--form", "pruned", "--emit", "dimacs", "--query", query]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_gfp_leaves_print_top(self, tmp_path, capsys):
        path = tmp_path / "g.bes"
        path.write_text("x = x;\n")
        assert main(["build", str(path), "--form", "pruned", "--emit", "sexpr", "--gfp"]) == 0
        assert capsys.readouterr().out == "(x top)\n"

    def test_deep_sexpr_is_rendered(self, tmp_path, capsys):
        # 601 tree nodes, far under the size limit, but nested 600 deep
        path = tmp_path / "x.bes"
        path.write_text("x = x;\n")
        argv = ["build", str(path), "--form", "expanded", "--depth", "600", "--emit", "sexpr"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "(x " * 600 + "bot" + ")" * 600 + "\n"

    def test_max_tree_size_default(self):
        args = _make_parser().parse_args(["build", "f.bes", "--form", "pruned", "--emit", "sexpr"])
        assert args.max_tree_size == DEFAULT_TREE_SIZE_LIMIT

    def test_tree_size_refusal(self, tmp_path, capsys):
        path = tmp_path / "big.bes"
        path.write_text(
            "\n".join(
                f"v{i} = " + " | ".join(f"v{j}" for j in range(12)) + ";"
                for i in range(12)
            )
        )
        assert main(["build", str(path), "--form", "pruned", "--emit", "sexpr"]) == 3
        err = capsys.readouterr().err
        assert "over the limit" in err


    @pytest.mark.parametrize("limit", ["-1", "x", "1.5", "1e3", ""])
    def test_max_tree_size_is_a_usage_error_unless_a_count(self, bes_file, capsys, limit):
        argv = ["build", bes_file, "--form", "pruned", "--emit", "sexpr", "--max-tree-size", limit]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --max-tree-size:" in captured.err and "Traceback" not in captured.err

    def test_max_tree_size_zero_is_a_limit(self, bes_file, capsys):
        argv = ["build", bes_file, "--form", "pruned", "--emit", "sexpr", "--max-tree-size", "0"]
        assert main(argv) == 3
        assert "over the limit of 0" in capsys.readouterr().err


class TestStats:
    def test_table(self, bes_file, capsys):
        assert main(["stats", bes_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == [
            "form", "apply_count", "edge_count", "dag_depth", "tree_size",
        ]
        assert out.splitlines()[1].startswith("pruned")

    def test_csv(self, bes_file, capsys):
        assert main(["stats", bes_file, "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "form,apply_count,edge_count,dag_depth,tree_size"
        assert len(lines) == 3


class TestVerify:
    def test_file_mode(self, bes_file, capsys):
        assert main(["verify", bes_file]) == 0
        out = capsys.readouterr().out
        for suite in (
            "equality",
            "pruned_le_expanded",
            "prune_le_iterate",
            "zero_prefix",
            "masking_preserves_iterates",
            "masked_le_pruned",
            "self_substitution",
            "memo_keys",
        ):
            assert f"{suite}: pass" in out

    def test_random_mode(self, capsys):
        assert main(["verify", "--random", "--trials", "25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "equality: 25/25" in out

    def test_needs_input(self):
        assert main(["verify"]) == 3

    @staticmethod
    def _record_suites(monkeypatch):
        """Replace the suites by a stand-in that records its arguments and
        passes every suite it is asked for."""
        from bes import props

        calls = []

        def check_all(system, params=None, subsets=None, names=None):
            calls.append((system.n, params, subsets, names))
            return dict.fromkeys(props.SUITES if names is None else names)

        monkeypatch.setattr(props, "check_all", check_all)
        return calls

    @staticmethod
    def _identity_file(tmp_path, n):
        path = tmp_path / f"id{n}.bes"
        path.write_text("".join(f"v{i} = v{i};\n" for i in range(n)))
        return str(path)

    def test_file_up_to_the_sweep_limit_is_swept(self, tmp_path, monkeypatch, capsys):
        from bes import props

        calls = self._record_suites(monkeypatch)
        path = self._identity_file(tmp_path, 14)
        assert main(["verify", path, "--trials", "3"]) == 0
        assert calls == [(14, None, None, None)]
        out = capsys.readouterr().out
        assert out == "".join(f"{name}: pass\n" for name in props.SUITES)

    def test_file_past_the_sweep_limit_is_sampled(self, tmp_path, monkeypatch, capsys):
        calls = self._record_suites(monkeypatch)
        path = self._identity_file(tmp_path, 15)
        for trials, expected in (("7", 7), ("5000", 4096)):
            calls.clear()
            assert main(["verify", path, "--trials", trials, "--seed", "2"]) == 0
            [(n, params, subsets, names)] = calls
            assert (n, params, names) == (15, None, None)
            assert len(subsets) == len(set(subsets)) == expected
            assert all(s <= frozenset(range(15)) for s in subsets)

    def test_random_max_n_outside_the_sweep_range(self, capsys):
        # 2**15 masked sets per system would run for minutes; refuse up front
        for max_n in ("15", "0"):
            assert main(["verify", "--random", "--max-n", max_n, "--trials", "1"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: max_n=") and captured.err.count("\n") == 1

    def test_trials_below_one_are_refused(self, tmp_path, capsys):
        # zero trials would print 0/0, or pass a 15-variable file on no masked set
        path = self._identity_file(tmp_path, 15)
        for source in (["--random"], [path]):
            for trials in ("0", "-3"):
                assert main(["verify", *source, "--trials", trials]) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error: --trials=")
                assert captured.err.count("\n") == 1


class TestGen:
    def test_chain(self, capsys):
        assert main(["gen", "chain", "--n", "4"]) == 0
        text = capsys.readouterr().out
        system = parse_system(text)
        assert system.var_names == ("f1", "f2", "f3", "f4")

    def test_sparse3_default_n(self, capsys):
        assert main(["gen", "sparse3"]) == 0
        assert parse_system(capsys.readouterr().out).var_names == ("x", "y", "z")

    def test_random_round_trips(self, capsys):
        assert main(["gen", "random", "--n", "5", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "random", "--n", "5", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        parse_system(first)

    def test_chain_odd_rejected(self, capsys):
        assert main(["gen", "chain", "--n", "5"]) == 3

    def test_n_required(self, capsys):
        assert main(["gen", "chain"]) == 3


class TestBench:
    def test_csv_columns(self, capsys):
        assert main(["bench", "--family", "chain", "--n-list", "2,4", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("family,n,pruned_apply")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "chain" and first[1] == "2"
        assert first[2] == "4"  # pruned applications at n=2

    @pytest.fixture
    def no_build(self, monkeypatch):
        import bes.cli

        def build(system):
            raise AssertionError("built before every arity was read and checked")

        monkeypatch.setattr(bes.cli, "build_pruned", build)

    @pytest.mark.parametrize("n_list", ["4,x", "4,,6", "4,", "4.0", "-2", ""])
    def test_malformed_list_is_a_usage_error_before_any_build(self, n_list, capsys, no_build):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--family", "chain", "--n-list", n_list])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --n-list:" in captured.err and "Traceback" not in captured.err

    def test_arity_a_family_refuses_fails_before_any_build(self, capsys, no_build):
        assert main(["bench", "--family", "chain", "--n-list", "4,3"]) == 3
        assert capsys.readouterr().err == "error: chain needs an even arity of at least 2\n"


class TestCounterexampleDump:
    def test_dump_is_replayable(self, tmp_path, monkeypatch):
        from bes import props
        from bes.cli import _dump_counterexample

        monkeypatch.chdir(tmp_path)
        cex = props.Counterexample(
            suite="equality",
            system=parse_system("x = ?p & y; y = x;"),
            params=(1,),
            detail="fabricated for the dump path",
        )
        path = tmp_path / _dump_counterexample(cex)
        text = path.read_text()
        assert "# suite: equality" in text
        assert "# params: p=1" in text
        replayed = parse_system(text)
        assert replayed.var_names == ("x", "y")


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bes.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout

    def test_module_solve(self, tmp_path):
        path = tmp_path / "s.bes"
        path.write_text("x = 1;\n")
        proc = subprocess.run(
            [sys.executable, "-m", "bes.cli", "solve", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("(1)")
