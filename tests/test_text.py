import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import bes.core
from bes.core import And, Const, Or, Param, System, Var, kleene_lfp, param_masks
from bes.gen import FAMILIES, FamilySpec, gen_family, gen_random_monotone
from bes.text import BesParseError, format_system, parse_system
from formula_oracle import format_formula
import parse_oracle


class TestParse:
    def test_identity(self):
        s = parse_system("x = x;")
        assert s.n == 1
        assert s.formulas == (Var(0),)
        assert s.var_names == ("x",)

    def test_three_variable_example(self):
        s = parse_system("a = 1; b = a & c; c = b | a;")
        assert s.var_names == ("a", "b", "c")
        assert s.formulas[1] == And(Var(0), Var(2))
        assert kleene_lfp(s)[0] == (1, 1, 1)

    def test_precedence_and_parens(self):
        s = parse_system("x = x | y & x; y = (x | y) & x;")
        assert s.formulas[0] == Or(Var(0), And(Var(1), Var(0)))
        assert s.formulas[1] == And(Or(Var(0), Var(1)), Var(0))

    def test_parameters_by_first_occurrence(self):
        s = parse_system("x = ?q | !?p; y = ?p & x;")
        assert s.param_names == ("q", "p")
        assert s.formulas[0] == Or(Param(0), Param(1, negated=True))

    def test_comments_and_whitespace(self):
        s = parse_system("# leading comment\n  x   =\n 0 ;  # trailing\n")
        assert s.formulas == (Const(0),)

    def test_forward_reference(self):
        s = parse_system("a = b; b = 1;")
        assert s.formulas[0] == Var(1)

    def test_left_deep_shape(self):
        s = parse_system("a = a & b | c & d | e; b = 1; c = 1; d = 1; e = 1;")
        a, b, c, d, e = (Var(i) for i in range(5))
        assert s.formulas[0] == Or(Or(And(a, b), And(c, d)), e)

    def test_deep_nesting(self):
        depth = 5000
        s = parse_system("x = " + "(" * depth + "x" + ")" * depth + ";")
        assert s.formulas == (Var(0),)


class TestParseErrors:
    def test_negated_state_variable_rejected(self):
        with pytest.raises(BesParseError) as err:
            parse_system("x = !y;")
        assert err.value.kind == "syntax"

    def test_undeclared_identifier(self):
        with pytest.raises(BesParseError) as err:
            parse_system("x = y;")
        assert err.value.kind == "semantic"
        assert err.value.line == 1
        assert err.value.col == 5

    def test_duplicate_definition(self):
        with pytest.raises(BesParseError) as err:
            parse_system("x = 1;\nx = 0;")
        assert err.value.kind == "semantic"
        assert err.value.line == 2

    def test_empty_system(self):
        with pytest.raises(BesParseError) as err:
            parse_system("# nothing here\n")
        assert err.value.kind == "semantic"

    def test_missing_semicolon(self):
        with pytest.raises(BesParseError) as err:
            parse_system("x = 1")
        assert err.value.kind == "syntax"

    def test_param_name_clash(self):
        with pytest.raises(BesParseError) as err:
            parse_system("x = ?x;")
        assert err.value.kind == "semantic"

    def test_malformed_constant(self):
        with pytest.raises(BesParseError):
            parse_system("x = 01;")

    def test_stray_token_position(self):
        with pytest.raises(BesParseError) as err:
            parse_system("x = 1 1;")
        assert (err.value.line, err.value.col) == (1, 7)


# At least one input per raise site in text.py: (text, str(err), line, col, kind).
ERROR_TABLE = [
    ("x = 01;", "1:5: malformed constant", 1, 5, "syntax"),
    ("x = $;", "1:5: unexpected character '$'", 1, 5, "syntax"),
    ("= 1;", "1:1: expected an equation name", 1, 1, "syntax"),
    ("x 1;", "1:3: expected '=' after the equation name", 1, 3, "syntax"),
    ("x = 1", "1:6: missing ';' at end of equation", 1, 6, "syntax"),
    ("x = 1 # note", "1:7: missing ';' at end of equation", 1, 7, "syntax"),
    ("x = ;", "1:5: empty right-hand side", 1, 5, "syntax"),
    ("# nothing\n", "1:1: empty system", 1, 1, "semantic"),
    ("x = 1;\nx = 0;", "2:1: duplicate definition of 'x'", 2, 1, "semantic"),
    ("x = y;", "1:5: undeclared identifier 'y'", 1, 5, "semantic"),
    ("x = ?x;", "1:6: 'x' is a variable and cannot also be a parameter", 1, 6, "semantic"),
    ("x = !y;", "1:6: expected '?', found 'y'", 1, 6, "syntax"),
    ("x = ?1;", "1:6: expected a parameter name after '?'", 1, 6, "syntax"),
    ("x = !?;", "1:7: expected a parameter name after '?'", 1, 7, "syntax"),
    (
        "x = 1 & |;",
        "1:9: expected a constant, identifier, parameter, or '(', found '|'",
        1, 9, "syntax",
    ),
    # a body's end of input sits just after its last token, not at the ';'
    (
        "x = 1 &\n;",
        "1:8: expected a constant, identifier, parameter, or '(', found end of input",
        1, 8, "syntax",
    ),
    ("x = (1 1);", "1:8: expected ')', found '1'", 1, 8, "syntax"),
    ("x = (1 ;", "1:7: expected ')', found end of input", 1, 7, "syntax"),
    ("long_name = (long_name ;", "1:23: expected ')', found end of input", 1, 23, "syntax"),
    ("x = 1 1;", "1:7: unexpected '1'", 1, 7, "syntax"),
    ("x = 1);", "1:6: unexpected ')'", 1, 6, "syntax"),
    ("x = 0_x;", "1:6: unexpected '_x'", 1, 6, "syntax"),
]


@pytest.mark.parametrize("text, message, line, col, kind", ERROR_TABLE)
def test_error_table(text, message, line, col, kind):
    with pytest.raises(BesParseError) as err:
        parse_system(text)
    assert (str(err.value), err.value.line, err.value.col, err.value.kind) == (
        message, line, col, kind
    )


def test_names_are_ascii():
    with pytest.raises(BesParseError) as err:
        parse_system("é = 1;")
    assert (str(err.value), err.value.kind) == ("1:1: unexpected character 'é'", "syntax")
    with pytest.raises(BesParseError) as err:
        parse_system("x = xé;")
    assert str(err.value) == "1:6: unexpected character 'é'"


_FUZZ_OPERANDS = ["x", "y", "_z", "x1", "?p", "!?q", "0", "1", "(x)", "(y | 0)"]
_FUZZ_NOISE = [
    "?", "!", "01", "0_x", "1b", "(", ")", "&", "|", "=", ";", " ", "\n", "\t", "\r",
    "# c\n", "#", "$", "2",
]


def _fuzz_text(rng: random.Random) -> str:
    """Equations over x, y and _z whose bodies mix operands, operators and noise."""
    pieces = []
    for name in rng.sample(["x", "y", "_z"], rng.randint(1, 3)):
        pieces.append(f"{name} = ")
        for k in range(rng.randint(1, 6)):
            if k:
                pieces.append(rng.choice([" & ", " | ", "&", "|\n"]))
            pieces.append(rng.choice(_FUZZ_OPERANDS))
        pieces.append(rng.choice([";", ";\n", "; # c\n"]))
    for _ in range(rng.choice([0, 0, 1, 2])):
        pos = rng.randrange(len(pieces) + 1)
        pieces.insert(pos, rng.choice(_FUZZ_NOISE + _FUZZ_OPERANDS))
    return "".join(pieces)


def test_seeded_front_end_fuzz():
    # Every input either fails with a positioned BesParseError or round-trips
    # through the printer; any other exception fails the test.
    rng = random.Random(20041)
    accepted = 0
    for _ in range(5000):
        text = _fuzz_text(rng)
        try:
            s = parse_system(text)
        except BesParseError:
            continue
        accepted += 1
        assert parse_system(format_system(s)) == s, text
    assert 500 < accepted < 4500


def _outcome(parse, text):
    """The parsed System, or the (message, line, col, kind) of the refusal."""
    try:
        return parse(text)
    except BesParseError as err:
        return (str(err), err.line, err.col, err.kind)


def _same_formula(a, b) -> bool:
    """Structural equality by an explicit stack; ``==`` recurses on long chains."""
    stack = [(a, b)]
    while stack:
        f, g = stack.pop()
        if type(f) is not type(g):
            return False
        if type(f) in (And, Or):
            stack += (f.left, g.left), (f.right, g.right)
        elif f != g:
            return False
    return True


def _deep_text(n: int, rng: random.Random) -> str:
    """The benchmark's deep-solve shape: d_i = d_{i-1} & ?a | d_j & !?b."""
    lines = []
    for i in range(n):
        a, j, b = rng.randrange(1, 5), rng.randrange(n), rng.randrange(1, 5)
        head = f"?q{a}" if i == 0 else f"d{i - 1} & ?q{a}"
        lines.append(f"d{i} = {head} | d{j} & !?q{b};")
    return "\n".join(lines) + "\n"


WIDE_TEXT = "w0 = {};\nw1 = w0 & ?r1;\nw2 = w1 | ?r2;\nw3 = w2 & w3;\n".format(
    " | ".join(f"w{t % 4} & {'!' if t % 2 else ''}?r{t % 3 + 1}" for t in range(3000))
)


class TestParseOracle:
    """``parse_system`` against ``tests/parse_oracle.py``, which positions every
    token and builds its System through the checked constructor: the same
    System, or the same message, line, column and kind."""

    @staticmethod
    def _check(text):
        got = _outcome(parse_system, text)
        assert got == _outcome(parse_oracle.parse_system, text), text
        if isinstance(got, System):  # the checked constructor accepts it too
            assert System(got.formulas, got.var_names, got.param_names) == got

    def test_fuzz_inputs(self):
        # the inputs of test_seeded_front_end_fuzz
        rng = random.Random(20041)
        for _ in range(5000):
            self._check(_fuzz_text(rng))

    @pytest.mark.parametrize("text", [row[0] for row in ERROR_TABLE])
    def test_error_table(self, text):
        self._check(text)

    def test_token_soup(self):
        # short strings over every lexical class, so most fail somewhere
        pieces = ["x", "y", "_q", "?", "!", "(", ")", "&", "|", "=", ";", " ", "\n", "\r",
                  "\t", "# c", "#", "0", "1", "01", "1b", "$", "é"]
        rng = random.Random(2004)
        for _ in range(20000):
            self._check("".join(rng.choice(pieces) for _ in range(rng.randint(0, 12))))

    @pytest.mark.parametrize("name", ["deep-1400", "wide-3000"])
    def test_benchmark_shapes(self, name):
        text = _deep_text(1400, random.Random(5)) if name == "deep-1400" else WIDE_TEXT
        got, want = parse_system(text), parse_oracle.parse_system(text)
        assert (got.var_names, got.param_names) == (want.var_names, want.param_names)
        assert all(map(_same_formula, got.formulas, want.formulas))

    def test_leaves_are_shared(self):
        # one Var per variable, one Param per literal and one Const per value
        a, b = parse_system("x = x & ?p; y = ?p & x | 1 | 1;").formulas
        assert b == Or(Or(And(Param(0), Var(0)), Const(1)), Const(1))
        assert a.left is b.left.left.right and a.right is b.left.left.left
        assert b.left.right is b.right


class TestLinearTime:
    """Long inputs, valid and not, on which a backtracking token pattern or a
    quadratic position search would take far longer than the bound."""

    @pytest.mark.parametrize(
        "text, error",
        [
            ("x = 1;" + " " * 200_000, None),
            ("x = 1" + " \t\r\n" * 50_000, "50001:1: missing ';' at end of equation"),
            ("x = 1; #" + "c" * 200_000, None),
            ("x = 1 #" + "c" * 200_000, "1:7: missing ';' at end of equation"),
            ("x = " + "(" * 100_000 + "x" + ")" * 100_000 + ";", None),
            ("x = " + "(" * 100_000 + "x;", "1:100006: expected ')', found end of input"),
            (WIDE_TEXT, None),
        ],
        ids=["blanks", "blanks-error", "comment", "comment-error", "parens", "parens-error",
             "wide-3000"],
    )
    def test_parse_time(self, text, error):
        start = time.perf_counter()
        try:
            parse_system(text)
            outcome = None
        except BesParseError as err:
            outcome = str(err)
        assert time.perf_counter() - start < 2.0
        assert outcome == error


class TestPrinterOracle:
    """``format_system`` replays each equation's gate list; the oracle walks its tree."""

    @staticmethod
    def _oracle(s):
        return "".join(
            f"{name} = {format_formula(f, s)};\n" for name, f in zip(s.var_names, s.formulas)
        )

    def test_fuzz_inputs(self):
        # the inputs of test_seeded_front_end_fuzz that parse
        rng = random.Random(20041)
        for _ in range(5000):
            text = _fuzz_text(rng)
            try:
                s = parse_system(text)
            except BesParseError:
                continue
            assert format_system(s) == self._oracle(s), text

    def test_random_systems(self):
        rng = random.Random(19)
        for _ in range(2400):
            s = gen_random_monotone(
                rng.randint(1, 8), rng.randint(0, 4), rng.randint(1, 6), rng.randrange(2**32)
            )
            assert format_system(s) == self._oracle(s)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families(self, family):
        sizes = [3] if family == "sparse3" else [2, 4, 8, 20]
        for n in sizes:
            for seed in range(3):
                s = gen_family(FamilySpec(family, n, seed))
                assert format_system(s) == self._oracle(s)

    def test_printing_then_solving_compiles_each_equation_once(self, monkeypatch):
        calls = []
        real = bes.core._gate_list

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bes.core, "_gate_list", counting)
        s = gen_random_monotone(9, 3, 5, 7)
        format_system(s)
        kleene_lfp(s, *param_masks(s.num_params))
        assert len(calls) == s.n


class TestRoundTrip:
    def test_printer_output_shape(self):
        s = parse_system("a = 1; b = a & c; c = b | a;")
        assert format_system(s) == "a = 1;\nb = a & c;\nc = b | a;\n"

    def test_parens_only_where_needed(self):
        s = parse_system("x = (x | y) & x; y = x & (y & x);")
        assert format_system(s) == "x = (x | y) & x;\ny = x & (y & x);\n"

    def test_exact_round_trip_for_parsed_systems(self):
        texts = [
            "x = x;",
            "a = 1; b = a & c; c = b | a;",
            "x = ?p & (y | !?q); y = x | 0;",
            "f1 = f1 | f2; f2 = f1 | f2;",
        ]
        for text in texts:
            s = parse_system(text)
            assert parse_system(format_system(s)) == s

    @given(
        st.builds(
            gen_random_monotone,
            st.integers(1, 6),
            st.integers(0, 3),
            st.integers(1, 5),
            st.integers(0, 2**32),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_parse_print_round_trip(self, s):
        # parameters can be dropped by printing if an equation never uses
        # them, so compare after one normalizing round
        printed = format_system(s)
        reparsed = parse_system(printed)
        assert format_system(reparsed) == printed
        assert reparsed.var_names == s.var_names
        assert reparsed.formulas == tuple(
            _renumber(f, s, reparsed) for f in s.formulas
        )


def _renumber(f, old, new):
    """Map parameter indices from old numbering to the reparsed numbering."""
    if isinstance(f, Param):
        return Param(new.param_names.index(old.param_names[f.index]), f.negated)
    if isinstance(f, And):
        return And(_renumber(f.left, old, new), _renumber(f.right, old, new))
    if isinstance(f, Or):
        return Or(_renumber(f.left, old, new), _renumber(f.right, old, new))
    return f
