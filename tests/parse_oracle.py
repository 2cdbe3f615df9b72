"""A parser of the BES text format that tracks every token's position.

Used by the tests as a differential oracle for ``bes.text.parse_system``,
which scans plain token strings and works out a line and column only when
it refuses its input.  This one builds a positioned token for every lexeme,
checks its result with the public ``System`` constructor, and shares only
``BesParseError`` and the node kinds with the package.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from bes.core import _IDENT_RE, And, Const, Formula, Or, Param, System, Var
from bes.text import BesParseError


class _Token(NamedTuple):
    kind: str  # IDENT CONST PUNCT END
    text: str
    line: int
    col: int


# One alternative per lexical class; the group that matched names it.  A 0 or
# 1 followed by a letter or digit is malformed, but ``0_x`` is 0 then ``_x``.
_TOKEN_RE = re.compile(
    rf"(?P<NEWLINE>\n)|(?P<BLANK>[ \t\r]+)|(?P<COMMENT>#[^\n]*)|(?P<IDENT>{_IDENT_RE.pattern})"
    r"|(?P<MALFORMED>[01][A-Za-z0-9])|(?P<CONST>[01])|(?P<PUNCT>[=;&|()?!])|(?P<UNEXPECTED>.)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "BLANK" or kind == "COMMENT":
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        col = m.start() - line_start + 1
        if kind == "MALFORMED":
            raise BesParseError("malformed constant", line, col)
        if kind == "UNEXPECTED":
            raise BesParseError(f"unexpected character {m.group()!r}", line, col)
        tokens.append(_Token(kind, m.group(), line, col))
    # a comment does not advance the column, so END may sit at its '#'
    end = m.start() if m and m.lastgroup == "COMMENT" else len(text)
    tokens.append(_Token("END", "", line, end - line_start + 1))
    return tokens


def _expected(what: str, tok: _Token) -> BesParseError:
    found = repr(tok.text) if tok.text else "end of input"
    return BesParseError(f"expected {what}, found {found}", tok.line, tok.col)


def _parse_formula(
    body: list[_Token], var_index: dict[str, int], param_index: dict[str, int]
) -> Formula:
    """Parse one right-hand side; ``body`` ends in an END token.

    An operator-precedence loop with no recursion: ``disj`` and ``conj`` are
    the disjunction and the conjunction built so far (None before their first
    operand), and ``stack`` saves that pair at each open parenthesis.  Both
    operators associate to the left, and ``&`` binds tighter than ``|``.
    New parameter names are added to ``param_index`` in order of occurrence.
    """
    stack: list[tuple[Formula | None, Formula | None]] = []
    disj: Formula | None = None
    conj: Formula | None = None
    tokens = iter(body)
    for tok in tokens:  # an operand is due
        if tok.text == "(":
            stack.append((disj, conj))
            disj = conj = None
            continue
        if tok.kind == "CONST":
            f = Const(int(tok.text))
        elif tok.kind == "IDENT":
            idx = var_index.get(tok.text)
            if idx is None:
                raise BesParseError(
                    f"undeclared identifier {tok.text!r}", tok.line, tok.col, "semantic"
                )
            f = Var(idx)
        elif tok.text in ("?", "!"):
            negated = tok.text == "!"
            tok = next(tokens)
            if negated:
                if tok.text != "?":
                    raise _expected("'?'", tok)
                tok = next(tokens)
            if tok.kind != "IDENT":
                raise BesParseError("expected a parameter name after '?'", tok.line, tok.col)
            if tok.text in var_index:
                raise BesParseError(
                    f"{tok.text!r} is a variable and cannot also be a parameter",
                    tok.line,
                    tok.col,
                    "semantic",
                )
            f = Param(param_index.setdefault(tok.text, len(param_index)), negated)
        else:
            raise _expected("a constant, identifier, parameter, or '('", tok)
        conj = f if conj is None else And(conj, f)
        for tok in tokens:  # an operator, a ')' or the end is due
            if tok.text == "&":
                break
            if tok.text == "|":
                disj, conj = (conj if disj is None else Or(disj, conj)), None
                break
            f = conj if disj is None else Or(disj, conj)
            if not stack:
                if tok.kind == "END":
                    return f
                raise BesParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
            if tok.text != ")":
                raise _expected("')'", tok)
            disj, conj = stack.pop()
            conj = f if conj is None else And(conj, f)


def parse_system(text: str) -> System:
    """Parse BES text into a System built by the checked constructor."""
    tokens = _tokenize(text)
    equations: list[tuple[_Token, list[_Token]]] = []
    i = 0
    while tokens[i].kind != "END":
        head, eq = tokens[i], tokens[i + 1]
        if head.kind != "IDENT":
            raise BesParseError("expected an equation name", head.line, head.col)
        if eq.text != "=":
            raise BesParseError("expected '=' after the equation name", eq.line, eq.col)
        j = i + 2
        while tokens[j].kind != "END" and tokens[j].text != ";":
            j += 1
        if tokens[j].kind == "END":
            raise BesParseError("missing ';' at end of equation", tokens[j].line, tokens[j].col)
        if j == i + 2:
            raise BesParseError("empty right-hand side", tokens[j].line, tokens[j].col)
        last = tokens[j - 1]
        end = _Token("END", "", last.line, last.col + len(last.text))
        equations.append((head, tokens[i + 2 : j] + [end]))
        i = j + 1
    if not equations:
        raise BesParseError("empty system", 1, 1, "semantic")

    var_index: dict[str, int] = {}
    for head, _ in equations:
        if head.text in var_index:
            raise BesParseError(
                f"duplicate definition of {head.text!r}", head.line, head.col, "semantic"
            )
        var_index[head.text] = len(var_index)

    param_index: dict[str, int] = {}
    formulas = tuple(_parse_formula(body, var_index, param_index) for _, body in equations)
    return System(formulas, tuple(var_index), tuple(param_index))
