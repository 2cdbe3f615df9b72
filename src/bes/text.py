"""The BES text format: parsing and printing of equation systems.

One equation per line, ``name = expr ;``.  Declaration order fixes variable
indices.  Expressions use ``|`` and ``&`` (with ``&`` binding tighter),
constants ``0`` and ``1``, parentheses, and parameters written ``?name`` or
negated ``!?name``; parameter indices follow first occurrence in text
order.  Names are ASCII: a letter or ``_``, then letters, digits or ``_``.
``#`` starts a comment running to end of line.  Plain identifiers must be
declared by some equation; there are no implicit variables.
"""

from __future__ import annotations

from itertools import islice
import re

from .core import _IDENT_RE, And, Const, Formula, Or, Param, System, Var


class BesParseError(Exception):
    """Parse failure with position; kind is 'syntax' or 'semantic'."""

    def __init__(self, message: str, line: int, col: int, kind: str = "syntax"):
        super().__init__(f"{line}:{col}: {message}")
        self.line, self.col, self.kind = line, col, kind


class _Refusal(Exception):
    """A parse failure at token ``index``; ``parse_system`` works out its line
    and column.  The end of a body, token ``end``, sits just after the body's
    last token."""

    def __init__(self, message: str, index: int, kind: str = "syntax", end: int = -1):
        super().__init__(message)
        self.after = index == end
        self.index, self.kind = (index - 1 if self.after else index), kind


# One match per token: blanks, line breaks and comments are skipped one
# character or one comment at a time, then group 1 takes a name, a constant,
# a malformed constant (0 or 1 then a letter or digit; ``0_x`` is 0 then
# ``_x``), a punctuation mark, any other character, or "" at the end of input.
# Group 1 matches wherever the skip stops, so nothing backtracks.
_TOKEN_RE = re.compile(
    rf"(?:[ \t\r\n]|#[^\n]*)*({_IDENT_RE.pattern}|[01][A-Za-z0-9]?|[=;&|()?!]|.|\Z)"
)
_SYMBOLS = frozenset(["", "0", "1", *"=;&|()?!"])  # the tokens that are not names


def _tokenize(text: str) -> list[str]:
    """The token strings of text, then "" for the end of input (twice after
    trailing blanks); refuses the first malformed constant or unexpected
    character in text order, before the parser reports any other error."""
    tokens = _TOKEN_RE.findall(text)
    bad = [t for t in set(tokens) - _SYMBOLS if not _IDENT_RE.match(t)]
    if bad:
        k = min(map(tokens.index, bad))
        t = tokens[k]
        raise _Refusal("malformed constant" if len(t) == 2 else f"unexpected character {t!r}", k)
    return tokens


def _position(text: str, err: _Refusal) -> tuple[int, int]:
    """Line and column of the token at ``err.index``, or just after it, from
    a second scan; the end of input sits at the ``#`` of a final comment that
    no newline ends."""
    m = next(islice(_TOKEN_RE.finditer(text), err.index, None))
    pos = m.end(1) if err.after else m.start(1)
    if not m.group(1):
        comment = text.find("#", max(m.start(), text.rfind("\n") + 1))
        pos = pos if comment < 0 else comment
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _expected(what: str, tokens: list[str], k: int, end: int) -> _Refusal:
    found = "end of input" if k == end else repr(tokens[k])
    return _Refusal(f"expected {what}, found {found}", k, end=end)


def _parse_formula(tokens: list[str], k: int, end: int, leaves: dict, params: dict) -> Formula:
    """Parse ``tokens[k:end]``, one right-hand side.

    An operator-precedence loop with no recursion: ``disj`` and ``conj`` are
    the disjunction and the conjunction built so far (None before their first
    operand), and ``stack`` saves that pair at each open parenthesis.  Both
    operators associate to the left, and ``&`` binds tighter than ``|``.
    ``leaves`` holds the one node of each variable name and constant, and
    ``params`` the two literals of each parameter, new names in text order.
    """
    stack: list[tuple[Formula | None, Formula | None]] = []
    disj: Formula | None = None
    conj: Formula | None = None
    while True:  # an operand is due at k
        t = tokens[k]
        f = leaves.get(t)
        if f is None:
            if t == "(":
                stack.append((disj, conj))
                disj = conj = None
                k += 1
                continue
            if t == "!":
                k += 1
                if tokens[k] != "?":
                    raise _expected("'?'", tokens, k, end)
            elif t != "?":
                if t in _SYMBOLS:
                    raise _expected("a constant, identifier, parameter, or '('", tokens, k, end)
                raise _Refusal(f"undeclared identifier {t!r}", k, "semantic")
            k += 1
            p = tokens[k]
            if p in _SYMBOLS:
                raise _Refusal("expected a parameter name after '?'", k, end=end)
            if p in leaves:
                raise _Refusal(f"{p!r} is a variable and cannot also be a parameter", k, "semantic")
            pair = params.get(p)
            if pair is None:
                pair = params[p] = (Param(len(params)), Param(len(params), True))
            f = pair[t == "!"]
        k += 1
        conj = f if conj is None else And(conj, f)
        while True:  # an operator, a ')' or the end is due at k
            t = tokens[k]
            k += 1
            if t == "&":
                break
            if t == "|":
                disj, conj = (conj if disj is None else Or(disj, conj)), None
                break
            f = conj if disj is None else Or(disj, conj)
            if not stack:
                if k > end:
                    return f
                raise _Refusal(f"unexpected {t!r}", k - 1)
            if t != ")":
                raise _expected("')'", tokens, k - 1, end)
            disj, conj = stack.pop()
            conj = f if conj is None else And(conj, f)


def parse_system(text: str) -> System:
    """Parse BES text into a validated System.

    Raises BesParseError on malformed input, duplicate or undeclared
    identifiers, or an empty system, with a line and column found only then.
    """
    try:
        tokens = _tokenize(text)
        # Split into equations at semicolons and declare every name before
        # parsing a body, so equations may reference variables defined later.
        bodies: list[tuple[int, int]] = []  # token span of each right-hand side
        i = 0
        while tokens[i]:
            if tokens[i] in _SYMBOLS:
                raise _Refusal("expected an equation name", i)
            if tokens[i + 1] != "=":
                raise _Refusal("expected '=' after the equation name", i + 1)
            try:
                j = tokens.index(";", i + 2)
            except ValueError:
                raise _Refusal("missing ';' at end of equation", tokens.index("", i)) from None
            if j == i + 2:
                raise _Refusal("empty right-hand side", j)
            bodies.append((i + 2, j))
            i = j + 1
        if not bodies:
            raise BesParseError("empty system", 1, 1, "semantic")
        leaves: dict[str, Formula] = {"0": Const(0), "1": Const(1)}
        for v, (start, _) in enumerate(bodies):
            name = tokens[start - 2]
            if name in leaves:
                raise _Refusal(f"duplicate definition of {name!r}", start - 2, "semantic")
            leaves[name] = Var(v)
        params: dict[str, tuple[Param, Param]] = {}
        formulas = tuple(_parse_formula(tokens, k, end, leaves, params) for k, end in bodies)
    except _Refusal as err:
        raise BesParseError(str(err), *_position(text, err), err.kind) from None
    # The parser makes only grammar nodes with indices in range, and distinct
    # names, so the System skips the constructor's checks.
    return System._trusted(formulas, tuple(tokens[k - 2] for k, _ in bodies), tuple(params))


def format_system(system: System) -> str:
    """Render a System in BES syntax; parsing the result reproduces it exactly.

    Each equation replays its compiled gate list (see ``core._gate_list``)
    over text slots, one string per support variable, parameter literal and
    gate, with parentheses only where the parser's left-associative,
    ``&``-before-``|`` reading needs them.
    """
    names = system.var_names
    params = [lit for name in system.param_names for lit in (f"?{name}", f"!?{name}")]
    lines = []
    for name, supp, (gates, out) in zip(names, system._supports, system._programs):
        text = [names[v] for v in supp] + params
        ops: list[type | None] = [None] * len(text)  # the gate type that wrote each slot
        for op, a, b in gates:
            if op is Const:
                text.append(str(a))
            elif op is And:
                left = f"({text[a]})" if ops[a] is Or else text[a]
                right = f"({text[b]})" if ops[b] in (And, Or) else text[b]
                text.append(f"{left} & {right}")
            else:
                right = f"({text[b]})" if ops[b] is Or else text[b]
                text.append(f"{text[a]} | {right}")
            ops.append(op)
        lines.append(f"{name} = {text[out]};")
    return "\n".join(lines) + "\n"
