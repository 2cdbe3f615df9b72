"""Reference semantics for the benchmark, written apart from the bes package.

Formulas are the benchmark's own structures: nested tuples ``("c", bit)``,
``("v", i)``, ``("p", k, negated)``, ``("and", children)`` and
``("or", children)``, where the last two take any number of children.
Nothing here imports bes, and no function recurses, so formulas of any
width or depth are handled.

Bits are packed: bit j of a value is its value under parameter assignment
j, where parameter k of assignment j is ``(j >> k) & 1``.  ``ones`` is the
all-ones mask of width 2**P.

The oracle has three parts:

* ``iterate``: synchronous Kleene iteration from all zeros that re-evaluates
  only the equations whose support changed in the previous round.  It gives
  the least fixpoint, its depth, and the d-th iterate for bounded forms.
* evaluators for the emitted let and s-expression text, which read the
  text alone and apply the benchmark's own formulas;
* ``decide_dimacs``: unit propagation over DIMACS text once every parameter
  is fixed by a unit clause.
"""

from __future__ import annotations

import re
from array import array

_CONST, _VAR, _PARAM, _NPARAM, _AND, _OR = range(6)
_PROBLEM = re.compile(r"^p cnf (\d+) (\d+)$", re.M)
_PARAM_MAP = re.compile(r"^c map (\d+) param (\S+)$", re.M)


def param_masks(num_params: int) -> tuple[tuple[int, ...], int]:
    """Packed truth-table masks of every parameter, and the all-ones mask."""
    width = 1 << num_params
    masks = tuple(
        sum(1 << j for j in range(width) if (j >> k) & 1) for k in range(num_params)
    )
    return masks, (1 << width) - 1


def compile_formula(f) -> tuple[tuple[int, int], ...]:
    """Postfix program for f: leaves push a value, and/or pop their children."""
    out: list[tuple[int, int]] = []
    stack = [(f, False)]
    while stack:
        node, done = stack.pop()
        kind = node[0]
        if kind == "c":
            out.append((_CONST, node[1]))
        elif kind == "v":
            out.append((_VAR, node[1]))
        elif kind == "p":
            out.append((_NPARAM if node[2] else _PARAM, node[1]))
        elif done:
            out.append((_AND if kind == "and" else _OR, len(node[1])))
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node[1]))
    return tuple(out)


def run(prog, x, p, ones: int) -> int:
    """Value of a compiled formula under state bits x and parameter bits p."""
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    for op, arg in prog:
        if op == _VAR:
            push(x[arg])
        elif op == _AND:
            v = ones
            for _ in range(arg):
                v &= pop()
            push(v)
        elif op == _OR:
            v = 0
            for _ in range(arg):
                v |= pop()
            push(v)
        elif op == _PARAM:
            push(p[arg])
        elif op == _NPARAM:
            push(p[arg] ^ ones)
        else:
            push(ones if arg else 0)
    return stack[0]


class Equations:
    """Compiled programs, supports and reverse dependencies of a system."""

    def __init__(self, formulas):
        self.n = len(formulas)
        self.progs = [compile_formula(f) for f in formulas]
        self.supports = [
            tuple(sorted({a for op, a in prog if op == _VAR})) for prog in self.progs
        ]
        users: list[list[int]] = [[] for _ in range(self.n)]
        for i, supp in enumerate(self.supports):
            for j in supp:
                users[j].append(i)
        self.users = users

    def iterate(self, p, ones: int, upto: int | None = None) -> tuple[tuple[int, ...], int]:
        """The upto-th Kleene iterate (the least fixpoint if None) and its depth.

        The depth is the number of rounds that changed the valuation.  Round
        k+1 re-evaluates only the users of variables that changed in round k,
        since every other equation would reproduce its current value.
        """
        x = [0] * self.n
        frontier = range(self.n)
        depth = 0
        while upto is None or depth < upto:
            changed = {}
            for i in frontier:
                v = run(self.progs[i], x, p, ones)
                if v != x[i]:
                    changed[i] = v
            if not changed:
                break
            depth += 1
            for i, v in changed.items():
                x[i] = v
            frontier = sorted({u for i in changed for u in self.users[i]})
        return tuple(x), depth

    def apply(self, i: int, args, p, ones: int) -> int:
        """Equation i applied to argument values given in support order."""
        x = dict(zip(self.supports[i], args))
        return run(self.progs[i], x, p, ones)


def eval_let_text(text: str, eqs: Equations, names: dict[str, int], p, ones: int):
    """Evaluate let-text; returns (root values, binding count).

    Every binding must apply a declared equation to one argument per support
    variable; ``bot`` and ``top`` are 0 and all-ones.
    """
    env = {"bot": 0, "top": ones}
    lines = text.splitlines()
    for line in lines[:-1]:
        if not (line.startswith("let ") and line.endswith(") in")):
            raise ValueError(f"malformed let binding: {line!r}")
        binder, _, rhs = line[4:-3].partition(" = ")
        func, _, arglist = rhs[:-1].partition("(")
        args = [env[a] for a in arglist.split(", ")] if arglist else []
        i = names[func]
        if len(args) != len(eqs.supports[i]):
            raise ValueError(f"binding {binder} has the wrong arity")
        if binder in env:
            raise ValueError(f"binder {binder} bound twice")
        env[binder] = eqs.apply(i, args, p, ones)
    last = lines[-1]
    if not (last.startswith("(") and last.endswith(")")):
        raise ValueError("let text does not end in a root tuple")
    roots = tuple(env[r] for r in last[1:-1].split(", "))
    return roots, len(lines) - 1


def eval_sexpr(text: str, eqs: Equations, names: dict[str, int], p, ones: int):
    """Evaluate an s-expression rendering; returns (root values, node count)."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = [[]]
    nodes = 0
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            items = stack.pop()
            if items and isinstance(items[0], str):
                i = names[items[0]]
                args = items[1:]
                if len(args) != len(eqs.supports[i]):
                    raise ValueError(f"application of {items[0]} has the wrong arity")
                stack[-1].append(eqs.apply(i, args, p, ones))
                nodes += 1
            else:
                stack[-1].append(tuple(items))
        elif tok in ("bot", "top"):
            stack[-1].append(ones if tok == "top" else 0)
            nodes += 1
        else:
            stack[-1].append(tok)
    (top,) = stack
    (value,) = top
    return (value if isinstance(value, tuple) else (value,)), nodes


def dot_counts(text: str) -> tuple[int, int]:
    """(node statements, edge statements) of a DOT digraph."""
    nodes = edges = 0
    for line in text.splitlines():
        if " -> " in line:
            edges += 1
        elif line.endswith("];"):
            nodes += 1
    return nodes, edges


def parse_dimacs(text: str):
    """(num_vars, literals, clause ends, parameter name -> variable).

    Literals are stored flat with each clause's terminating 0, and clause c
    ends at ``ends[c]``.  Parameters come from the ``c map <var> param
    <name>`` comment lines, which precede the problem line.
    """
    problem = _PROBLEM.search(text)
    if problem is None:
        raise ValueError("missing problem line")
    params = {name: int(var) for var, name in _PARAM_MAP.findall(text, 0, problem.start())}
    lits = array("i")
    pos = problem.end()
    while pos < len(text):  # in slices, so no list of every token is built
        cut = text.find("\n", pos + (1 << 20))
        cut = len(text) if cut < 0 else cut
        lits.extend(map(int, text[pos:cut].split()))
        pos = cut
    ends = array("i", (k for k, lit in enumerate(lits) if not lit))
    if lits and lits[-1] != 0:
        raise ValueError("last clause not terminated by 0")
    if len(ends) != int(problem.group(2)):
        raise ValueError("clause count differs from the problem line")
    return int(problem.group(1)), lits, ends, params


def unit_propagate(num_vars: int, lits, ends, assumptions) -> str:
    """'sat', 'unsat' or 'undecided' by unit propagation from the assumptions.

    'sat' means propagation assigned every variable without a conflict.  A
    clause whose literals all became false was visited when its last literal
    did, so no falsified clause goes unnoticed.
    """
    # occurrence lists in CSR form: occ[offs[k]:offs[k + 1]] holds every
    # clause containing literal k - num_vars
    offs = array("i", bytes(4 * (2 * num_vars + 2)))
    for lit in lits:
        offs[lit + num_vars + 1] += 1
    for k in range(1, len(offs)):
        offs[k] += offs[k - 1]
    fill = array("i", offs)
    occ = array("i", bytes(4 * len(lits)))
    start = 0
    for c, end in enumerate(ends):
        for pos in range(start, end):
            k = lits[pos] + num_vars
            occ[fill[k]] = c
            fill[k] += 1
        start = end + 1
    del fill

    val = bytearray(num_vars + 1)  # 0 unassigned, 1 true, 2 false
    queue: list[int] = []

    def assign(lit: int) -> bool:
        want = 1 if lit > 0 else 2
        cur = val[abs(lit)]
        if cur == 0:
            val[abs(lit)] = want
            queue.append(lit)
            return True
        return cur == want

    for lit in assumptions:
        if not assign(lit):
            return "unsat"
    start = 0
    for end in ends:
        if end - start == 1 and not assign(lits[start]):
            return "unsat"
        start = end + 1
    while queue:
        falsified = -queue.pop() + num_vars
        for k in range(offs[falsified], offs[falsified + 1]):
            c = occ[k]
            unassigned = 0
            last = 0
            for pos in range(ends[c - 1] + 1 if c else 0, ends[c]):
                lit = lits[pos]
                cur = val[lit if lit > 0 else -lit]
                if cur == 0:
                    unassigned += 1
                    last = lit
                elif (cur == 1) == (lit > 0):
                    break
            else:
                if unassigned == 0 or (unassigned == 1 and not assign(last)):
                    return "unsat"
    return "undecided" if 0 in val[1:] else "sat"


def decide_dimacs(parsed, param_names, assignment: int) -> str:
    """Decide a parsed DIMACS query with parameter k fixed to bit k of assignment."""
    num_vars, lits, ends, params = parsed
    units = []
    for k, name in enumerate(param_names):
        var = params[name]
        units.append(var if (assignment >> k) & 1 else -var)
    return unit_propagate(num_vars, lits, ends, units)
