"""A tree-walking evaluator and printer of one formula.

Used by the tests as oracles for the package's compiled form of an
equation: its one evaluator runs each equation's gate list
(``bes.core._gate_list`` and ``bes.core._run``), and ``bes.text.format_system``
prints by replaying the same list.  These read the ``And``/``Or`` tree
directly, by recursion, and share no code with either.
"""

from __future__ import annotations

from collections.abc import Sequence

from bes.core import And, Const, Formula, Or, Param, ParamAssignment, System, Var


def eval_formula(f: Formula, x: Sequence[int], p: ParamAssignment, ones: int = 1) -> int:
    """Value of f under state bits x and parameter bits p.

    Bits may be packed bitmasks covering many scenarios at once; ``ones``
    must then be the all-ones mask of that width.
    """
    if isinstance(f, Var):
        return x[f.index]
    if isinstance(f, And):
        return eval_formula(f.left, x, p, ones) & eval_formula(f.right, x, p, ones)
    if isinstance(f, Or):
        return eval_formula(f.left, x, p, ones) | eval_formula(f.right, x, p, ones)
    if isinstance(f, Param):
        bit = p[f.index]
        return (bit ^ ones) if f.negated else bit
    if isinstance(f, Const):
        return ones if f.value else 0
    raise TypeError(f"not a formula node: {f!r}")


def format_formula(f: Formula, system: System) -> str:
    """Right-hand side f in BES syntax, with the names of ``system``."""
    if isinstance(f, Const):
        return str(f.value)
    if isinstance(f, Var):
        return system.var_names[f.index]
    if isinstance(f, Param):
        name = system.param_names[f.index]
        return f"!?{name}" if f.negated else f"?{name}"
    if isinstance(f, And):
        left = format_formula(f.left, system)
        if isinstance(f.left, Or):
            left = f"({left})"
        right = format_formula(f.right, system)
        if isinstance(f.right, (Or, And)):
            right = f"({right})"
        return f"{left} & {right}"
    left = format_formula(f.left, system)
    right = format_formula(f.right, system)
    if isinstance(f.right, Or):
        right = f"({right})"
    return f"{left} | {right}"
