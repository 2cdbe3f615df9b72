"""A tree-walking evaluator of one formula.

Used by the tests as an oracle for the package's one evaluator, which runs
each equation's compiled gate list (``bes.core._gate_list`` and
``bes.core._run``).  This one reads the ``And``/``Or`` tree directly, by
recursion, and shares no code with it.
"""

from __future__ import annotations

from collections.abc import Sequence

from bes.core import And, Const, Formula, Or, Param, ParamAssignment, Var


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
