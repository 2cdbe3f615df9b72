"""Least fixpoints of monotone boolean equation systems, solved and compiled.

The package solves systems x_i = f_i(x_1, ..., x_n) over the booleans by
Kleene iteration and, independently, compiles the fixpoint into symbolic
closed-form expression DAGs (an unrolled form and a pruned form) that can
be emitted as let-text, s-expressions, DOT, or DIMACS CNF for a SAT solver.
"""

from .core import (
    And,
    Const,
    Formula,
    IndexSet,
    Or,
    Param,
    ParamAssignment,
    System,
    Valuation,
    Var,
    greatest_fixpoint,
    kleene_lfp,
    masked_iterates,
    support,
)
from .dag import (
    Apply,
    BOTTOM,
    TOP,
    DagStats,
    TermDag,
    build_expanded,
    build_pruned,
    dag_stats,
    eval_dag,
    with_top_leaves,
)
from .emit import (
    CnfFormula,
    TreeSizeLimitError,
    parse_dimacs,
    to_cnf,
    to_dot,
    to_let_text,
    to_sexpr,
    write_dimacs,
)
from .gen import FAMILIES, FamilySpec, gen_family, gen_random_monotone
from .text import BesParseError, format_system, parse_system

__version__ = "0.1.0"

__all__ = [
    "And",
    "Apply",
    "BOTTOM",
    "BesParseError",
    "CnfFormula",
    "Const",
    "DagStats",
    "FAMILIES",
    "FamilySpec",
    "Formula",
    "IndexSet",
    "Or",
    "Param",
    "ParamAssignment",
    "System",
    "TOP",
    "TermDag",
    "TreeSizeLimitError",
    "Valuation",
    "Var",
    "build_expanded",
    "build_pruned",
    "dag_stats",
    "eval_dag",
    "format_system",
    "gen_family",
    "gen_random_monotone",
    "greatest_fixpoint",
    "kleene_lfp",
    "masked_iterates",
    "parse_dimacs",
    "parse_system",
    "support",
    "to_cnf",
    "to_dot",
    "to_let_text",
    "to_sexpr",
    "with_top_leaves",
    "write_dimacs",
]
