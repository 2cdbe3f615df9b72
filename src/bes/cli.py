"""Command-line front end: solve, build, stats, verify, gen, bench.

Exit codes: 0 success, 1 verification found a mismatch (which would mean an
implementation bug), 2 syntax error in input or usage, 3 semantic error,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import props
from .core import _INT_RE, ParamAssignment, System, greatest_fixpoint, kleene_lfp
from .dag import TermDag, build_expanded, build_pruned, dag_stats, with_top_leaves
from .emit import DEFAULT_TREE_SIZE_LIMIT, to_cnf, to_dot, to_let_text, to_sexpr, write_dimacs
from .gen import FAMILIES, FamilySpec, gen_family
from .text import BesParseError, format_system, parse_system

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_SYNTAX = 2
EXIT_SEMANTIC = 3
EXIT_IO = 4


def _read_system(path: str) -> System:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_pair(item: str, names: tuple[str, ...], option: str, noun: str, form: str):
    """One ``name=bit`` pair, with no comma, of ``--params`` or ``--query``, blanks
    allowed around the name and the bit: the name, one of ``names``, and the bit."""
    name, eq, bit = (part.strip() for part in item.partition("="))
    if not (name and eq) or "," in item:
        raise ValueError(f"{option} must be {form}, got {item!r}")
    if name not in names:
        raise ValueError(f"unknown {noun} {name!r} in {option}")
    if bit not in ("0", "1"):
        raise ValueError(f"{noun} {name!r} in {option} needs a 0/1 value")
    return name, int(bit)


def _parse_params(system: System, assignment: str | None) -> ParamAssignment:
    given: dict[str, int] = {}
    if assignment:
        for item in assignment.split(","):
            name, bit = _read_pair(item, system.param_names, "--params", "parameter", "name=bit")
            if name in given:
                raise ValueError(f"parameter {name!r} is assigned twice")
            given[name] = bit
    missing = [name for name in system.param_names if name not in given]
    if missing:
        raise ValueError(
            "unassigned parameters: " + ", ".join(missing) + " (use --params name=bit,...)"
        )
    return tuple(given[name] for name in system.param_names)


def _cmd_solve(args) -> int:
    system = _read_system(args.file)
    params = _parse_params(system, args.params)
    if args.gfp:
        value, depth = greatest_fixpoint(system, params)
    else:
        value, depth = kleene_lfp(system, params)
    print("(" + ",".join(str(b) for b in value) + ")")
    print(f"K={depth}")
    for name, bit in zip(system.var_names, value):
        print(f"{name}={bit}")
    return EXIT_OK


def _build_dag(system: System, form: str, depth: int | None, gfp: bool) -> TermDag:
    if form == "pruned":
        if depth is not None:
            raise ValueError("--depth applies to the expanded form only")
        dag = build_pruned(system)
    else:
        dag = build_expanded(system, depth)
    return with_top_leaves(dag) if gfp else dag


def _cmd_build(args) -> int:
    system = _read_system(args.file)
    dag = _build_dag(system, args.form, args.depth, args.gfp)
    if args.emit == "let":
        out = to_let_text(dag, system)
    elif args.emit == "sexpr":
        out = to_sexpr(dag, system, args.max_tree_size)
    elif args.emit == "dot":
        out = to_dot(dag, system)
    else:
        if args.query is None:
            raise ValueError("--emit dimacs requires --query var=bit")
        name, bit = _read_pair(args.query, system.var_names, "--query", "variable", "var=bit")
        cnf = to_cnf(dag, system, (system.var_names.index(name), bit))
        out = write_dimacs(cnf)
    _write_out(out, args.out)
    return EXIT_OK


def _measure(system: System) -> list[tuple]:
    """Builds the pruned form, then the expanded one; for each, its apply
    count, edge count, depth, tree size and build seconds (6 decimals)."""
    rows = []
    for build in (build_pruned, build_expanded):
        t0 = time.perf_counter()
        dag = build(system)
        seconds = time.perf_counter() - t0
        s = dag_stats(dag)
        rows.append((s.apply_count, s.edge_count, s.dag_depth, s.tree_size, f"{seconds:.6f}"))
    return rows


def _cmd_stats(args) -> int:
    forms = zip(("pruned", "expanded"), _measure(_read_system(args.file)))
    rows = [(form,) + row[:4] for form, row in forms]
    header = ("form", "apply_count", "edge_count", "dag_depth", "tree_size")
    _write_out(_render_table(header, rows, args.csv), args.out)
    return EXIT_OK


def _render_table(header, rows, csv: bool) -> str:
    cells = [tuple(str(c) for c in row) for row in rows]
    if csv:
        lines = [",".join(header)] + [",".join(row) for row in cells]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(header[i]), *(len(row[i]) for row in cells)) for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _dump_counterexample(cex: props.Counterexample) -> str:
    path = f"counterexample-{cex.suite}.bes"
    lines = [f"# suite: {cex.suite}"]
    if cex.system.param_names:
        assignment = ",".join(
            f"{name}={bit}" for name, bit in zip(cex.system.param_names, cex.params)
        )
        lines.append(f"# params: {assignment}")
    lines.append(f"# {cex.detail}")
    text = "\n".join(lines) + "\n" + format_system(cex.system)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials={args.trials} checks nothing; give at least 1")
    failures: list[props.Counterexample] = []
    if args.random:
        tallies = props.run_random_battery(args.trials, args.seed, args.max_n)
        for tally in tallies:
            total = tally.passed + tally.failed
            print(f"{tally.name}: {tally.passed}/{total}")
            if tally.failures:
                failures.extend(tally.failures)
    else:
        if args.file is None:
            raise ValueError("verify needs a file or --random")
        system = _read_system(args.file)
        subsets = None
        if system.n > props._MAX_EXHAUSTIVE_N:
            # past the suites' exhaustive masked-set limit, sample distinct
            # sets instead, in the order first drawn; n > 14 gives more than
            # 4096 sets, so the loop ends
            rng = random.Random(args.seed)
            drawn: dict[frozenset[int], None] = {}
            while len(drawn) < min(args.trials, 4096):
                drawn[frozenset(i for i in range(system.n) if rng.random() < 0.5)] = None
            subsets = list(drawn)
        for name, cex in props.check_all(system, None, subsets).items():
            print(f"{name}: {'pass' if cex is None else 'FAIL'}")
            if cex is not None:
                failures.append(cex)
    if failures:
        for cex in failures[:1]:
            path = _dump_counterexample(cex)
            print(f"counterexample written to {path}", file=sys.stderr)
            print(cex.detail, file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_gen(args) -> int:
    n = args.n
    if n is None:
        if args.family != "sparse3":
            raise ValueError("--n is required for this family")
        n = 3
    spec = FamilySpec(args.family, n, args.seed, args.density)
    _write_out(format_system(gen_family(spec)), args.out)
    return EXIT_OK


def _integer(text: str) -> int:
    """``--trials``, ``--seed``, ``--max-n`` and ``--n``: an int as ``parse_dimacs``
    reads one, an optional ``-`` and ASCII digits; each command checks its range."""
    if not _INT_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _count(text: str) -> int:
    """``--depth``, ``--max-tree-size`` and each ``--n-list`` item: an int with no sign."""
    if "-" in text or not _INT_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative count")
    return int(text)


def _arities(text: str) -> list[int]:
    """``--n-list``: comma-separated counts, read whole before any build."""
    return [_count(item) for item in text.split(",")]


def _density(text: str) -> float:
    """``--density``: a float in ASCII text without ``_``; ``FamilySpec`` checks its range."""
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _cmd_bench(args) -> int:
    specs = [FamilySpec(args.family, n, args.seed, args.density) for n in args.n_list]
    rows = []
    for spec in specs:
        pruned, expanded = _measure(gen_family(spec))
        rows.append((args.family, spec.n) + pruned + expanded)
    header = (
        "family",
        "n",
        "pruned_apply",
        "pruned_edges",
        "pruned_depth",
        "pruned_tree",
        "pruned_seconds",
        "expanded_apply",
        "expanded_edges",
        "expanded_depth",
        "expanded_tree",
        "expanded_seconds",
    )
    _write_out(_render_table(header, rows, args.csv), args.out)
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bes",
        description="Solve monotone boolean equation systems and compile their "
        "least fixpoints into closed-form expression DAGs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="print the fixpoint of a BES file")
    p.add_argument("file")
    p.add_argument("--gfp", action="store_true", help="greatest instead of least fixpoint")
    p.add_argument("--params", help="comma-separated name=bit parameter assignment")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("build", help="compile a closed form and emit it")
    p.add_argument("file")
    p.add_argument("--form", choices=("pruned", "expanded"), required=True)
    p.add_argument("--depth", type=_count, help="unrolling depth for the expanded form")
    p.add_argument("--emit", choices=("let", "sexpr", "dot", "dimacs"), required=True)
    p.add_argument("--query", help="var=bit assertion for dimacs output")
    p.add_argument("--gfp", action="store_true")
    p.add_argument("--max-tree-size", type=_count, default=DEFAULT_TREE_SIZE_LIMIT)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("stats", help="size metrics of both closed forms")
    p.add_argument("file")
    p.add_argument("--csv", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("file", nargs="?")
    p.add_argument("--random", action="store_true", help="random systems instead of a file")
    p.add_argument("--trials", type=_integer, default=1000)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--max-n", type=_integer, default=6)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gen", help="write a benchmark family instance")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=_integer)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--density", type=_density, default=0.5)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("bench", help="size and build-time sweep over a family")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n-list", type=_arities, required=True, help="comma-separated arities")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--density", type=_density, default=0.5)
    p.add_argument("--csv", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BesParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SYNTAX if err.kind == "syntax" else EXIT_SEMANTIC
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except RecursionError:
        print("error: input nested too deeply (recursion limit reached)", file=sys.stderr)
        return EXIT_SEMANTIC
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
