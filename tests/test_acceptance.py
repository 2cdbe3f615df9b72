"""Acceptance suite: one test and one printed pass/fail line per criterion.

Everything here is exactness-based; there are no tolerances to calibrate.
Expected values are either string goldens, closed-form counts derived from
independent enumeration oracles, or cross-checks between independently
implemented routes (iteration vs. symbolic forms, DPLL vs. brute-force
parameter enumeration).  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import itertools
import random
import time

from bes import props
from bes.core import (
    And,
    Const,
    Or,
    System,
    Var,
    kleene_lfp,
    param_masks,
)
from bes.dag import build_expanded, build_pruned, dag_stats, eval_dag
from bes.emit import parse_dimacs, to_cnf, to_dot, to_let_text, to_sexpr, write_dimacs
from bes.gen import FamilySpec, gen_family, gen_random_monotone
from bes.text import format_system, parse_system
from dpll import solve


def report(number: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed"


def depth2_formulas(n):
    """Every parameter-free formula of depth at most 2 over n variables."""
    leaves = [Const(0), Const(1)] + [Var(i) for i in range(n)]
    out = list(leaves)
    for a in leaves:
        for b in leaves:
            out.append(And(a, b))
            out.append(Or(a, b))
    return out


def exhaustive_systems(n):
    names = tuple(f"x{i + 1}" for i in range(n))
    for combo in itertools.product(depth2_formulas(n), repeat=n):
        yield System(combo, names)


def dump_counterexample(cex):
    path = f"acceptance-counterexample-{cex.suite}.bes"
    header = f"# suite: {cex.suite}\n# params: {cex.params}\n# {cex.detail}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + format_system(cex.system))
    return path


def test_criterion_1_closed_form_equality():
    started = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        for system in exhaustive_systems(n):
            lfp, _ = kleene_lfp(system)
            ok = (
                eval_dag(build_pruned(system), system) == lfp
                and eval_dag(build_expanded(system), system) == lfp
            )
            if not ok:
                report(1, "closed-form equality", False, format_system(system))
            checked += 1

    rng = random.Random(0)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        num_params = rng.randint(0, 4)
        depth = rng.randint(1, 4)
        system = gen_random_monotone(n, num_params, depth, rng.randrange(2**62))
        masks, ones = param_masks(num_params)  # every assignment, bit-packed
        lfp, _ = kleene_lfp(system, masks, ones)
        ok = (
            eval_dag(build_pruned(system), system, masks, ones) == lfp
            and eval_dag(build_expanded(system), system, masks, ones) == lfp
        )
        if not ok:
            report(1, "closed-form equality", False, format_system(system))
        checked += 1

    elapsed = time.perf_counter() - started
    report(
        1,
        "closed-form equality",
        elapsed < 120,
        f"{checked} systems bit-exact in {elapsed:.1f}s",
    )


def test_criterion_2_golden_forms():
    goldens = []

    generic2 = parse_system("f = f | g; g = f & g;")
    goldens.append(
        (to_sexpr(build_pruned(generic2), generic2),
         "((f bot (g bot bot)) (g (f bot bot) bot))\n")
    )

    generic3 = parse_system("f = f | g | h; g = f & g & h; h = (f | g) & h;")
    goldens.append(
        (to_sexpr(build_pruned(generic3), generic3),
         "((f bot (g bot bot (h bot bot bot)) (h bot (g bot bot bot) bot))"
         " (g (f bot bot (h bot bot bot)) bot (h (f bot bot bot) bot bot))"
         " (h (f bot (g bot bot bot) bot) (g (f bot bot bot) bot bot) bot))\n")
    )

    sparse3 = gen_family(FamilySpec("sparse3", 3))
    goldens.append(
        (to_sexpr(build_pruned(sparse3), sparse3),
         "((x bot (y bot)) (y (x bot bot)) (z (y (x bot bot)) bot))\n")
    )

    chain2 = gen_family(FamilySpec("chain", 2))
    goldens.append(
        (to_sexpr(build_pruned(chain2), chain2),
         "((f1 bot (f2 bot bot)) (f2 (f1 bot bot) bot))\n")
    )

    for got, want in goldens:
        if got != want:
            report(2, "golden pruned forms", False, f"got {got!r}, want {want!r}")
    report(2, "golden pruned forms", True, "4 string-equal goldens")


def test_criterion_3_chain_scaling():
    started = time.perf_counter()
    tree_sizes = {}
    for n in (8, 16, 32, 64):
        system = gen_family(FamilySpec("chain", n))
        pruned = dag_stats(build_pruned(system))
        expanded = dag_stats(build_expanded(system))
        if pruned.apply_count != 2 * n:
            report(3, "chain scaling", False, f"pruned applications at n={n}")
        if expanded.apply_count != n * n:
            report(3, "chain scaling", False, f"expanded applications at n={n}")
        tree_sizes[n] = expanded.tree_size
    ratio = tree_sizes[32] / tree_sizes[8]
    cubic_floor = 0.8 * (32 / 8) ** 3
    elapsed = time.perf_counter() - started
    ok = ratio >= cubic_floor and elapsed < 10
    report(
        3,
        "chain scaling",
        ok,
        f"pruned=2n, expanded=n^2, tree growth x{ratio:.0f} in {elapsed:.1f}s",
    )


def test_criterion_4_complete_blowup():
    system = gen_family(FamilySpec("complete", 10))
    pruned = dag_stats(build_pruned(system))
    expanded = dag_stats(build_expanded(system))
    ok = (
        pruned.apply_count == 10 * 2**9
        and pruned.tree_size > 10**6
        and expanded.apply_count == 100
    )
    report(
        4,
        "complete-family blowup",
        ok,
        f"pruned={pruned.apply_count}, tree={pruned.tree_size}, "
        f"expanded={expanded.apply_count}",
    )


SUPPORTING_SUITES = (
    "prune_le_iterate",
    "zero_prefix",
    "masking_preserves_iterates",
    "masked_le_pruned",
    "pruned_le_expanded",
    "self_substitution",
)


def test_criterion_5_supporting_properties():
    started = time.perf_counter()
    tallies = props.run_random_battery(trials=1000, seed=1, max_n=6)
    for tally in tallies:
        if tally.failed:
            path = dump_counterexample(tally.failures[0])
            report(5, "supporting properties", False, f"{tally.name} failed, see {path}")
        if tally.name in SUPPORTING_SUITES and tally.passed != 1000:
            report(5, "supporting properties", False, f"{tally.name} ran {tally.passed} trials")

    exhausted = 0
    for n in (1, 2, 3):
        subsets = props._all_subsets(n)
        for system in exhaustive_systems(n):
            for name, cex in props.check_all(system, None, subsets, SUPPORTING_SUITES).items():
                if cex is not None:
                    path = dump_counterexample(cex)
                    report(5, "supporting properties", False, f"{name} failed, see {path}")
            exhausted += 1
    elapsed = time.perf_counter() - started
    report(
        5,
        "supporting properties",
        True,
        f"6 suites x (1000 random + {exhausted} exhaustive) in {elapsed:.0f}s",
    )


def test_criterion_6_cnf_equisatisfiability():
    started = time.perf_counter()
    rng = random.Random(6)
    agreements = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        num_params = rng.randint(0, 8)
        system = gen_random_monotone(n, num_params, 4, rng.randrange(2**62))
        var = rng.randrange(n)
        bit = rng.randint(0, 1)
        form = build_pruned(system) if rng.random() < 0.5 else build_expanded(system)
        cnf = to_cnf(form, system, (var, bit))
        sat = solve(cnf.num_vars, cnf.clauses) is not None
        # independent oracle: enumerate every parameter assignment (packed)
        masks, ones = param_masks(num_params)
        lfp, _ = kleene_lfp(system, masks, ones)
        exists = (lfp[var] != 0) if bit else (lfp[var] != ones)
        if sat != exists:
            report(6, "CNF equisatisfiability", False, format_system(system))
        agreements += 1
    elapsed = time.perf_counter() - started
    report(
        6,
        "CNF equisatisfiability",
        elapsed < 120,
        f"{agreements}/1000 agree in {elapsed:.1f}s",
    )


def test_criterion_7_round_trips_and_determinism():
    corpus = [gen_family(FamilySpec("chain", n)) for n in (2, 4, 8)]
    corpus += [gen_family(FamilySpec("complete", n)) for n in (1, 3, 6)]
    corpus.append(gen_family(FamilySpec("sparse3", 3)))
    corpus += [gen_family(FamilySpec("random", n, seed=n * 11)) for n in (1, 4, 9)]
    rng = random.Random(7)
    corpus += [
        gen_random_monotone(rng.randint(1, 6), rng.randint(0, 4), 4, rng.randrange(2**62))
        for _ in range(200)
    ]

    for system in corpus:
        printed = format_system(system)
        reparsed = parse_system(printed)
        # reprinting must reproduce the text, and the reparse must agree on
        # structure (parameter indices may renumber if some are unused)
        if format_system(reparsed) != printed or reparsed.var_names != system.var_names:
            report(7, "format round trips", False, printed)

        for build in (build_pruned, build_expanded):
            one = build(system)
            two = build(system)
            emitted = [
                (to_let_text(one, system), to_let_text(two, system)),
                (to_sexpr(one, system, 10**8), to_sexpr(two, system, 10**8)),
                (to_dot(one, system), to_dot(two, system)),
            ]
            cnf_one = to_cnf(one, system, (0, 1))
            cnf_two = to_cnf(two, system, (0, 1))
            emitted.append((write_dimacs(cnf_one), write_dimacs(cnf_two)))
            for a, b in emitted:
                if a != b:
                    report(7, "format round trips", False, "nondeterministic emitter")
            if parse_dimacs(write_dimacs(cnf_one)) != cnf_one:
                report(7, "format round trips", False, "DIMACS round trip")

    report(7, "format round trips", True, f"{len(corpus)} instances, byte-stable")
