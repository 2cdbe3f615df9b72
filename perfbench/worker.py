"""Run one workload in this process and print its result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

``run.py`` starts this in a child process with an address-space limit; run
it directly only to debug one workload.  The program under test is the
``bes`` package in ``src/`` next to this directory.

A pass sends every request of the workload once, in order, each after the
previous one completed.  Passes repeat while another one fits in
``--seconds``, so every run attempts whole passes, at least two.  The first
pass is the warm-up: it checks every output against the oracle, and its
times are left out.  Later passes check that each output repeats exactly.
Checks and garbage collection happen outside the timed calls, and the checks
do not count toward ``--seconds``.  During the timed passes, an interval
timer runs a fixed reference loop every 25 ms, wherever the process is, and
its time is taken out of the call it interrupted: the loop's mean time gauges
how fast the host ran during the pass (``reference_loop``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # before the first pass; two more follow every pass
FAILED = object()
REF_EVERY_S = 0.025  # interval of the reference loop's timer in timed passes
REF_STEPS = 2000  # about 1.7 ms on the reference machine
REQUEST_SAMPLES = 8  # a request gauged this often has a reference unit of its own
REF_HEADROOM = 50  # frames below the recursion limit in which the timer skips


def reference_loop() -> float:
    """Time one run of fixed pure-Python work that gauges the host's speed.

    The host is shared: for minutes at a time, other tenants slow every
    process on it by up to half, and a time in seconds moves with them.  This
    loop does in small what the program does at large: it hash-conses tuple
    keys in a dict, formats one line of text per key, joins the lines and
    frees it all.  Its data fit in the processor's own caches, so the
    program's heap does not change its time.  A timer runs it every
    ``REF_EVERY_S`` through the timed passes, inside long calls too, so its
    mean time in a pass samples the host as the calls met it, pre-emptions
    included.  The collector is off while it runs, and is left as it was
    found.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    lines = []
    for i in range(REF_STEPS):
        k = (i * 2654435761) & 0xFFFFF
        key = (k & 1023, i & 7)
        tid = table.get(key)
        if tid is None:
            tid = table[key] = len(table)
        lines.append(f"{tid} {-k} 0")
    "\n".join(lines)
    del table, lines
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def import_bes():
    """Import the program from src/ beside the benchmark, and nothing else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import bes
    import bes.core
    import bes.dag
    import bes.emit
    import bes.gen
    import bes.props
    import bes.text

    if not Path(bes.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"bes was imported from {bes.__file__}, not from {src}")
    return bes


class Recorder:
    """Makes the calls into bes: times them, counts and catches failures.

    Each call is keyed by its request's place in the pass and its place in
    the request, so ``times`` collects one duration per pass for every call.
    From the second pass on, the reference loop runs at the start of each
    pass and then on a timer (``gauge``); ``ref_times`` keeps its times per
    pass, and ``gauged`` sums the time the timer took, which each call's
    duration leaves out.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.times: dict[tuple[int, int], list[float]] = {}
        self.names: dict[tuple[int, int], str] = {}
        # per request, one entry per pass: time in calls, reference loops meanwhile
        self.request_times: dict[int, list[tuple[float, list[float]]]] = {}
        self.pass_times: list[float] = []  # time in calls per pass
        self.ref_times: list[list[float]] = []
        self.gauged = 0.0  # time in the timer's reference loops, over the run
        self.attempted = 0
        self.failures: Counter = Counter()  # (request, op, exception type)

    def start_pass(self) -> None:
        self.pass_times.append(0.0)
        self.ref_times.append([])
        if len(self.pass_times) > 1:  # the warm-up is not timed
            self.ref_times[-1].append(reference_loop())
            signal.signal(signal.SIGALRM, self.gauge)
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def end_pass(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def gauge(self, signum, frame) -> None:
        """The timer's handler: run the reference loop once.

        Python runs it between two bytecodes of whatever the process is
        doing, a call into bes included, so the samples spread evenly in time
        over the pass.  Close to the recursion limit it skips, so a deep call
        cannot fail for it; if memory runs out, the sample is dropped.
        """
        start = time.perf_counter()
        try:
            sys._getframe(sys.getrecursionlimit() - REF_HEADROOM)
            return
        except ValueError:  # the stack is shallower than that
            pass
        try:
            self.ref_times[-1].append(reference_loop())
        except MemoryError:
            pass
        finally:
            self.gauged += time.perf_counter() - start

    def start_request(self, slot: int, request_id: int, name: str) -> None:
        self.slot, self.step, self.in_calls, self.gauged_before = slot, 0, 0.0, self.gauged
        self.samples_before = len(self.ref_times[-1])
        self.request, self.request_name = request_id, name

    def end_request(self) -> None:
        samples = self.ref_times[-1][self.samples_before:]
        self.request_times.setdefault(self.slot, []).append((self.in_calls, samples))
        self.pass_times[-1] += self.in_calls

    def call(self, name: str, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        gauged = self.gauged  # read after start, so a tick between can only add
        try:
            return fn(*args)
        except Exception as err:  # a failed operation is counted, not fatal
            key = (self.request_name, name, type(err).__name__)
            if key not in self.failures:
                print(f"{self.request_name}: {name} raised {type(err).__name__}: "
                      f"{str(err)[:120]}", file=sys.stderr)
            self.failures[key] += 1
            return FAILED
        finally:
            gauged = self.gauged - gauged
            end = time.perf_counter()
            took = end - start - gauged  # the timer's reference loops left out
            key = (self.slot, self.step)
            self.times.setdefault(key, []).append(took)
            self.in_calls += took
            self.names[key] = name
            self.step += 1
            if self.trace:
                self.spans.append((name, start, end, self.request, "request"))

    def fastest(self, keep=lambda key: True) -> float:
        """Each call's fastest time over the passes, summed over the kept calls.

        The work of a call is the same in every pass, so its time varies only
        by interference from other processes on the machine, which comes in
        bursts that slow a pass by up to half.  The fastest of several passes
        is the figure least touched by it.
        """
        return sum(min(v) for key, v in self.times.items() if keep(key))

    def timed_passes(self) -> range:
        """Every pass but the first, the warm-up."""
        return range(1, len(self.pass_times))

    def ref_unit(self, p: int) -> float:
        """Mean time of the reference loop in pass p, in seconds."""
        return statistics.fmean(self.ref_times[p])

    def run_ref(self) -> float:
        """Time in calls per pass over the reference loop's mean time in that
        pass, as the median over the timed passes.

        A host that runs slow slows both alike, so the ratio stays.  The
        timer samples the loop evenly in time, long calls included, so its
        mean weighs each moment of the pass as the pass's time does, and it
        counts the pre-emptions a busy host gives the calls.
        """
        return statistics.median(
            self.pass_times[p] / self.ref_unit(p) for p in self.timed_passes())

    def request_p50_ref(self) -> float:
        """Median over the requests of one request's time, taken like run_ref.

        A request long enough for ``REQUEST_SAMPLES`` runs of the timer is
        measured in the mean of those runs, the host as it met that request;
        a shorter one in its pass's unit.
        """
        def unit(p: int, samples: list[float]) -> float:
            return statistics.fmean(samples) if len(samples) >= REQUEST_SAMPLES else self.ref_unit(p)

        return statistics.median(
            statistics.median(times[p][0] / unit(p, times[p][1]) for p in self.timed_passes())
            for times in self.request_times.values())


def fingerprint(value):
    """Cheap identity of an output, to compare passes within one process."""
    if isinstance(value, str):
        return (len(value), hash(value))
    if hasattr(value, "formulas"):  # a System; its repr recurses through formulas
        return (len(value.formulas), value.var_names, value.param_names)
    if hasattr(value, "roots"):
        return (len(value), value.roots)
    if hasattr(value, "apply_count"):
        return (value.apply_count, value.edge_count, value.dag_depth, value.tree_size)
    return repr(value)


class Pass:
    """One pass over the requests: makes their calls and counts per pass."""

    def __init__(self, bes, rec: Recorder):
        self.bes = bes
        self.rec = rec
        self.counts: Counter = Counter()

    def form(self, tag: str, dag, system, req: workloads.Request, pbits, ones, full: bool) -> dict:
        """dag_stats, eval_dag and the emitters on one built DAG."""
        bes, call, counts = self.bes, self.rec.call, self.counts
        out = {"dag": dag}
        stats = out["stats"] = call("dag.dag_stats", bes.dag.dag_stats, dag)
        if stats is not FAILED:
            counts["dag_applies"] += stats.apply_count
            counts[f"dag.{tag}.applies"] += stats.apply_count
            counts[f"dag.{tag}.edges"] += stats.edge_count
        out["values"] = call("dag.eval_dag", bes.dag.eval_dag, dag, system, pbits, ones)
        if full:
            out["let"] = call("emit.to_let_text", bes.emit.to_let_text, dag, system)
            out["dot"] = call("emit.to_dot", bes.emit.to_dot, dag, system)
            if stats is not FAILED and stats.tree_size <= bes.emit.DEFAULT_TREE_SIZE_LIMIT:
                out["sexpr"] = call("emit.to_sexpr", bes.emit.to_sexpr, dag, system)
        cnf = call("emit.to_cnf", bes.emit.to_cnf, dag, system, req.query)
        if cnf is not FAILED:
            out["cnf_size"] = (cnf.num_vars, len(cnf.clauses))
            counts["cnf_clauses"] += len(cnf.clauses)
            counts["emit.cnf.vars"] += cnf.num_vars
            out["dimacs"] = call("emit.write_dimacs", bes.emit.write_dimacs, cnf)
        del cnf
        for key in ("let", "dot", "sexpr", "dimacs"):
            if isinstance(out.get(key), str):
                counts["emit.bytes"] += len(out[key])
        return out

    def request(self, req: workloads.Request, pbits, ones) -> dict:
        """Every library call of one request; returns the outputs."""
        bes, call, counts = self.bes, self.rec.call, self.counts
        out: dict = {}
        counts["text.bytes"] += len(req.text)
        system = out["system"] = call("text.parse_system", bes.text.parse_system, req.text)
        if system is FAILED:
            return out
        if req.kind == "deep":
            out["format"] = call("text.format_system", bes.text.format_system, system)
            if isinstance(out["format"], str):
                counts["text.bytes"] += len(out["format"])
        lfp = out["lfp"] = call("core.kleene_lfp", bes.core.kleene_lfp, system, pbits, ones)
        if lfp is not FAILED:
            counts["core.kleene_lfp.rounds"] += lfp[1] + 1
            counts["core.kleene_lfp.equation_evals"] += (lfp[1] + 1) * system.n
        if req.kind == "deep":
            dag = call("dag.build_expanded", bes.dag.build_expanded, system, req.depth)
            if dag is not FAILED:
                out["expanded"] = self.form("expanded", dag, system, req, pbits, ones, False)
            return out
        builders = (("pruned", bes.dag.build_pruned), ("expanded", bes.dag.build_expanded))
        for tag, builder in builders:
            dag = call(f"dag.build_{tag}", builder, system)
            if dag is not FAILED:
                out[tag] = self.form(tag, dag, system, req, pbits, ones, True)
        if req.kind == "verify":
            out["suites"] = {}
            for name, check in bes.props.SUITES.items():
                counts["props.checks"] += 1
                out["suites"][name] = call(f"props.{name}", check, system, None, req.subsets)
        return out


def flatten(out: dict, prefix: str = "") -> dict:
    """Fingerprints of every output of a request, keyed by path."""
    flat = {}
    for key, value in out.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = fingerprint(value)
    return flat


# ---------------------------------------------------------------- checks


def walk(dag, eqs: oracle.Equations, errors: list, where: str):
    """Reachable ids, applications and edges, read through TermDag.node."""
    seen = set(dag.roots)
    stack = list(seen)
    applies = edges = 0
    while stack:
        tid = stack.pop()
        if tid < 2:
            continue
        node = dag.node(tid)
        applies += 1
        edges += len(node.args)
        if tuple(v for v, _ in node.args) != eqs.supports[node.func]:
            errors.append(f"{where}: node {tid} arguments do not follow the support")
        for _, arg in node.args:
            if arg not in seen:
                seen.add(arg)
                stack.append(arg)
    return len(seen), applies, edges


def expanded_applies(eqs: oracle.Equations, depth: int) -> int:
    """Applications of the hash-consed depth-fold unrolling, reachable from the roots."""
    table: dict[tuple, int] = {}
    args_of: list[tuple[int, ...]] = []
    level = [-1] * eqs.n  # -1 is bottom
    for _ in range(depth):
        nxt = []
        for i in range(eqs.n):
            key = (i, tuple(level[j] for j in eqs.supports[i]))
            tid = table.get(key)
            if tid is None:
                tid = table[key] = len(args_of)
                args_of.append(key[1])
            nxt.append(tid)
        level = nxt
    seen = {t for t in level if t >= 0}
    stack = list(seen)
    while stack:
        for a in args_of[stack.pop()]:
            if a >= 0 and a not in seen:
                seen.add(a)
                stack.append(a)
    return len(seen)


def check_query(dimacs: str, cnf_size, req, expected: tuple, width: int, errors, where):
    """The DIMACS text decides the query as the oracle's values predict.

    With every parameter fixed, unit propagation decides the query.  One
    assignment is tried: the first under which the query holds, if any,
    otherwise the first.
    """
    parsed = oracle.parse_dimacs(dimacs)
    if (parsed[0], len(parsed[2])) != cnf_size:
        errors.append(f"{where}: DIMACS header differs from the CNF object")
    var, bit = req.query
    holds = expected[var] if bit else ~expected[var] & ((1 << width) - 1)
    j = (holds & -holds).bit_length() - 1 if holds else 0
    want = "sat" if holds else "unsat"
    got = oracle.decide_dimacs(parsed, req.param_names, j)
    if got != want:
        errors.append(f"{where}: query at assignment {j} is {got}, expected {want}")


def check_form(tag: str, form: dict, req, eqs, expected, depth: int, errors) -> None:
    """Sizes, values and every emitted text of one closed form."""
    where = f"{req.name} {tag}"
    pbits, ones = req.masks
    names = {name: i for i, name in enumerate(req.var_names)}
    reach, applies, edges = walk(form["dag"], eqs, errors, where)
    stats = form["stats"]
    if stats is not FAILED and (stats.apply_count, stats.edge_count) != (applies, edges):
        errors.append(f"{where}: dag_stats {stats.apply_count}/{stats.edge_count} "
                      f"!= walked {applies}/{edges}")
    want = None
    if tag == "expanded":
        want = expanded_applies(eqs, depth)
    elif req.family is not None:
        family, n = req.family
        want = {"chain": 2 * n, "complete": n * 2 ** (n - 1)}[family]
    if want is not None and applies != want:
        errors.append(f"{where}: {applies} applications, expected {want}")
    if req.family is not None and tag == "expanded" and applies != req.family[1] ** 2:
        errors.append(f"{where}: {applies} applications, expected n^2")
    if form["values"] is not FAILED and form["values"] != expected:
        errors.append(f"{where}: eval_dag differs from the oracle")
    if isinstance(form.get("let"), str):
        roots, bindings = oracle.eval_let_text(form["let"], eqs, names, pbits, ones)
        if roots != expected or bindings != applies:
            errors.append(f"{where}: let text has {bindings} bindings for {applies} "
                          f"applications or evaluates wrongly")
    if isinstance(form.get("dot"), str):
        nodes, dot_edges = oracle.dot_counts(form["dot"])
        if (nodes, dot_edges) != (reach, edges):
            errors.append(f"{where}: DOT has {nodes} nodes/{dot_edges} edges, "
                          f"expected {reach}/{edges}")
    if isinstance(form.get("sexpr"), str):
        roots, size = oracle.eval_sexpr(form["sexpr"], eqs, names, pbits, ones)
        if roots != expected or stats is FAILED or size != stats.tree_size:
            errors.append(f"{where}: s-expression has {size} nodes or evaluates wrongly")
    if isinstance(form.get("dimacs"), str):
        check_query(form["dimacs"], form["cnf_size"], req, expected, ones.bit_length(),
                    errors, where)


def check_request(req: workloads.Request, out: dict, errors: list) -> None:
    """Compare one request's outputs with the oracle and the method's properties."""
    system = out["system"]
    if system is FAILED:
        return
    if (system.var_names, system.param_names) != (req.var_names, req.param_names):
        errors.append(f"{req.name}: parsed names differ from the input")
    eqs = oracle.Equations(req.formulas)
    pbits, ones = req.masks
    lfp = eqs.iterate(pbits, ones)
    if out["lfp"] is not FAILED and tuple(out["lfp"]) != lfp:
        errors.append(f"{req.name}: kleene_lfp {out['lfp'][1]} rounds, oracle {lfp[1]}; "
                      f"values {'agree' if out['lfp'][0] == lfp[0] else 'differ'}")
    if req.kind == "deep":
        if isinstance(out.get("format"), str) and out["format"] != req.text:
            errors.append(f"{req.name}: format_system does not reproduce the canonical text")
        if "expanded" in out:
            bounded, _ = eqs.iterate(pbits, ones, req.depth)
            check_form("expanded", out["expanded"], req, eqs, bounded, req.depth, errors)
        return
    for tag in ("pruned", "expanded"):
        if tag in out:
            check_form(tag, out[tag], req, eqs, lfp[0], eqs.n, errors)
    for name, cex in out.get("suites", {}).items():
        if cex is not None and cex is not FAILED:
            errors.append(f"{req.name}: props suite {name} failed: {cex.detail}")


# ---------------------------------------------------------------- passes


def setup(args):
    """Import bes and build every request; returns (bes, requests, masks, seconds)."""
    for name in [m for m in sys.modules if m == "bes" or m.startswith("bes.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    bes = import_bes()
    reqs = workloads.build(args.workload, args.seed, "smoke" if args.smoke else "full", bes)
    masks = [req.masks for req in reqs]
    return bes, reqs, masks, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, every check")
    args = ap.parse_args(argv)

    rec = Recorder(bool(args.trace))
    setup_s = []
    for _ in range(SETUP_REPEATS):
        bes, reqs, masks, seconds = setup(args)
        setup_s.append(seconds)
    gc.collect()
    gc.freeze()  # the benchmark's own inputs stay out of the program's collections

    errors: list[str] = []
    first_pass: list[dict] = []
    wall: list[float] = []  # per pass, requests' wall time including the harness
    harness: dict[int, list[float]] = {}  # per request, its time outside calls
    counts: Counter | None = None
    passes = 0
    check_s = 0.0
    deadline = time.perf_counter() + args.seconds
    while True:
        gc.collect()
        run = Pass(bes, rec)
        rec.start_pass()
        wall.append(0.0)
        pass_start = time.perf_counter()
        for rid, (req, (pbits, ones)) in enumerate(zip(reqs, masks)):
            rec.start_request(rid, passes * len(reqs) + rid, req.name)
            start = time.perf_counter()
            out = run.request(req, pbits, ones)
            end = time.perf_counter()
            rec.end_request()
            if rec.trace:
                rec.spans.append(("request", start, end, rec.request, None))
            wall[-1] += end - start
            harness.setdefault(rid, []).append(
                end - start - rec.in_calls - (rec.gauged - rec.gauged_before))
            flat = flatten(out)
            if not passes:
                first_pass.append(flat)
                start = time.perf_counter()
                try:
                    check_request(req, out, errors)
                except Exception as err:  # malformed output the checks could not read
                    errors.append(f"{req.name}: check raised {type(err).__name__}: {err}")
                check_s += time.perf_counter() - start
            elif flat != first_pass[rid]:
                errors.append(f"{req.name}: outputs differ from the first pass")
            del out
        rec.end_pass()
        passes += 1
        pass_s = time.perf_counter() - pass_start
        if passes == 1:
            # later passes repeat the same work; their peaks differ only by
            # heap fragmentation, which would make this figure drift
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            deadline += check_s  # the checks do not eat into the measured time
        # two more set-ups per pass spread the set-up samples over the run,
        # like the passes; their inputs are dropped
        setup_s += [setup(args)[3] for _ in range(2)]
        if counts is None:
            counts = run.counts
        elif run.counts != counts:
            errors.append("per-pass counts differ between passes")
        # stop before a pass that would run past the deadline, so the run's
        # length stays near --seconds whatever one pass takes
        if passes >= 2 and time.perf_counter() + pass_s >= deadline:
            break

    for msg in errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    fastest_s = rec.fastest()
    if args.trace:
        metrics = layer_metrics(rec, harness, counts, fastest_s)
        write_spans(rec.spans, args)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "run_ref": (rec.run_ref(), "ref"),
            "request_p50_ref": (rec.request_p50_ref(), "ref"),
            "peak_rss_mib": (peak, "MiB"),
            "dag_applies": (counts["dag_applies"], "count"),
            "cnf_clauses": (counts["cnf_clauses"], "count"),
        }
    failed = sum(rec.failures.values())
    for (name, op, exc), k in sorted(rec.failures.items()):
        print(f"failed: {name} {op} {exc} x{k}", file=sys.stderr)
    print(f"passes: {passes} ({' '.join(f'{t:.3f}' for t in wall)} s), "
          f"requests per pass: {len(reqs)}, oracle checks: {check_s:.2f} s, "
          f"fastest calls: {fastest_s:.3f} s, reference loop: "
          f"{' '.join(f'{1000 * rec.ref_unit(p):.3f}' for p in rec.timed_passes())} ms",
          file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


LAYER_TIMES = (
    "text.parse_system", "text.format_system", "core.kleene_lfp",
    "dag.build_pruned", "dag.build_expanded", "dag.eval_dag", "dag.dag_stats",
    "emit.to_let_text", "emit.to_sexpr", "emit.to_dot", "emit.to_cnf", "emit.write_dimacs",
)
LAYER_COUNTS = (
    ("text.bytes", "bytes"), ("core.kleene_lfp.rounds", "count"),
    ("core.kleene_lfp.equation_evals", "count"),
    ("dag.expanded.applies", "count"), ("dag.expanded.edges", "count"),
    ("dag.pruned.applies", "count"), ("dag.pruned.edges", "count"),
    ("emit.bytes", "bytes"), ("emit.cnf.vars", "count"), ("props.checks", "count"),
)
SUITES = (
    "equality", "pruned_le_expanded", "prune_le_iterate", "zero_prefix",
    "masking_preserves_iterates", "masked_le_pruned", "self_substitution", "memo_keys",
)


def layer_metrics(rec: Recorder, harness: dict, counts: Counter, fastest_s: float) -> dict:
    """Per-layer time per pass, each call's fastest pass summed, and per-pass counts."""
    metrics = {}
    for name in list(LAYER_TIMES) + [f"props.{s}" for s in SUITES]:
        metrics[f"{name}.s"] = (rec.fastest(lambda key: rec.names[key] == name), "s")
    metrics["bench.request_self.s"] = (sum(min(v) for v in harness.values()), "s")
    for name, unit in LAYER_COUNTS:
        metrics[name] = (counts[name], unit)
    metrics["bench.traced_run_s"] = (fastest_s, "s")
    metrics["bench.traced_run_ref"] = (rec.run_ref(), "ref")
    metrics["bench.ref_loop_ms"] = (1000 * statistics.median(
        rec.ref_unit(p) for p in rec.timed_passes()), "ms")
    return metrics


def write_spans(spans, args) -> None:
    """Spans of the whole run as JSON lines, under .bench_build/ in the checkout."""
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, rid, parent in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "request": rid, "parent": parent}) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError:
        traceback.print_exc()
        sys.exit(2)
