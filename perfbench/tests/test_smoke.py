"""Every workload on small inputs, with every check, in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
RUN = ["perfbench/run.py", "--workload", "all", "--smoke", "--seconds", "0", "--seed", "5"]
WORKLOADS = ("sparse-expanded", "dense-pruned", "deep-solve", "verify-random")
# The one fault kept on purpose: a 3000-disjunct equation, which the parser
# reads as a left-deep chain that these four walkers recurse through.  With
# --seconds 0 a run makes two passes: the warm-up and one timed pass.
WIDE_FAILURES = {
    f"failed: wide-3000 {op} RecursionError x2"
    for op in ("text.format_system", "core.kleene_lfp", "dag.eval_dag", "emit.to_cnf")
}


def run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, *extra], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_every_workload_runs_and_checks():
    proc = run("--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    failures = {line for line in proc.stderr.splitlines() if line.startswith("failed:")}
    assert failures == WIDE_FAILURES
    assert result["failed"] == 2 * len(WIDE_FAILURES)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            value = result["metrics"][f"{workload}.{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc = run("--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        names = {k.split(".", 1)[1] for k in result["metrics"] if k.startswith(workload + ".")}
        assert names == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["verify-random.props.checks"]["value"] > 0
    assert result["metrics"]["deep-solve.text.format_system.s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = run("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert "{" not in proc.stdout
