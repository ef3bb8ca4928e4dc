"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For every workload it checks that

- ``run.py --size tiny`` exits 0 and ends its output with the result
  object, holding every end-to-end metric of ``BENCHMARK.json`` untraced
  and every per-layer metric traced, each with its declared unit;
- the traced layer self times plus the unattributed remainder add up to
  the traced op time;
- an output corrupted after the op fails verification and is counted in
  ``failed`` (the error rate).

It also checks that ``run.py`` fails without printing a result when the
package source is missing. Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402  (pins BLAS threads and finds the package)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_cli(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    argv = [sys.executable, script, "--workload", workload, "--seed", "0", "--seconds", "1"]
    argv += ["--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=180, cwd=cwd)


def check_result(workload, trace, declared, failures):
    proc = run_cli(workload, trace)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        failures.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        failures.append(f"{label}: not correct: {result}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        failures.append(f"{label}: metrics differ: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not math.isfinite(got.get("value", math.nan)):
            failures.append(f"{label}: {name} is {got}, expected a finite value in {unit}")
    return metrics


def check_additivity(workload, metrics, failures):
    parts = [v["value"] for k, v in metrics.items() if k.startswith("self_s.")]
    total = metrics["traced_op_s"]["value"]
    if not math.isclose(sum(parts), total, rel_tol=1e-9):
        failures.append(f"{workload}: layer self times sum to {sum(parts)}, op time {total}")


def check_corruption(cls, failures):
    workdir = os.path.join(run.OUT_DIR, f"selftest-{cls.name}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = cls(0, workdir, tiny=True)
        workload.setup()
        _, clean = run.closed_loop(workload, indices=range(2))
        _, bad = run.closed_loop(workload, indices=range(2), mutate=workload.corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not all(clean):
        failures.append(f"{cls.name}: clean outputs failed verification")
    if any(bad):
        failures.append(f"{cls.name}: corrupted outputs were not counted as failed")


def check_bare_directory(failures):
    """Without the package source, run.py must fail and print no result."""
    bare = os.path.join(run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        proc = run_cli("solve-p500", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("bare directory: run.py did not fail cleanly")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []
    if end_to_end != run.END_TO_END_UNITS or per_layer != run.LAYER_UNITS:
        failures.append("BENCHMARK.json metrics differ from the ones run.py emits")
    for name, cls in run.WORKLOADS.items():
        check_result(name, 0, end_to_end, failures)
        traced = check_result(name, 1, per_layer, failures)
        if traced is not None:
            check_additivity(name, traced, failures)
        check_corruption(cls, failures)
        print(f"{name}: checked", flush=True)
    check_bare_directory(failures)
    for line in failures:
        print("FAIL", line)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
