"""Benchmark of hetero-spectra: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload solve-p500 --seed 1 --seconds 35 --trace 0

Run it from anywhere inside a checkout of the repository; it imports the
package from the checkout's ``src/``. With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json``, measured with tracing off. With
``--trace 1`` it spends half of ``--seconds`` on untraced ops and then
replays the same ops with spans on, and reports the per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

import os
import sys
import time

T_START = time.perf_counter()

# one BLAS thread, set before numpy loads: with --jobs 2 the process then
# runs at most two compute threads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
# leave no __pycache__ behind, and compile the same way on every run
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "hetero_spectra", "__init__.py")):
    sys.exit(f"perfbench: no hetero_spectra package under {SRC}; run it inside a checkout")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

T_IMPORTED = time.perf_counter()

OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3  # set-up runs per process; setup_s reports their median
MIN_OPS = 3  # a run measures at least this many ops
P90_MIN_OPS = 100  # op_s_p90 needs ten samples beyond it

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# ROADMAP item 1, one BLAS thread: p -> (one rmtfa iteration, one eigh call),
# seconds; its p=200 row has no workload
ROADMAP_BASELINE = {12: (114e-6, 25e-6), 500: (46e-3, 34e-3)}


def closed_loop(workload, seconds=None, indices=None, tracer=None, mutate=None):
    """Run ops back to back, one caller, each op starting when the last returned.

    Runs for ``seconds`` of wall time (and at least ``MIN_OPS`` ops), or over
    exactly the op ``indices``. Only the op itself is timed; preparing its
    input and verifying its output happen off the clock. ``mutate`` is
    applied to each output before verification (the self-test corrupts
    outputs with it).

    Returns
    -------
    (list of op seconds, list of verified flags)
    """
    times, oks = [], []
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while True:
        if indices is not None:
            if i >= len(indices):
                break
            idx = indices[i]
        else:
            if i >= MIN_OPS and time.perf_counter() >= deadline:
                break
            idx = i
        inp = workload.op_input(idx)
        t0 = time.perf_counter()
        try:
            out = workload.op(inp) if tracer is None else tracer.run_op(idx, workload.op, inp)
        except Exception as exc:  # a failed op is counted, not fatal
            times.append(time.perf_counter() - t0)
            oks.append(False)
            print(f"op {idx} failed: {exc!r}", file=sys.stderr)
            i += 1
            continue
        times.append(time.perf_counter() - t0)
        if mutate is not None:
            out = mutate(out)
        try:
            ok = bool(workload.verify(inp, out))
        except Exception as exc:  # unreadable output fails verification
            print(f"op {idx} output unreadable: {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"op {idx} failed verification", file=sys.stderr)
        oks.append(ok)
        i += 1
    return times, oks


def set_up(cls, seed, workdir, tiny):
    """Set the workload up ``SETUP_REPEATS`` times; keep the last one.

    Returns the workload and ``setup_s``: the import time of this process
    plus the median of the set-up times.
    """
    durations = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = cls(seed, workdir, tiny)
        workload.setup()
        durations.append(time.perf_counter() - t0)
    return workload, (T_IMPORTED - T_START) + statistics.median(durations)


def end_to_end(times, oks, setup_s):
    """End-to-end metrics of one untraced run, and notes printed beside them."""
    n = len(times)
    metrics = {
        "ops_per_s": sum(oks) / sum(times),
        "op_s_p50": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"op_s_p50 over {n} ops"]
    if n >= P90_MIN_OPS:
        notes.append(f"op_s_p90 {statistics.quantiles(times, n=10)[-1]:.6g} s")
    else:
        notes.append(f"op_s_p90 omitted: {n} ops < {P90_MIN_OPS}")
    return metrics, notes


def traced_run(workload, seconds, spans_path):
    """Half the time untraced, then the same ops again with spans on."""
    times_u, oks_u = closed_loop(workload, seconds=seconds / 2.0)
    tracer = Tracer()
    with tracer.installed():
        times_t, oks_t = closed_loop(workload, indices=range(len(times_u)), tracer=tracer)
    metrics = layer_metrics(tracer, workload.jobs)
    metrics["trace_overhead_frac"] = statistics.median(times_t) / statistics.median(times_u) - 1.0
    tracer.save(spans_path)
    return metrics, oks_u + oks_t


def git_commit():
    """Commit of the checkout, read from ``.git`` inside it when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args):
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def baseline_lines(workload, metrics):
    """Compare the traced per-iteration and per-eigh times with ROADMAP item 1.

    Only workloads whose solves are all rMTFA have a comparable row; no
    workload runs at p=200.
    """
    ref = ROADMAP_BASELINE.get(workload.p) if workload.rmtfa_only else None
    if ref is None:
        return [f"baseline: no ROADMAP row for {workload.name} at p={workload.p}"]
    return [
        f"baseline p={workload.p}: rmtfa iteration {metrics['solvers.iter_s'] * 1e6:.1f} us "
        f"(ROADMAP {ref[0] * 1e6:.0f} us), eigh call {metrics['matcore.eigh_call_s'] * 1e6:.1f} us "
        f"(ROADMAP {ref[1] * 1e6:.0f} us); traced, overhead "
        f"{metrics['trace_overhead_frac']:+.1%} of op time"
    ]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="measured wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: self-test inputs"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    cls = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload, setup_s = set_up(cls, args.seed, workdir, args.size == "tiny")
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
            values, oks = traced_run(workload, args.seconds, spans_path)
            units = LAYER_UNITS
            notes = baseline_lines(workload, values) + [f"spans written to {spans_path}"]
        else:
            times, oks = closed_loop(workload, seconds=args.seconds)
            values, notes = end_to_end(times, oks, setup_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: (values[name], unit) for name, unit in units.items()}
    attempted = len(oks)
    failed = attempted - sum(oks)
    print("# env " + json.dumps(environment(args), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'error_rate':28s} {failed / attempted:.6g} frac ({failed} of {attempted} ops)")
    for line in notes:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
