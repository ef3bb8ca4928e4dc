"""Command-line front end: solve one matrix, run a sweep, plot its results.

Three subcommands. ``solve`` reads a symmetric matrix (dense CSV or
Matrix Market array), fits one method and writes L.csv, D.csv, trace.csv
and summary.json into an output directory. ``simulate`` runs a seeded
Monte-Carlo sweep from a JSON config into a results CSV. ``plot`` renders
a results CSV to a self-contained SVG.

Exit codes: 0 ok, 1 unreadable input (parse or I/O), 2 invalid arguments
or config values, 3 solver did not converge (outputs are still written).
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from dataclasses import replace
from xml.sax.saxutils import escape

import numpy as np

from .matcore import symmetrize
from .metrics import heywood_check
from .shrinkage import ProxSpec, apply_prox
from .simlab import ExperimentConfig, run_experiment
from .solvers import METHOD_TAGS, METHODS, SOFT_METHODS, _numerical_rank

# solve runs its fit through METHODS. The names below stay bound here only
# because perfbench/tracer.py patches them on this module for its traced
# run; solve calls none of them.
from .solvers import (  # noqa: F401
    deflated_heteropca,
    diag_deleted_pca,
    heteropca,
    numerical_rank_sym,
    objective_F,
    rmtfa,
    soft_impute_diag,
)

_heteropca_psd_run = METHODS["hpca_plus"]

__all__ = [
    "ParseError",
    "ExperimentConfig",
    "parse_matrix",
    "write_matrix_csv",
    "load_config",
    "cmd_solve",
    "cmd_simulate",
    "cmd_plot",
    "main",
]

RESULTS_HEADER = ["method", "param", "value", "replicate", "sin_theta", "wall_ms", "status"]
RESULTS_COMMENT = "# hetero-spectra results v1"

_DISPLAY = {
    "svd": "SVD",
    "dd": "DD",
    "hpca": "HPCA",
    "dhpca": "DHPCA",
    "hpca_plus": "HPCA+",
    "rmtfa": "rMTFA",
    "si": "SI",
}

_PALETTE = ["#1b6ca8", "#d1495b", "#3e8e41", "#8e44ad", "#e67e22", "#16a085", "#7f8c8d"]

_ASYM_TOL = 1e-10


class ParseError(Exception):
    """An input file (matrix, config or results CSV) could not be read."""


def _fmt(x):
    return format(float(x), ".17g")


def _parse_csv_matrix(text, path):
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(
                f"{path}: line {lineno} has {len(tokens)} values, expected {width}"
            )
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                row.append(float(tok))
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {col}: {tok.strip()!r} is not a number"
                ) from None
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def _parse_mm_array(text, path):
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError(f"{path}: line 1: malformed MatrixMarket header")
    _, obj, fmt, field, symmetry = (w.lower() for w in header)
    if obj != "matrix" or fmt != "array":
        raise ParseError(f"{path}: line 1: only 'matrix array' files are supported")
    if field not in ("real", "integer"):
        raise ParseError(f"{path}: line 1: unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"{path}: line 1: unsupported symmetry {symmetry!r}")

    entries = []  # (lineno, token)
    dims = None
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if dims is None:
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError(f"{path}: line {lineno}: expected 'rows cols'")
            try:
                dims = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-integer dimensions") from None
            if dims[0] < 1 or dims[1] < 1:
                raise ParseError(f"{path}: line {lineno}: dimensions must be positive")
            continue
        for tok in stripped.split():
            entries.append((lineno, tok))
    if dims is None:
        raise ParseError(f"{path}: missing dimensions line")
    nrow, ncol = dims
    if symmetry == "symmetric":
        if nrow != ncol:
            raise ParseError(f"{path}: symmetric file must be square, got {nrow}x{ncol}")
        expected = nrow * (nrow + 1) // 2
    else:
        expected = nrow * ncol
    if len(entries) != expected:
        raise ParseError(f"{path}: expected {expected} entries, found {len(entries)}")

    values = []
    for lineno, tok in entries:
        try:
            values.append(float(tok))
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: {tok!r} is not a number") from None

    a = np.empty((nrow, ncol))
    it = iter(values)
    if symmetry == "symmetric":
        # lower triangle, column major, diagonal included
        for j in range(ncol):
            for i in range(j, nrow):
                v = next(it)
                a[i, j] = v
                a[j, i] = v
    else:
        for j in range(ncol):
            for i in range(nrow):
                a[i, j] = next(it)
    return a


def parse_matrix(path):
    """Read a symmetric matrix from dense CSV or Matrix Market array text.

    The format is sniffed from the content, not the extension. Square
    matrices with asymmetry at most 1e-10 (max norm) are symmetrized with
    a warning; larger asymmetry is rejected naming the worst entry pair.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    if text.lstrip().startswith("%%MatrixMarket"):
        a = _parse_mm_array(text, path)
    else:
        a = _parse_csv_matrix(text, path)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParseError(f"{path}: matrix is {a.shape[0]}x{a.shape[1]}, expected square")
    if not np.all(np.isfinite(a)):
        raise ParseError(f"{path}: matrix has non-finite entries")
    gap = np.abs(a - a.T)
    worst = float(np.max(gap)) if gap.size else 0.0
    if worst > _ASYM_TOL:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise ParseError(
            f"{path}: not symmetric, |a[{i},{j}] - a[{j},{i}]| = {worst:.6g} "
            f"exceeds {_ASYM_TOL:g}"
        )
    if worst > 0.0:
        warnings.warn(f"{path}: symmetrized input, max asymmetry {worst:.3g}", stacklevel=2)
        a = symmetrize(a)
    return a


def write_matrix_csv(path, m):
    """Write a matrix as dense CSV at 17 significant digits."""
    m = np.asarray(m, dtype=float)
    # one printf-style format per row; "%.17g" prints the same digits as _fmt
    row_fmt = ",".join(["%.17g"] * m.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for row in m.tolist():
            fh.write(row_fmt % tuple(row))


_CONFIG_KEYS = {
    "n",
    "p",
    "r",
    "kappa",
    "omega",
    "vary",
    "methods",
    "replicates",
    "seed",
    "tau_rule",
}
_VARY_KEYS = {"param", "values"}


def load_config(path):
    """Load an :class:`ExperimentConfig` from JSON, rejecting unknown fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        # config problems are argument-class errors (exit 2), not exit 1
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config fields: {', '.join(unknown)}")
    for key in ("n", "p", "r", "vary"):
        if key not in raw:
            raise ValueError(f"{path}: missing required config field {key!r}")
    vary = raw["vary"]
    if not isinstance(vary, dict):
        raise ValueError(f"{path}: 'vary' must be an object with 'param' and 'values'")
    unknown = sorted(set(vary) - _VARY_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown vary fields: {', '.join(unknown)}")
    for key in _VARY_KEYS:
        if key not in vary:
            raise ValueError(f"{path}: missing vary field {key!r}")
    if not isinstance(vary["values"], list):
        raise ValueError(f"{path}: vary.values must be a list")
    kwargs = dict(
        n=raw["n"],
        p=raw["p"],
        r=raw["r"],
        vary_param=vary["param"],
        vary_values=tuple(vary["values"]),
    )
    if "kappa" in raw:
        kwargs["kappa"] = raw["kappa"]
    if "omega" in raw:
        kwargs["omega"] = raw["omega"]
    if "methods" in raw:
        if not isinstance(raw["methods"], list):
            raise ValueError(f"{path}: methods must be a list of tags")
        kwargs["methods"] = tuple(raw["methods"])
    if "replicates" in raw:
        kwargs["replicates"] = raw["replicates"]
    if "seed" in raw:
        kwargs["seed"] = raw["seed"]
    if "tau_rule" in raw:
        kwargs["tau_rule"] = raw["tau_rule"]
    return ExperimentConfig(**kwargs)


def cmd_solve(args):
    sigma = parse_matrix(args.input)
    method = args.method
    soft = method in SOFT_METHODS
    if soft:
        if args.tau is None:
            raise ValueError(f"--tau is required for method {method}")
        if args.rank is not None:
            raise ValueError(f"--rank is not accepted for method {method}")
        param = float(args.tau)
    else:
        if args.rank is None:
            raise ValueError(f"--rank is required for method {method}")
        if args.tau is not None:
            raise ValueError(f"--tau is not accepted for method {method}")
        param = int(args.rank)

    dec, trace = METHODS[method](sigma, param)

    os.makedirs(args.out, exist_ok=True)
    write_matrix_csv(os.path.join(args.out, "L.csv"), dec.L)
    write_matrix_csv(os.path.join(args.out, "D.csv"), dec.D)
    with open(os.path.join(args.out, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("k,objective,fixed_point_residual,psi\n")
        rows = zip(trace.objective, trace.fixed_point_residual, trace.psi)
        for k, (obj, resid, psi) in enumerate(rows, start=1):
            fh.write(f"{k},{_fmt(obj)},{_fmt(resid)},{_fmt(psi)}\n")

    # the last step's objective and kept spectrum are the returned pair's,
    # since D = pdiag(sigma - L): no eigensolve needed here
    summary = {
        "method": method,
        "param": param,
        "p": sigma.shape[0],
        "objective": trace.objective[-1],
        "psi": float(np.sum((sigma - dec.L - dec.D) ** 2)),
        "rank_L": _numerical_rank(trace.kept),
        "heywood": heywood_check(dec),
        "converged": bool(dec.converged),
        "iterations": int(dec.iterations),
        "stop_reason": trace.stop_reason,
    }
    if soft:
        # an independent check of the returned pair, with one full eigensolve
        kind = ProxSpec.psd_soft(param) if method == "rmtfa" else ProxSpec.sym_soft(param)
        refit = apply_prox(kind, sigma - dec.D)
        summary["fixed_point_residual"] = float(np.linalg.norm(dec.L - refit))
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    if not dec.converged:
        print(
            f"warning: {method} did not converge in {dec.iterations} iterations",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_simulate(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.replicates is not None:
        config = replace(config, replicates=args.replicates)
    jobs = args.jobs
    if jobs is None:
        env = os.environ.get("HETERO_SPECTRA_JOBS")
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"HETERO_SPECTRA_JOBS = {env!r} is not an integer") from None
        else:
            jobs = 1
    rows = run_experiment(config, jobs=jobs)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(RESULTS_COMMENT + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for row in rows:
            wall = row.wall_ms if args.timings else 0.0
            writer.writerow(
                [
                    row.method,
                    row.param,
                    _fmt(row.value),
                    row.replicate,
                    _fmt(row.sin_theta),
                    _fmt(wall),
                    row.status,
                ]
            )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _read_results_csv(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path}: missing header line")
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader)
    if header != RESULTS_HEADER:
        raise ParseError(f"{path}: unexpected header {header!r}")
    # a header with no rows parses fine; emptiness is the caller's call
    rows = []
    for lineno, rec in enumerate(reader, start=2):
        if len(rec) != len(RESULTS_HEADER):
            raise ParseError(f"{path}: row {lineno} has {len(rec)} fields")
        try:
            rows.append(
                {
                    "method": rec[0],
                    "param": rec[1],
                    "value": float(rec[2]),
                    "replicate": int(rec[3]),
                    "sin_theta": float(rec[4]),
                    "wall_ms": float(rec[5]),
                    "status": rec[6],
                }
            )
        except ValueError as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
    return rows


def _series_from_rows(rows):
    by_method = {}
    for row in rows:
        if row["status"] != "ok" or not math.isfinite(row["sin_theta"]):
            continue
        by_method.setdefault(row["method"], {}).setdefault(row["value"], []).append(
            row["sin_theta"]
        )
    order = [m for m in METHOD_TAGS if m in by_method]
    order += [m for m in by_method if m not in METHOD_TAGS]
    series = {}
    for m in order:
        pts = sorted((v, float(np.mean(ys))) for v, ys in by_method[m].items())
        series[m] = pts
    return series


def _render_svg(series, x_label):
    width, height = 720, 440
    ml, mr, mt, mb = 72, 168, 36, 58
    pw, ph = width - ml - mr, height - mt - mb
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    xmin, xmax = min(xs), max(xs)
    if xmin == xmax:
        xmin -= 0.5 if xmin == 0 else abs(xmin) * 0.5
        xmax += 0.5 if xmax == 0 else abs(xmax) * 0.5
    ymin = 0.0
    ymax = max(ys) * 1.05 if max(ys) > 0 else 1.0

    def X(x):
        return ml + (x - xmin) / (xmax - xmin) * pw

    def Y(y):
        return mt + ph - (y - ymin) / (ymax - ymin) * ph

    meta = json.dumps({"version": 1, "x_param": x_label, "series": series})
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<metadata id="hetero-spectra-series">{escape(meta)}</metadata>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # axes and ticks
    parts.append(
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>'
    )
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>')
    for i in range(5):
        fx = xmin + (xmax - xmin) * i / 4
        fy = ymin + (ymax - ymin) * i / 4
        px, py = X(fx), Y(fy)
        parts.append(
            f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" y2="{mt + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{mt + ph + 20}" text-anchor="middle">{fx:.4g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 9}" y="{py + 4:.2f}" text-anchor="end">{fy:.4g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 14}" text-anchor="middle">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="20" y="{mt + ph / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {mt + ph / 2:.2f})">mean sin-theta</text>'
    )
    # one polyline per method, plus point markers
    for idx, (tag, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{X(x):.2f},{Y(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        for x, y in pts:
            parts.append(f'<circle cx="{X(x):.2f}" cy="{Y(y):.2f}" r="2.6" fill="{color}"/>')
        ly = mt + 14 + idx * 20
        lx = ml + pw + 18
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}">{escape(_DISPLAY.get(tag, tag))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args):
    rows = _read_results_csv(args.input)
    series = _series_from_rows(rows)
    if not series:
        raise ValueError(f"{args.input}: no plottable rows (all failed or empty)")
    params = {row["param"] for row in rows}
    x_label = params.pop() if len(params) == 1 else "value"
    svg = _render_svg(series, x_label)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hetero-spectra",
        description="Low-rank plus heteroskedastic-diagonal covariance fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="fit one method to a matrix file")
    ps.add_argument("--input", required=True, help="matrix file (dense CSV or MatrixMarket array)")
    ps.add_argument("--method", required=True, choices=METHOD_TAGS)
    ps.add_argument("--tau", type=float, help="shrinkage level (rmtfa, si)")
    ps.add_argument("--rank", type=int, help="target rank (spectral methods)")
    ps.add_argument("--out", required=True, help="output directory")
    ps.set_defaults(func=cmd_solve)

    pm = sub.add_parser("simulate", help="run a Monte-Carlo sweep from a JSON config")
    pm.add_argument("--config", required=True, help="experiment config JSON")
    pm.add_argument("--out", required=True, help="results CSV path")
    pm.add_argument("--seed", type=int, help="override the config seed")
    pm.add_argument("--replicates", type=int, help="override the config replicate count")
    pm.add_argument("--jobs", type=int, help="worker threads (default: HETERO_SPECTRA_JOBS or 1)")
    pm.add_argument(
        "--timings",
        action="store_true",
        help="write measured wall_ms (default writes 0 so reruns are byte-identical)",
    )
    pm.set_defaults(func=cmd_simulate)

    pp = sub.add_parser("plot", help="render a results CSV to SVG")
    pp.add_argument("--input", required=True, help="results CSV from simulate")
    pp.add_argument("--out", required=True, help="output SVG path")
    pp.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
