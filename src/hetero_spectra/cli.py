"""Command-line front end: solve one matrix, run a sweep, plot its results.

Three subcommands. ``solve`` reads a symmetric matrix (dense CSV or
Matrix Market array), fits one method and writes L.csv, D.csv, trace.csv
and summary.json into an output directory. ``simulate`` runs a seeded
Monte-Carlo sweep from a JSON config into a results CSV. ``plot`` renders
a results CSV to a self-contained SVG.

Exit codes: 0 ok, 1 unreadable input (parse, I/O or not UTF-8), 2 invalid
arguments or config values, or an input whose scale overflows the fit, 3
solver did not converge (outputs are still written), 4 the eigensolver failed
(no outputs written), 5 a sweep's worker process died (no results CSV written).
"""

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import MISSING, astuple, fields, replace

import numpy as np

from .matcore import EigenSolverError, _as_array, _as_real, symmetrize
from .metrics import heywood_check
from .simlab import ExperimentConfig, ResultRow, _WorkerDied, run_experiment
from .solvers import METHOD_TAGS, METHODS, SOFT_METHODS, _numerical_rank, _refit_residual

# solve runs its fit through METHODS. The names below stay bound here only
# because perfbench/tracer.py patches them on this module for its traced
# run; solve calls none of them.
from .shrinkage import apply_prox  # noqa: F401
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

# the results CSV has one column per ResultRow field, in field order
_RESULT_FIELDS = fields(ResultRow)
RESULTS_HEADER = [f.name for f in _RESULT_FIELDS]
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


def escape(text):
    """``text`` with ``&``, ``>`` and ``<`` replaced by XML entities, in that order.

    The same as ``xml.sax.saxutils.escape``, whose import loads urllib,
    http, email and ssl.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            # drop the byte-order mark spreadsheet tools put first
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(
            f"{path}: not UTF-8: byte {byte:#04x} at offset {exc.start} ({exc.reason})"
        ) from None


def _create(path):
    """Open ``path`` to write UTF-8 text with no newline translation, making its directory."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _floats(tokens, lines, path):
    """``tokens`` as one float array.

    ``lines``, a list of ``(lineno, tokens)``, holds every token of ``tokens``;
    a bad token is reported as the first bad one of ``lines`` in file order.
    """
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        # rescan only to name the first bad token
        for lineno, line_tokens in lines:
            for col, tok in enumerate(line_tokens, start=1):
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}, column {col}: {tok.strip()!r} is not a number"
                    ) from None
        raise


def _data_lines(lines, comment):
    """``(lineno, line)`` of each line neither blank nor a ``comment`` line, indented or not."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith(comment):
            yield lineno, line


def _parse_csv_matrix(text, path):
    lines = []
    for lineno, line in _data_lines(text.splitlines(), "#"):
        tokens = line.split(",")
        if lines and len(tokens) != len(lines[0][1]):
            raise ParseError(
                f"{path}: line {lineno} has {len(tokens)} values, expected {len(lines[0][1])}"
            )
        lines.append((lineno, tokens))
    if not lines:
        raise ParseError(f"{path}: no data rows")
    n, ncol = len(lines), len(lines[0][1])
    a = np.empty((n, ncol))
    for i, (lineno, tokens) in enumerate(lines):
        # the same text gives the same float, so a row whose text left of
        # the diagonal mirrors the column above it converts from the diagonal
        start = 0
        if n == ncol and tokens[:i] == [above[i] for _, above in lines[:i]]:
            a[i, :i] = a[:i, i]
            start = i
        a[i, start:] = _floats(tokens[start:], [(lineno, tokens)], path)
    return a


def _parse_mm_array(text, path):
    # parse_matrix sends only text whose first non-blank line holds the banner
    lines = text.splitlines()
    first = next(k for k, line in enumerate(lines) if line.strip())
    at = f"{path}: line {first + 1}"
    header = lines[first].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError(f"{at}: malformed MatrixMarket header")
    _, obj, fmt, field, symmetry = (w.lower() for w in header)
    if obj != "matrix" or fmt != "array":
        raise ParseError(f"{at}: only 'matrix array' files are supported")
    if field != "real":
        raise ParseError(f"{at}: unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"{at}: unsupported symmetry {symmetry!r}")

    # the banner is a % line too: the first data line holds the dimensions
    data = _data_lines(lines, "%")
    lineno, line = next(data, (None, None))
    if line is None:
        raise ParseError(f"{path}: missing dimensions line")
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"{path}: line {lineno}: expected 'rows cols'")
    try:
        nrow, ncol = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: non-integer dimensions") from None
    if nrow < 1 or ncol < 1:
        raise ParseError(f"{path}: line {lineno}: dimensions must be positive")
    body = [(lineno, line.split()) for lineno, line in data]
    if symmetry == "symmetric" and nrow != ncol:
        raise ParseError(f"{path}: symmetric file must be square, got {nrow}x{ncol}")
    expected = nrow * (nrow + 1) // 2 if symmetry == "symmetric" else nrow * ncol
    found = sum(len(tokens) for _, tokens in body)
    if found != expected:
        raise ParseError(f"{path}: expected {expected} entries, found {found}")

    values = _floats([tok for _, tokens in body for tok in tokens], body, path)
    if symmetry == "general":
        # column major
        return np.ascontiguousarray(values.reshape(ncol, nrow).T)
    # lower triangle, column major, diagonal included: the upper triangle in
    # row-major order
    upper = np.triu_indices(nrow)
    a = np.empty((nrow, nrow))
    a[upper] = values
    a.T[upper] = values
    return a


def parse_matrix(path):
    """Read a symmetric matrix from dense CSV or Matrix Market array text.

    The format is sniffed from the content, not the extension. Square
    matrices whose asymmetry ``max|a - a^T|`` is at most ``1e-10 * max|a|``
    are symmetrized with a warning; larger asymmetry is rejected naming the
    worst entry pair.
    """
    text = _read_text(path)
    parse = _parse_mm_array if text.lstrip().startswith("%%MatrixMarket") else _parse_csv_matrix
    a = parse(text, path)
    if a.shape[0] != a.shape[1]:
        raise ParseError(f"{path}: matrix is {a.shape[0]}x{a.shape[1]}, expected square")
    if not np.all(np.isfinite(a)):
        raise ParseError(f"{path}: matrix has non-finite entries")
    gap = np.abs(a - a.T)
    worst = float(np.max(gap))
    if worst > 0.0:
        limit = _ASYM_TOL * float(max(a.max(), -a.min()))
        if worst > limit:
            i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
            raise ParseError(
                f"{path}: not symmetric, |a[{i},{j}] - a[{j},{i}]| = {worst:.6g} "
                f"exceeds {_ASYM_TOL:g} * max|a| = {limit:.6g}"
            )
        warnings.warn(f"{path}: symmetrized input, max asymmetry {worst:.3g}", stacklevel=2)
        a = symmetrize(a)
    return a


def _format_row(values, bits):
    """``values`` as "%.17g" strings, with ``bits`` their uint64 view.

    A +0.0 entry (all bits zero) is the literal "0" that "%.17g" prints, so
    a sparse row formats only its nonzero entries.
    """
    nonzero = np.flatnonzero(bits)
    text = ",".join(["%.17g"] * nonzero.size) % tuple(values[nonzero].tolist())
    if nonzero.size == values.size:
        return text.split(",")
    out = ["0"] * values.size
    for k, s in zip(nonzero.tolist(), text.split(",")):
        out[k] = s
    return out


def write_matrix_csv(path, m):
    """Write a matrix as dense CSV at 17 significant digits, making the file's directory.

    Every finite entry reads back to the same bits. A matrix equal to its
    transpose bit for bit formats its upper triangle only.
    """
    m = _as_array(m, "write_matrix_csv", ndim=2)
    bits = m.view(np.uint64)
    nrow, ncol = m.shape
    symmetric = nrow == ncol and np.array_equal(bits, bits.T)
    # column j's strings above the diagonal wait in below[j] until row j
    below = [[] for _ in range(nrow)]
    with _create(path) as fh:
        for i in range(nrow):
            start = i if symmetric else 0
            pieces = _format_row(m[i, start:], bits[i, start:])
            if symmetric:
                for col, s in zip(below[i + 1 :], pieces[1:]):
                    col.append(s)
            fh.write(",".join(below[i] + pieces) + "\n")
            below[i] = None


# the config's fields are ExperimentConfig's, with "vary" an object holding
# vary_param and vary_values as "param" and "values"
_VARY_FIELDS = {"vary_param": "param", "vary_values": "values"}
_CONFIG_KEYS = {"vary" if f.name in _VARY_FIELDS else f.name for f in fields(ExperimentConfig)}
_REQUIRED_KEYS = [
    f.name for f in fields(ExperimentConfig) if f.default is MISSING and f.name not in _VARY_FIELDS
] + ["vary"]
# a fixed order, so a config names the same missing key under any hash seed
_VARY_KEYS = tuple(_VARY_FIELDS.values())


def _check_keys(path, obj, known, required, what, missing):
    """Reject keys of ``obj`` outside ``known``, then name the first missing one."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"{path}: unknown {what} fields: {', '.join(unknown)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{path}: missing {missing} field {key!r}")


def load_config(path):
    """Load an :class:`ExperimentConfig` from JSON, rejecting unknown fields."""
    text = _read_text(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        # config problems are argument-class errors (exit 2), not exit 1
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    _check_keys(path, raw, _CONFIG_KEYS, _REQUIRED_KEYS, "config", "required config")
    vary = raw["vary"]
    if not isinstance(vary, dict):
        raise ValueError(f"{path}: 'vary' must be an object with 'param' and 'values'")
    _check_keys(path, vary, _VARY_KEYS, _VARY_KEYS, "vary", "vary")
    kwargs = {key: value for key, value in raw.items() if key != "vary"}
    for name, key in _VARY_FIELDS.items():
        kwargs[name] = vary[key]
    return ExperimentConfig(**kwargs)


def cmd_solve(args):
    method = args.method
    soft = method in SOFT_METHODS
    given = {"--tau": args.tau, "--rank": args.rank}
    flag, other = ("--tau", "--rank") if soft else ("--rank", "--tau")
    if given[flag] is None:
        raise ValueError(f"{flag} is required for method {method}")
    if given[other] is not None:
        raise ValueError(f"{other} is not accepted for method {method}")
    param = given[flag]
    sigma = parse_matrix(args.input)

    # an overflowing scale is reported once, by the fit's finite check
    with np.errstate(over="ignore", invalid="ignore"):
        dec, trace = METHODS[method](sigma, param)

    # the last step's objective, psi and kept spectrum are the returned
    # pair's, since D = pdiag(sigma - L): no eigensolve needed here
    summary = {
        "method": method,
        "param": param,
        "p": sigma.shape[0],
        "objective": trace.objective[-1],
        "psi": trace.psi[-1],
        "rank_L": _numerical_rank(trace.kept),
        "heywood": heywood_check(dec),
        "converged": bool(dec.converged),
        "iterations": int(dec.iterations),
        "stop_reason": trace.stop_reason,
    }
    if soft:
        summary["fixed_point_residual"] = _refit_residual(sigma, dec, trace)
    # strict JSON, built before any file is written: a failure leaves no outputs
    summary_text = json.dumps(summary, indent=2, allow_nan=False) + "\n"

    write_matrix_csv(os.path.join(args.out, "L.csv"), dec.L)
    write_matrix_csv(os.path.join(args.out, "D.csv"), dec.D)
    with _create(os.path.join(args.out, "trace.csv")) as fh:
        fh.write("k,objective,fixed_point_residual,psi\n")
        rows = zip(trace.objective, trace.fixed_point_residual, trace.psi)
        for k, (obj, resid, psi) in enumerate(rows, start=1):
            fh.write(f"{k},{_fmt(obj)},{_fmt(resid)},{_fmt(psi)}\n")
    with _create(os.path.join(args.out, "summary.json")) as fh:
        fh.write(summary_text)

    if not dec.converged:
        print(
            f"warning: {method} did not converge in {dec.iterations} iterations",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_simulate(args):
    rows = run_experiment(load_config(args.config), jobs=args.jobs)
    with _create(args.out) as fh:
        fh.write(RESULTS_COMMENT + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for row in rows:
            if not args.timings:
                row = replace(row, wall_ms=0.0)
            values = zip(_RESULT_FIELDS, astuple(row))
            writer.writerow([_fmt(v) if f.type is float else v for f, v in values])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _read_results_csv(path):
    lines = [line for _, line in _data_lines(_read_text(path).splitlines(), "#")]
    if not lines:
        raise ParseError(f"{path}: missing header line")
    reader = csv.reader(lines)
    try:
        header, *records = reader
    except csv.Error as exc:
        raise ParseError(f"{path}: row {reader.line_num}: {exc}") from None
    if header != RESULTS_HEADER:
        raise ParseError(f"{path}: unexpected header {header!r}")
    # a header with no rows parses fine; emptiness is the caller's call
    rows = []
    for lineno, rec in enumerate(records, start=2):
        if len(rec) != len(RESULTS_HEADER):
            raise ParseError(f"{path}: row {lineno} has {len(rec)} fields")
        try:
            row = ResultRow(*(f.type(v) for f, v in zip(_RESULT_FIELDS, rec)))
            _as_real(row.value, "value")
            if not (math.isnan(row.sin_theta) or 0.0 <= row.sin_theta <= 1.0):
                raise ValueError(f"sin_theta must be NaN or in [0, 1], got {row.sin_theta!r}")
            rows.append(row)
        except ValueError as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
    return rows


def _series_from_rows(rows):
    by_method = {}
    for row in rows:
        if row.status != "ok" or not math.isfinite(row.sin_theta):
            continue
        by_method.setdefault(row.method, {}).setdefault(row.value, []).append(row.sin_theta)
    order = [m for m in METHOD_TAGS if m in by_method]
    order += [m for m in by_method if m not in METHOD_TAGS]
    return {
        m: sorted((v, float(np.mean(ys))) for v, ys in by_method[m].items()) for m in order
    }


def _render_svg(series, x_label, xmin, xmax):
    width, height = 720, 440
    ml, mr, mt, mb = 72, 168, 36, 58
    pw, ph = width - ml - mr, height - mt - mb
    ys = [y for pts in series.values() for _, y in pts]
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
    params = {row.param for row in rows}
    x_label = params.pop() if len(params) == 1 else "value"
    xs = [x for pts in series.values() for x, _ in pts]
    xmin, xmax = min(xs), max(xs)
    if xmin == xmax:
        xmin -= 0.5 if xmin == 0 else abs(xmin) * 0.5
        xmax += 0.5 if xmax == 0 else abs(xmax) * 0.5
    if not math.isfinite(xmax - xmin):
        span = f"[{min(xs):g}, {max(xs):g}]"
        raise ParseError(f"{args.input}: value range {span} overflows the x axis")
    svg = _render_svg(series, x_label, xmin, xmax)
    with _create(args.out) as fh:
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
    pm.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")
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


# the exit code of each error main reports in one line, the first match
_EXIT_CODES = [
    (ParseError, 1), (OSError, 1), (ValueError, 2), (EigenSolverError, 4), (_WorkerDied, 5)
]


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
