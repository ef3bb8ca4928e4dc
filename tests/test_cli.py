import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hetero_spectra.cli as cli
from hetero_spectra import (
    METHOD_TAGS,
    ModelParams,
    best_rank_r,
    check_orthonormal,
    gen_instance,
    numerical_rank_sym,
    objective_F,
    pca_baseline,
    pdiag,
    poffdiag,
    sin_theta,
    soft_threshold_psd,
    symmetrize,
)
from hetero_spectra import simlab, solvers
from hetero_spectra.solvers import METHODS
from hetero_spectra.cli import (
    ParseError,
    load_config,
    main,
    parse_matrix,
    write_matrix_csv,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def minimal_config(**overrides):
    cfg = {
        "n": 20,
        "p": 8,
        "r": 2,
        "vary": {"param": "omega", "values": [1.0]},
        "methods": ["svd"],
        "replicates": 1,
        "seed": 130,
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------- parse_matrix


def test_parse_csv_basic(tmp_path):
    path = write(tmp_path / "m.csv", "1,2\n2,3\n")
    got = parse_matrix(path)
    assert np.array_equal(got, np.array([[1.0, 2.0], [2.0, 3.0]]))


def test_parse_csv_skips_comment_lines(tmp_path):
    path = write(tmp_path / "m.csv", "# a comment\n1,2\n  # indented\n\n2,3\n")
    got = parse_matrix(path)
    assert np.array_equal(got, np.array([[1.0, 2.0], [2.0, 3.0]]))
    # error line numbers still count raw file lines
    path = write(tmp_path / "bad.csv", "# a comment\n1,2\nx,3\n")
    with pytest.raises(ParseError, match="line 3, column 1"):
        parse_matrix(path)


def test_parse_csv_rejects_nonsquare(tmp_path):
    path = write(tmp_path / "m.csv", "1,2,3\n4,5,6\n")
    with pytest.raises(ParseError, match="2x3"):
        parse_matrix(path)


def test_parse_csv_rejects_ragged(tmp_path):
    path = write(tmp_path / "m.csv", "1,2\n3\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix(path)


def test_parse_csv_rejects_bad_token(tmp_path):
    path = write(tmp_path / "m.csv", "1,2\nx,3\n")
    with pytest.raises(ParseError, match="line 2, column 1"):
        parse_matrix(path)


def test_parse_rejects_nonfinite(tmp_path):
    path = write(tmp_path / "m.csv", "1,nan\nnan,3\n")
    with pytest.raises(ParseError, match="non-finite"):
        parse_matrix(path)


def test_parse_missing_file(tmp_path):
    with pytest.raises(ParseError):
        parse_matrix(str(tmp_path / "missing.csv"))


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(131)
    a = rng.standard_normal((6, 6))
    m = symmetrize(a @ a.T) / 3.0
    path = tmp_path / "round.csv"
    write_matrix_csv(str(path), m)
    got = parse_matrix(str(path))
    # "%.17g" round-trips every finite double
    assert np.array_equal(got.view(np.uint64), m.view(np.uint64))


def _oracle_csv(m):
    return "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in m)


def test_write_matrix_csv_matches_per_element_format(tmp_path):
    m = np.array(
        [
            [-0.0, 5e-324, 1e308, 1.0 / 3.0],
            [0.0, 2.0, -7.0, 1e-300],
            [-1e308, 0.1, 123456789.0, -5e-324],
        ]
    )
    path = tmp_path / "m.csv"
    write_matrix_csv(str(path), m)
    expected = _oracle_csv(m)
    assert path.read_text(encoding="utf-8") == expected
    assert expected.startswith("-0,4.9406564584124654e-324,1e+308,0.33333333333333331\n")

    rng = np.random.default_rng(140)
    a = rng.standard_normal((300, 300))
    sym = a + a.T
    banded = np.triu(np.tril(sym[:9, :9], 2), -2)  # symmetric rows mixing zeros and nonzeros
    x = 0.1
    special = np.array(
        [
            [np.nan, np.inf, 5e-324, 0.0],
            [np.inf, -np.inf, -0.0, 1e-310],
            [5e-324, -0.0, 0.0, np.nan],
            [0.0, 1e-310, np.nan, 2.5],
        ]
    )
    cases = {
        "symmetric p=300": sym,
        "diagonal": np.diag(rng.standard_normal(40)) * (rng.random(40) < 0.8),
        "banded": banded,
        "general 7x5": rng.standard_normal((7, 5)),
        "0.0/-0.0 mirrored": np.array([[1.0, 0.0], [-0.0, 1.0]]),
        "one ulp apart": np.array([[1.0, x], [np.nextafter(x, 1.0), 1.0]]),
        "Fortran order": np.asfortranarray(sym[:30, :30]),
        "non-contiguous symmetric view": sym[::3, ::3],
        "non-contiguous general view": a[1::4, ::7],
        "transposed view": a[:6, :8].T,
        "nan, inf, subnormals": special,
        "all zero": np.zeros((3, 3)),
        "1x1": np.array([[-2.0]]),
    }
    for name, m in cases.items():
        write_matrix_csv(str(path), m)
        assert path.read_text(encoding="utf-8") == _oracle_csv(m), name


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_write_matrix_csv_rejects_non_2d(tmp_path, shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        write_matrix_csv(str(tmp_path / "m.csv"), np.ones(shape))
    assert not (tmp_path / "m.csv").exists()


def test_write_matrix_csv_makes_a_missing_directory(tmp_path):
    m = np.array([[1.0, 0.5], [0.5, 2.0]])
    path = tmp_path / "a" / "b" / "m.csv"
    write_matrix_csv(str(path), m)
    assert path.read_text(encoding="utf-8") == _oracle_csv(m)


def _spelled(x, k):
    """``x`` as one of three texts that all read back as the same float."""
    x = float(x)
    return [format(x, ".17g"), repr(x), format(x, ".17e")][k % 3]


def _count_floats(monkeypatch):
    """The token count of each later ``cli._floats`` call, in call order."""
    counts = []
    floats = cli._floats

    def counting(tokens, lines, path):
        counts.append(len(tokens))
        return floats(tokens, lines, path)

    monkeypatch.setattr(cli, "_floats", counting)
    return counts


def test_parse_csv_mirror_path_matches_full_path(tmp_path, monkeypatch):
    counts = _count_floats(monkeypatch)
    p = 6
    a = np.random.default_rng(141).standard_normal((p, p))
    m = a + a.T
    m[0, 1] = m[1, 0] = 1.0
    m[2, 3] = m[3, 2] = 0.0
    same = [[_spelled(m[i, j], min(i, j) + max(i, j)) for j in range(p)] for i in range(p)]
    mixed = [[_spelled(m[i, j], i) for j in range(p)] for i in range(p)]
    mixed[0][1], mixed[1][0] = "1", "1e0"
    mixed[2][3], mixed[3][2] = "0.0", "-0"  # -0.0 == 0.0: the full path keeps both bits
    # symmetric text converts each row from its diagonal, p(p+1)/2 tokens in
    # all; in the mixed file every row below the first has a respelled mirror
    for rows, per_row in ((same, list(range(p, 0, -1))), (mixed, [p] * p)):
        text = "# header\n" + "".join(",".join(r) + "\n" for r in rows)
        counts.clear()
        got = parse_matrix(write(tmp_path / "m.csv", text))
        assert counts == per_row
        want = np.array([[float(t) for t in r] for r in rows])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(got[3, 2]) and not np.signbit(got[2, 3])

    # a one-ulp mirror converts its row in full and takes the tiny-asymmetry warning
    x = m[4, 5]
    rows = [[format(v, ".17g") for v in r] for r in m]
    rows[5][4] = format(np.nextafter(x, np.inf), ".17g")
    text = "".join(",".join(r) + "\n" for r in rows)
    counts.clear()
    with pytest.warns(UserWarning, match="symmetrized input"):
        got = parse_matrix(write(tmp_path / "m.csv", text))
    assert counts == [6, 5, 4, 3, 2, 6]
    want = np.array([[float(t) for t in r] for r in rows])
    assert np.array_equal(got, symmetrize(want))


def test_parse_csv_respelled_row_converts_in_full(tmp_path, monkeypatch):
    counts = _count_floats(monkeypatch)
    p = 5
    rows = [[f"{min(i, j) + 0.5 * max(i, j):.1f}" for j in range(p)] for i in range(p)]
    rows[1][0] = rows[0][1] = "1.0"
    rows[3][1] = "1"  # the same value as rows[1][3], spelled differently
    rows[1][3] = "1.0"
    text = "".join(",".join(r) + "\n" for r in rows)
    got = parse_matrix(write(tmp_path / "m.csv", text))
    # row 3 converts all its tokens, the others only from their diagonal on
    assert counts == [5, 4, 3, 5, 1]
    want = np.array([[float(t) for t in r] for r in rows])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "bad",
    [
        [(0, 2), (2, 0)],  # mirrored in both triangles
        [(2, 0)],  # lower only
        [(0, 2)],  # upper only
        [(1, 1)],  # diagonal
        [(2, 1), (1, 2), (0, 2), (2, 0)],  # two mirrored pairs
        [(2, 0), (1, 2), (2, 1)],  # a lower token before a mirrored pair
    ],
)
def test_parse_csv_bad_token_first_in_file_order(tmp_path, bad):
    rows = [["1", "2", "3"], ["2", "4", "5"], ["3", "5", "6"]]
    for i, j in bad:
        rows[i][j] = "x"
    text = "# c\n" + "".join(",".join(r) + "\n" for r in rows)
    i, j = min(bad)
    with pytest.raises(ParseError, match=rf"line {i + 2}, column {j + 1}: 'x' is not a number"):
        parse_matrix(write(tmp_path / "m.csv", text))


def test_parse_asymmetric_rejected_names_pair(tmp_path):
    path = write(tmp_path / "m.csv", "1,1.001\n1,1\n")
    with pytest.raises(ParseError) as exc:
        parse_matrix(path)
    msg = str(exc.value)
    assert "a[0,1]" in msg and "a[1,0]" in msg
    assert "0.001" in msg


def test_parse_tiny_asymmetry_symmetrized_with_warning(tmp_path):
    path = write(tmp_path / "m.csv", "1,1.000000000000001\n1,1\n")
    with pytest.warns(UserWarning, match="symmetrized"):
        got = parse_matrix(path)
    assert np.array_equal(got, got.T)


def test_solve_one_ulp_asymmetry_at_large_scale_is_symmetrized(tmp_path):
    # the tolerance is relative to max|a|: near 6e5 one ulp is 1.16e-10
    x = 6e5 + 0.1
    y = float(np.nextafter(x, np.inf))
    inp = write(tmp_path / "m.csv", f"{x!r},{x!r}\n{y!r},{x!r}\n")
    out = tmp_path / "o"
    with pytest.warns(UserWarning, match="symmetrized input, max asymmetry 1.16e-10"):
        ret = main(["solve", "--input", inp, "--method", "rmtfa", "--tau", "0.5", "--out", str(out)])
    assert ret == 0 and (out / "L.csv").exists()


def test_solve_tiny_antisymmetric_matrix_is_rejected(tmp_path, capsys):
    # every off-diagonal entry is wrong at the matrix's own scale
    inp = write(tmp_path / "m.csv", "1e-12,5e-11\n-5e-11,1e-12\n")
    ret = main(["solve", "--input", inp, "--method", "rmtfa", "--tau", "1e-12", "--out", str(tmp_path / "o")])
    assert ret == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"error: {inp}: not symmetric, |a[0,1] - a[1,0]| = 1e-10 exceeds 1e-10 * max|a| = 5e-21"
    ]
    assert not (tmp_path / "o").exists()


def test_parse_matrix_market_general(tmp_path):
    text = "%%MatrixMarket matrix array real general\n% comment\n2 2\n1\n3\n3\n2\n"
    path = write(tmp_path / "m.mtx", text)
    got = parse_matrix(path)
    assert np.array_equal(got, np.array([[1.0, 3.0], [3.0, 2.0]]))


def test_parse_matrix_market_symmetric(tmp_path):
    # lower triangle, column major
    text = "%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n3\n5\n6\n9\n"
    path = write(tmp_path / "m.mtx", text)
    got = parse_matrix(path)
    want = np.array([[1.0, 2.0, 3.0], [2.0, 5.0, 6.0], [3.0, 6.0, 9.0]])
    assert np.array_equal(got, want)


def test_parse_matrix_market_banner_after_blank_lines(tmp_path):
    text = "\n  \n%%MatrixMarket matrix array real symmetric\n2 2\n1\n3\n2\n"
    got = parse_matrix(write(tmp_path / "m.mtx", text))
    assert np.array_equal(got, np.array([[1.0, 3.0], [3.0, 2.0]]))
    # messages keep the file's own line numbers
    bad = write(tmp_path / "b.mtx", "\n%%MatrixMarket matrix coordinate real general\n2 2\n")
    with pytest.raises(ParseError, match="line 2: only 'matrix array' files are supported"):
        parse_matrix(bad)
    bad = write(tmp_path / "c.mtx", "\n\n" + text.lstrip().replace("\n3\n", "\nx\n"))
    with pytest.raises(ParseError, match="line 6, column 1: 'x' is not a number"):
        parse_matrix(bad)


def test_parse_matrix_market_errors(tmp_path):
    bad_header = write(tmp_path / "a.mtx", "%%MatrixMarket matrix coordinate real general\n2 2\n")
    with pytest.raises(ParseError):
        parse_matrix(bad_header)
    short = write(tmp_path / "b.mtx", "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")
    with pytest.raises(ParseError, match="expected 4 entries"):
        parse_matrix(short)


@pytest.mark.parametrize("symmetry", ["general", "symmetric"])
def test_parse_matrix_market_fill_against_loops(tmp_path, symmetry):
    p = 7
    a = np.random.default_rng(139).standard_normal((p, p))
    m = symmetrize(a + a.T)
    # column major; the symmetric form lists the lower triangle, diagonal included
    entries = [(i, j) for j in range(p) for i in range(j if symmetry == "symmetric" else 0, p)]
    tokens = [format(m[i, j], ".17g") for i, j in entries]
    # two entries on some lines: any whitespace layout is accepted
    body = [" ".join(tokens[k : k + 2]) for k in range(0, 6, 2)] + tokens[6:]
    lines = [f"%%MatrixMarket matrix array real {symmetry}", f"{p} {p}", *body]
    path = write(tmp_path / "m.mtx", "\n".join(lines) + "\n")
    want = np.full((p, p), np.nan)
    values = iter(float(tok) for tok in tokens)
    for j in range(p):
        for i in range(j if symmetry == "symmetric" else 0, p):
            want[i, j] = next(values)
            if symmetry == "symmetric":
                want[j, i] = want[i, j]
    got = parse_matrix(path)
    assert np.array_equal(got, want) and np.array_equal(got, m)
    assert got.flags.c_contiguous


def test_parse_matrix_market_bad_token_names_line_and_column(tmp_path):
    text = "%%MatrixMarket matrix array real general\n% c\n2 2\n1 3\n3 x\n"
    path = write(tmp_path / "m.mtx", text)
    with pytest.raises(ParseError, match=r"line 5, column 2: 'x' is not a number"):
        parse_matrix(path)


def test_matrix_market_round_trip_against_csv(tmp_path):
    rng = np.random.default_rng(132)
    a = rng.standard_normal((4, 4))
    m = symmetrize(a @ a.T)
    lines = ["%%MatrixMarket matrix array real general", "4 4"]
    for j in range(4):
        for i in range(4):
            lines.append(format(m[i, j], ".17g"))
    path = write(tmp_path / "m.mtx", "\n".join(lines) + "\n")
    got = parse_matrix(path)
    assert np.array_equal(got, m)


# ---------------------------------------------------------------- load_config


def test_load_config_valid(tmp_path):
    path = write(tmp_path / "cfg.json", json.dumps(minimal_config()))
    cfg = load_config(path)
    assert cfg.n == 20 and cfg.p == 8 and cfg.r == 2
    assert cfg.vary_param == "omega"
    assert cfg.vary_values == (1.0,)
    assert cfg.methods == ("svd",)


def test_load_config_rejects_unknown_field(tmp_path):
    path = write(tmp_path / "cfg.json", json.dumps(minimal_config(extra=1)))
    with pytest.raises(ValueError, match="unknown config fields: extra"):
        load_config(path)


def test_load_config_rejects_unknown_vary_field(tmp_path):
    cfg = minimal_config()
    cfg["vary"]["step"] = 2
    path = write(tmp_path / "cfg.json", json.dumps(cfg))
    with pytest.raises(ValueError, match="unknown vary fields"):
        load_config(path)


def test_load_config_missing_required(tmp_path):
    cfg = minimal_config()
    del cfg["vary"]
    path = write(tmp_path / "cfg.json", json.dumps(cfg))
    with pytest.raises(ValueError, match="vary"):
        load_config(path)


def test_missing_vary_field_is_named_the_same_under_any_hash_seed(tmp_path):
    # 0 and 2 are hash seeds under which a set of the two vary keys iterates
    # in different orders
    path = write(tmp_path / "c.json", json.dumps(minimal_config(vary={})))
    src = str(Path(cli.__file__).resolve().parents[1])
    errors = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        argv = ["simulate", "--config", path, "--out", str(tmp_path / "r.csv")]
        cmd = [sys.executable, "-m", "hetero_spectra.cli", *argv]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        errors.append([ln for ln in done.stderr.splitlines() if ln.startswith("error:")])
    assert errors[0] == errors[1] == [f"error: {path}: missing vary field 'param'"]


def test_load_config_bad_json(tmp_path):
    path = write(tmp_path / "cfg.json", "{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_config(path)


# ---------------------------------------------------------------- solve


def test_solve_diagonal_rmtfa(tmp_path):
    inp = write(tmp_path / "m.csv", "2,0,0\n0,3,0\n0,0,4\n")
    out = tmp_path / "out"
    ret = main(["solve", "--input", inp, "--method", "rmtfa", "--tau", "0.5", "--out", str(out)])
    assert ret == 0
    L = parse_matrix(str(out / "L.csv"))
    D = parse_matrix(str(out / "D.csv"))
    assert np.array_equal(L, np.zeros((3, 3)))
    assert np.array_equal(D, np.diag([2.0, 3.0, 4.0]))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["heywood"] is False
    assert summary["converged"] is True
    assert summary["rank_L"] == 0
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "k,objective,fixed_point_residual,psi"
    assert len(trace_lines) >= 2


def test_solve_generated_instance_certificate(tmp_path):
    # normalized so the relative stop rule certifies an absolute residual
    inst = gen_instance(ModelParams(n=200, p=50, r=5, kappa=3.0, omega=1.0, seed=133))
    scale = 1.0 / float(np.max(np.abs(inst.sigma)))
    tau = inst.params.sigma_r() ** 2 / 16.0 * scale
    inp = tmp_path / "sigma.csv"
    write_matrix_csv(str(inp), inst.sigma * scale)
    out = tmp_path / "out"
    ret = main(
        ["solve", "--input", str(inp), "--method", "rmtfa", "--tau", str(tau), "--out", str(out)]
    )
    assert ret == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fixed_point_residual"] < 1e-8
    assert summary["converged"] is True


def _crossover_solve(tmp_path, monkeypatch):
    """``(sigma, tau, argv, traces)``: an rmtfa solve above the partial-spectrum crossover.

    The input is the solve-p500 benchmark input at p = 160. ``traces``
    collects the fit's trace once ``main(argv)`` has run.
    """
    p = 160
    rng = np.random.default_rng([65, 500])
    x = rng.standard_normal((2 * p, 5)) @ rng.standard_normal((p, 5)).T
    x += rng.standard_normal((2 * p, p)) * np.sqrt(rng.uniform(0.5, 1.5, p))
    sigma = symmetrize(x.T @ x / (2 * p))
    tau = 0.02 * float(np.linalg.eigvalsh(poffdiag(sigma))[-1])
    inp = tmp_path / "sigma.csv"
    write_matrix_csv(str(inp), sigma)
    traces = []
    real = METHODS["rmtfa"]

    def spy(sigma, tau):
        dec, trace = real(sigma, tau)
        traces.append(trace)
        return dec, trace

    monkeypatch.setitem(METHODS, "rmtfa", spy)
    out = tmp_path / "out"
    argv = ["solve", "--input", str(inp), "--method", "rmtfa", "--tau", repr(tau), "--out", str(out)]
    return sigma, tau, argv, traces


def test_solve_rmtfa_above_partial_spectrum_crossover(tmp_path, monkeypatch):
    sigma, tau, argv, traces = _crossover_solve(tmp_path, monkeypatch)
    out = tmp_path / "out"
    assert main(argv) == 0
    assert traces[0].partial_accepted > 0
    summary = json.loads((out / "summary.json").read_text())
    L = parse_matrix(str(out / "L.csv"))
    D = parse_matrix(str(out / "D.csv"))
    assert summary["objective"] == pytest.approx(objective_F(sigma, L, D, tau), rel=1e-10)
    assert summary["rank_L"] == numerical_rank_sym(L) == 5
    assert summary["fixed_point_residual"] < 1e-8
    assert summary["stop_reason"] == "converged" and summary["converged"] is True


def _read_trace_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "k,objective,fixed_point_residual,psi"
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_solve_every_method(tmp_path, monkeypatch, method):
    commands = next(a for a in cli._build_parser()._actions if a.dest == "command")
    choices = next(a.choices for a in commands.choices["solve"]._actions if a.dest == "method")
    assert tuple(METHODS) == METHOD_TAGS == tuple(choices)

    rng = np.random.default_rng(134)
    a = rng.standard_normal((6, 6))
    inp = tmp_path / "m.csv"
    write_matrix_csv(str(inp), symmetrize(a @ a.T))
    sigma = parse_matrix(str(inp))
    fits = []
    real = METHODS[method]

    def spy(sigma, param):
        fits.append(real(sigma, param))
        return fits[-1]

    monkeypatch.setitem(METHODS, method, spy)
    out = tmp_path / "out"
    flag = ["--tau", "1.0"] if method in ("rmtfa", "si") else ["--rank", "2"]
    assert main(["solve", "--input", str(inp), "--method", method, *flag, "--out", str(out)]) == 0
    (dec, trace), = fits

    rows = _read_trace_csv(out / "trace.csv")
    assert rows == [
        (k, *row)
        for k, row in enumerate(zip(trace.objective, trace.fixed_point_residual, trace.psi), 1)
    ]
    L = parse_matrix(str(out / "L.csv"))
    D = parse_matrix(str(out / "D.csv"))
    assert np.array_equal(L, dec.L) and np.array_equal(L, L.T)
    assert np.array_equal(D, pdiag(sigma - L))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["objective"] == trace.objective[-1]
    assert summary["psi"] == float(np.sum((sigma - L - D) ** 2))
    assert summary["iterations"] == trace.iterations == len(rows) == dec.iterations
    assert summary["stop_reason"] in ("converged", "fixed_point", "max_iter")
    assert summary["stop_reason"] == trace.stop_reason
    assert summary["converged"] is True and summary["method"] == dec.method == method
    if method in ("svd", "dd"):
        # one step from L_0 = 0
        assert rows[0][2] == pytest.approx(float(np.linalg.norm(L)), rel=1e-14)
    if method in ("rmtfa", "si"):
        assert summary["fixed_point_residual"] < 1e-8
    else:
        assert summary["rank_L"] <= 2
        assert np.linalg.matrix_rank(L, tol=1e-8) <= 2


def test_solve_svd_is_best_rank_r_in_solve_and_simulate(tmp_path, monkeypatch):
    # a dominant negative eigenvalue: the top eigenvalue by magnitude is not
    # the top signed one, so best_rank_r and pca_baseline part ways here
    u = np.linalg.qr(np.random.default_rng(135).standard_normal((6, 6)))[0]
    sigma = symmetrize((u * np.array([-9.0, 4.0, 2.0, 1.0, 0.5, 0.25])) @ u.T)
    inp = tmp_path / "m.csv"
    write_matrix_csv(str(inp), sigma)
    sigma = parse_matrix(str(inp))
    out = tmp_path / "out"
    assert main(["solve", "--input", str(inp), "--method", "svd", "--rank", "1", "--out", str(out)]) == 0
    L_solve = parse_matrix(str(out / "L.csv"))
    assert np.array_equal(L_solve, best_rank_r(sigma, 1))
    assert sin_theta(pca_baseline(sigma, 1), u[:, :1]) > 0.99

    # simulate's svd fit (simlab._fit_basis) fits the same L
    fitted = []
    real = simlab.extract_subspace

    def spy(x, r):
        fitted.append(x.L)
        return real(x, r)

    monkeypatch.setattr(simlab, "extract_subspace", spy)
    inst = gen_instance(ModelParams(n=20, p=6, r=1, seed=0))
    simlab._fit_basis("svd", replace(inst, sigma=sigma), 1.0)
    assert np.array_equal(fitted[0], L_solve)


@pytest.mark.parametrize("out", ["fit", ""], ids=["named", "working-directory"])
def test_solve_rerun_into_the_same_directory_gives_the_same_bytes(tmp_path, monkeypatch, out):
    inp = write(tmp_path / "m.csv", "3,1,0.5\n1,2,0.25\n0.5,0.25,1\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = ["solve", "--input", inp, "--method", "rmtfa", "--tau", "0.5", "--out", out]
    names = ["L.csv", "D.csv", "trace.csv", "summary.json"]
    assert main(argv) == 0
    first = [(work / out / name).read_bytes() for name in names]
    assert main(argv) == 0
    assert [(work / out / name).read_bytes() for name in names] == first


def test_solve_flag_validation(tmp_path):
    inp = write(tmp_path / "m.csv", "1,0\n0,1\n")
    out = str(tmp_path / "out")
    assert main(["solve", "--input", inp, "--method", "rmtfa", "--out", out]) == 2
    assert main(["solve", "--input", inp, "--method", "rmtfa", "--tau", "1", "--rank", "2", "--out", out]) == 2
    assert main(["solve", "--input", inp, "--method", "hpca", "--out", out]) == 2
    assert main(["solve", "--input", inp, "--method", "hpca", "--tau", "1", "--out", out]) == 2


def test_solve_asymmetric_exit_code(tmp_path, capsys):
    inp = write(tmp_path / "m.csv", "1,1.001\n1,1\n")
    ret = main(["solve", "--input", inp, "--method", "rmtfa", "--tau", "0.5", "--out", str(tmp_path / "o")])
    assert ret == 1
    err = capsys.readouterr().err
    assert "a[0,1]" in err and "a[1,0]" in err


def test_solve_nonconvergence_exit_code(tmp_path, monkeypatch, capsys):
    real = METHODS["rmtfa"]

    def stubborn(sigma, tau):
        dec, trace = real(sigma, tau)
        return replace(dec, converged=False), trace

    monkeypatch.setitem(METHODS, "rmtfa", stubborn)
    inp = write(tmp_path / "m.csv", "2,1\n1,2\n")
    out = tmp_path / "out"
    ret = main(["solve", "--input", inp, "--method", "rmtfa", "--tau", "0.5", "--out", str(out)])
    assert ret == 3
    # outputs are still written
    assert (out / "L.csv").exists()
    assert (out / "summary.json").exists()
    assert json.loads((out / "summary.json").read_text())["converged"] is False
    assert "did not converge" in capsys.readouterr().err


def _run_module(argv):
    """``python -m hetero_spectra`` in a fresh interpreter on this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "hetero_spectra", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def _scaled_desk_input(tmp_path, scale):
    inst = gen_instance(ModelParams(n=40, p=8, r=2, seed=0))
    inp = tmp_path / "sigma.csv"
    write_matrix_csv(str(inp), inst.sigma * scale)
    return str(inp), repr(inst.params.sigma_r() ** 2 / 16.0 * scale)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _assert_overflow_exits_2(tmp_path, method, op):
    # entries near 1e162 overflow the first round's norms, which would make
    # the tolerance infinite and write Infinity into summary.json; the
    # overflow is reported once, with no numpy warnings before it
    inp, tau = _scaled_desk_input(tmp_path, 1e160)
    out = tmp_path / "out"
    flag = ["--tau", tau] if method == "rmtfa" else ["--rank", "2"]
    done = _run_module(["solve", "--input", inp, "--method", method, *flag, "--out", str(out)])
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"error: {op}: round 1 objective or residual is not finite; "
        "the input's scale overflows the fit"
    ]
    assert not out.exists()


def test_solve_overflowing_scale_exits_2_without_outputs(tmp_path):
    _assert_overflow_exits_2(tmp_path, "rmtfa", "alternating_solve")


def test_solve_overflowing_scale_names_the_rank_fit(tmp_path):
    _assert_overflow_exits_2(tmp_path, "hpca", "hpca")


def test_solve_large_finite_scale_writes_strict_json(tmp_path):
    inp, tau = _scaled_desk_input(tmp_path, 1e100)
    out = tmp_path / "out"
    assert main(["solve", "--input", inp, "--method", "rmtfa", "--tau", tau, "--out", str(out)]) == 0
    summary = _strict_json((out / "summary.json").read_text())
    assert summary["converged"] is True and summary["stop_reason"] == "converged"
    assert all(math.isfinite(x) for row in _read_trace_csv(out / "trace.csv") for x in row)


def test_solve_eigensolver_failure_exit_4(tmp_path, monkeypatch, capsys):
    def failing(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    inp = write(tmp_path / "m.csv", "2,1\n1,2\n")
    out = tmp_path / "out"
    ret = main(["solve", "--input", inp, "--method", "rmtfa", "--tau", "0.5", "--out", str(out)])
    assert ret == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: eig_sym: solver did not converge")
    assert not out.exists()


def test_solve_dhpca_stage_eigensolver_failure_exit_4(tmp_path, monkeypatch, capsys):
    def failing(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    inp = write(tmp_path / "m.csv", "2,1\n1,2\n")
    out = tmp_path / "out"
    ret = main(["solve", "--input", inp, "--method", "dhpca", "--rank", "1", "--out", str(out)])
    assert ret == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: deflated_heteropca: solver did not converge")
    assert not out.exists()


@pytest.mark.parametrize("call", ["eigh", "qr"])
def test_solve_partial_step_lapack_failure_falls_back(tmp_path, monkeypatch, call):
    # a failed Ritz eigh or qr leaves the round to the full eigensolve
    sigma, _, argv, traces = _crossover_solve(tmp_path, monkeypatch)
    real = getattr(np.linalg, call)
    failures = []

    def failing(m, *args, **kwargs):
        if call == "qr" or m.shape[0] < sigma.shape[0]:  # the full eigh is p x p
            failures.append(m.shape)
            raise np.linalg.LinAlgError("synthetic LAPACK failure")
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, call, failing)
    assert main(argv) == 0
    assert failures and traces[0].partial_fallbacks > 0
    if call == "eigh":  # every partial step fails before its first test
        assert traces[0].partial_accepted == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["fixed_point_residual"] < 1e-8
    assert summary["stop_reason"] == "converged" and summary["converged"] is True


@pytest.mark.parametrize("case", ["p160", "sample_cov_p300"])
def test_large_p_solve_makes_one_full_eigensolve(tmp_path, monkeypatch, case):
    # round 1 starts from a seeded block, an eigenvalue bound carried over
    # the rounds certifies most partial steps, and the summary check starts
    # from the fit's last basis: the one p x p eigh is the last round's
    from test_solvers import factor_sample_cov

    sigma, tau, argv, traces = _crossover_solve(tmp_path, monkeypatch)
    if case == "sample_cov_p300":
        sigma, tau = factor_sample_cov(61, 300)
        write_matrix_csv(argv[2], sigma)
        argv[6] = repr(tau)
    p = sigma.shape[0]
    counts = {"eigh": 0, "cholesky": 0}
    for name in counts:

        def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += _name == "cholesky" or a.shape[0] == p
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert main(argv) == 0
    assert counts["eigh"] == 1 and counts["cholesky"] <= 3
    # every round took a partial step, round 1's included
    trace = traces[0]
    assert trace.partial_accepted == trace.iterations and trace.partial_fallbacks == 0
    # the summary's residual is within the partial step's margin of the full operator's
    L = parse_matrix(str(tmp_path / "out" / "L.csv"))
    m = sigma - parse_matrix(str(tmp_path / "out" / "D.csv"))
    full = np.linalg.norm(L - soft_threshold_psd(m, tau))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["fixed_point_residual"] - full) <= math.sqrt(2) * 1e-13 * np.linalg.norm(m)


def test_every_handed_out_block_is_orthonormal_with_a_reference(tmp_path, monkeypatch):
    # a partial step orthonormalizes only a block without a reference (round
    # 1's Gaussian block), so every block a step hands out, over the fit and
    # the summary check, must carry one and be orthonormal
    from test_solvers import factor_sample_cov

    _, _, argv, traces = _crossover_solve(tmp_path, monkeypatch)
    sigma, tau = factor_sample_cov(61, 300)
    write_matrix_csv(argv[2], sigma)
    argv[6] = repr(tau)
    real = solvers._prox_with_spectrum
    bases = []

    def spy(spec, m, basis=None):
        out = real(spec, m, basis)
        bases.append(out[2].basis)
        return out

    monkeypatch.setattr(solvers, "_prox_with_spectrum", spy)
    assert main(argv) == 0
    # each round, the last round's re-certification and the summary check
    trace = traces[0]
    assert len(bases) == trace.iterations + 2 and trace.partial_accepted > 0
    for basis in bases:
        if basis is not None:
            assert basis.ref is not None
            check_orthonormal(basis.vecs, tol=1e-12)


def test_python_m_hetero_spectra_runs_the_cli():
    done = _run_module(["--help"])
    assert done.returncode == 0
    assert done.stdout.startswith("usage: hetero-spectra")


# ---------------------------------------------------------------- simulate


def test_simulate_minimal(tmp_path):
    cfg = write(tmp_path / "cfg.json", json.dumps(minimal_config()))
    out = tmp_path / "rows.csv"
    ret = main(["simulate", "--config", cfg, "--out", str(out)])
    assert ret == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# hetero-spectra results v1"
    assert lines[1] == "method,param,value,replicate,sin_theta,wall_ms,status"
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert fields[0] == "svd" and fields[1] == "omega"
    assert 0.0 <= float(fields[4]) <= 1.0
    assert fields[6] == "ok"


def test_simulate_cardinality(tmp_path):
    cfg = write(
        tmp_path / "cfg.json",
        json.dumps(
            minimal_config(
                methods=["svd", "hpca", "rmtfa"],
                vary={"param": "kappa", "values": [1.0, 2.0, 4.0]},
                replicates=2,
            )
        ),
    )
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 3 * 3 * 2


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = write(
        tmp_path / "cfg.json",
        json.dumps(minimal_config(methods=["svd", "rmtfa"], replicates=2)),
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_seed_and_replicates_come_from_the_config(tmp_path):
    rows = {}
    for name, overrides in [("base", {}), ("reseeded", {"seed": 999}), ("more", {"replicates": 3})]:
        cfg = write(tmp_path / f"{name}.json", json.dumps(minimal_config(**overrides)))
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows[name] = out.read_text().splitlines()[2:]
    assert len(rows["base"]) == 1 and rows["reseeded"] != rows["base"]
    assert len(rows["more"]) == 3 and rows["more"][0] == rows["base"][0]


@pytest.mark.parametrize("flag", ["--seed", "--replicates"])
def test_simulate_has_no_seed_or_replicates_flag(tmp_path, capsys, flag):
    cfg = write(tmp_path / "cfg.json", json.dumps(minimal_config()))
    out = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--out", str(out), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_timings_flag(tmp_path):
    cfg = write(tmp_path / "cfg.json", json.dumps(minimal_config(methods=["rmtfa"])))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--timings"]) == 0
    wall = float(out.read_text().splitlines()[2].split(",")[5])
    assert wall > 0.0


def test_simulate_jobs_match_serial(tmp_path, monkeypatch):
    # one BLAS thread, so the worker cap leaves room for a pool on two CPUs
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    cfg = write(
        tmp_path / "cfg.json",
        json.dumps(minimal_config(methods=["svd", "dd"], replicates=3)),
    )
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    assert main(["simulate", "--config", cfg, "--out", str(serial)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(pooled), "--jobs", "3"]) == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_simulate_dead_worker_exits_5(tmp_path, monkeypatch, capsys, deadline):
    # one BLAS thread on two CPUs: a pool of two worker processes
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real = simlab._run_cell

    def dying(config, value, replicate):
        if replicate == 1:
            os._exit(1)
        return real(config, value, replicate)

    monkeypatch.setattr(simlab, "_run_cell", dying)
    cfg = write(tmp_path / "cfg.json", json.dumps(minimal_config(replicates=3)))
    out = tmp_path / "rows.csv"
    with deadline(5):
        ret = main(["simulate", "--config", cfg, "--out", str(out), "--jobs", "2"])
    assert ret == 5
    assert capsys.readouterr().err.splitlines() == [
        "error: run_experiment: a worker process died before its cell finished"
    ]
    assert not out.exists()


def test_simulate_jobs_below_one_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", json.dumps(minimal_config()))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--jobs", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: run_experiment: jobs must be an integer >= 1, got 0"
    ]
    assert not out.exists()


def test_simulate_invalid_config_exit_codes(tmp_path, capsys):
    bad_field = write(tmp_path / "a.json", json.dumps(minimal_config(bogus=1)))
    assert main(["simulate", "--config", bad_field, "--out", str(tmp_path / "o.csv")]) == 2
    bad_value = write(tmp_path / "b.json", json.dumps(minimal_config(r=100)))
    assert main(["simulate", "--config", bad_value, "--out", str(tmp_path / "o.csv")]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["simulate", "--config", missing, "--out", str(tmp_path / "o.csv")]) == 1
    capsys.readouterr()


_INF = float("inf")


@pytest.mark.parametrize(
    "overrides",
    [
        {"replicates": _INF},
        {"replicates": None},
        {"replicates": [5]},
        {"seed": None},
        {"seed": _INF},
        {"n": None},
        {"omega": None, "vary": {"param": "kappa", "values": [1.0]}},
        {"tau_rule": None},
        {"tau_rule": [1]},
        {"vary": {"param": "omega", "values": [None]}},
        {"vary": {"param": "n", "values": [_INF]}},
        # the varied field's base value, which the sweep replaces
        {"omega": None},
        {"kappa": "3", "vary": {"param": "kappa", "values": [3.0]}},
        {"n": _INF, "vary": {"param": "n", "values": [20]}},
    ],
    ids=lambda o: json.dumps(o),
)
def test_simulate_malformed_config_value_exit_2(tmp_path, capsys, overrides):
    # json.dumps writes inf as Infinity, which json.loads reads back
    cfg = write(tmp_path / "cfg.json", json.dumps(minimal_config(**overrides)))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_read_results_csv_returns_run_experiment_rows(tmp_path):
    config = minimal_config(methods=["svd", "rmtfa"], replicates=2)
    cfg = write(tmp_path / "cfg.json", json.dumps(config))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    want = [replace(row, wall_ms=0.0) for row in simlab.run_experiment(load_config(cfg))]
    assert cli._read_results_csv(str(out)) == want


BOM = "\ufeff"  # what spreadsheet tools write first in a "CSV UTF-8" file


def test_bom_csv_matrix(tmp_path):
    path = write(tmp_path / "m.csv", BOM + "1,2\n2,3\n")
    assert np.array_equal(parse_matrix(path), np.array([[1.0, 2.0], [2.0, 3.0]]))


def test_bom_matrix_market(tmp_path):
    text = BOM + "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n"
    path = write(tmp_path / "m.mtx", text)
    assert np.array_equal(parse_matrix(path), np.array([[1.0, 2.0], [2.0, 3.0]]))


def test_bom_simulate_config(tmp_path):
    plain = load_config(write(tmp_path / "plain.json", json.dumps(minimal_config())))
    cfg = write(tmp_path / "cfg.json", BOM + json.dumps(minimal_config()))
    assert load_config(cfg) == plain
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "rows.csv")]) == 0


def test_bom_results_csv(tmp_path):
    cfg = write(tmp_path / "cfg.json", json.dumps(minimal_config()))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    want = cli._read_results_csv(str(out))
    bom = write(tmp_path / "bom.csv", BOM + out.read_text(encoding="utf-8"))
    assert cli._read_results_csv(bom) == want


# ---------------------------------------------------------------- plot


def run_small_sweep(tmp_path, methods, values, replicates=2, seed=135):
    cfg = write(
        tmp_path / "cfg.json",
        json.dumps(
            minimal_config(
                methods=list(methods),
                vary={"param": "omega", "values": list(values)},
                replicates=replicates,
                seed=seed,
            )
        ),
    )
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out


def svg_root(path):
    return ET.fromstring(path.read_text(encoding="utf-8"))


def test_plot_single_method_structure(tmp_path):
    rows = run_small_sweep(tmp_path, ["svd"], [0.5, 1.0])
    out = tmp_path / "fig.svg"
    assert main(["plot", "--input", str(rows), "--out", str(out)]) == 0
    root = svg_root(out)
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 1
    assert len(polylines[0].attrib["points"].split()) == 2
    circles = root.findall(f".//{SVG_NS}circle")
    assert len(circles) == 2


def test_plot_seven_method_legend(tmp_path):
    rows = run_small_sweep(
        tmp_path,
        ["svd", "dd", "hpca", "dhpca", "hpca_plus", "rmtfa", "si"],
        [1.0],
        replicates=1,
        seed=136,
    )
    out = tmp_path / "fig.svg"
    assert main(["plot", "--input", str(rows), "--out", str(out)]) == 0
    root = svg_root(out)
    assert len(root.findall(f".//{SVG_NS}polyline")) == 7
    texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
    for label in ("SVD", "DD", "HPCA", "DHPCA", "HPCA+", "rMTFA", "SI"):
        assert texts.count(label) == 1


def test_plot_metadata_means_match_recomputation(tmp_path):
    rows_path = run_small_sweep(tmp_path, ["svd", "rmtfa"], [0.5, 1.0], replicates=3, seed=137)
    out = tmp_path / "fig.svg"
    assert main(["plot", "--input", str(rows_path), "--out", str(out)]) == 0
    root = svg_root(out)
    meta = root.find(f".//{SVG_NS}metadata")
    series = json.loads(meta.text)["series"]

    want = {}
    for line in rows_path.read_text().splitlines()[2:]:
        method, _, value, _, sin_t, _, status = line.split(",")
        assert status == "ok"
        want.setdefault(method, {}).setdefault(float(value), []).append(float(sin_t))
    for method, by_value in want.items():
        got = dict((x, y) for x, y in series[method])
        for value, ys in by_value.items():
            assert got[value] == pytest.approx(sum(ys) / len(ys), abs=1e-12)


def test_plot_deterministic(tmp_path):
    rows = run_small_sweep(tmp_path, ["svd"], [0.5, 1.0], seed=138)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["plot", "--input", str(rows), "--out", str(a)]) == 0
    assert main(["plot", "--input", str(rows), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_malformed_csv(tmp_path, capsys):
    bad = write(tmp_path / "bad.csv", "method,oops\nsvd,1\n")
    assert main(["plot", "--input", bad, "--out", str(tmp_path / "fig.svg")]) == 1
    missing = str(tmp_path / "missing.csv")
    assert main(["plot", "--input", missing, "--out", str(tmp_path / "fig.svg")]) == 1
    capsys.readouterr()


def test_plot_empty_data(tmp_path, capsys):
    header_only = write(
        tmp_path / "empty.csv",
        "# hetero-spectra results v1\nmethod,param,value,replicate,sin_theta,wall_ms,status\n",
    )
    assert main(["plot", "--input", header_only, "--out", str(tmp_path / "fig.svg")]) == 2
    all_failed = write(
        tmp_path / "failed.csv",
        "# hetero-spectra results v1\n"
        "method,param,value,replicate,sin_theta,wall_ms,status\n"
        "svd,omega,1,0,nan,0,error: boom\n",
    )
    assert main(["plot", "--input", all_failed, "--out", str(tmp_path / "fig.svg")]) == 2
    capsys.readouterr()


def test_plot_escapes_markup_in_method_tags(tmp_path):
    rows = write(
        tmp_path / "rows.csv",
        "# hetero-spectra results v1\n"
        "method,param,value,replicate,sin_theta,wall_ms,status\n"
        "x&<y>,omega,1,0,0.25,0,ok\n",
    )
    out = tmp_path / "fig.svg"
    assert main(["plot", "--input", rows, "--out", str(out)]) == 0
    assert "x&amp;&lt;y&gt;" in out.read_text(encoding="utf-8")
    root = svg_root(out)
    assert "x&<y>" in [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert "x&<y>" in json.loads(root.find(f".//{SVG_NS}metadata").text)["series"]


def test_escape_matches_saxutils():
    from xml.sax.saxutils import escape

    for s in ["", "plain", "x&<y>", "&amp;", "<<&>>", "a > b & c < d", '"quoted" \'x\'', "&gt;<"]:
        assert cli.escape(s) == escape(s)


def test_plot_skips_failed_rows(tmp_path):
    mixed = write(
        tmp_path / "mixed.csv",
        "# hetero-spectra results v1\n"
        "method,param,value,replicate,sin_theta,wall_ms,status\n"
        "svd,omega,1,0,0.25,0,ok\n"
        "svd,omega,1,1,nan,0,error: boom\n"
        "svd,omega,2,0,0.5,0,ok\n",
    )
    out = tmp_path / "fig.svg"
    assert main(["plot", "--input", mixed, "--out", str(out)]) == 0
    meta = svg_root(out).find(f".//{SVG_NS}metadata")
    series = json.loads(meta.text)["series"]
    assert series["svd"] == [[1.0, 0.25], [2.0, 0.5]]


# ---------------------------------------------------------------- bad inputs

_MM = "%%MatrixMarket matrix array real "
_RESULTS_HEAD = "# hetero-spectra results v1\nmethod,param,value,replicate,sin_theta,wall_ms,status\n"
# each command ends in the flag that takes the file
_SOLVE = ["solve", "--method", "rmtfa", "--tau", "1", "--input"]
_SIMULATE = ["simulate", "--config"]
_PLOT = ["plot", "--input"]

# (command, file text, exit code, message after "error: <file>: ");
# exit 1 for an unreadable file, 2 for a bad config value
_BAD_INPUTS = {
    "csv-no-data-rows": (_SOLVE, "# only a comment\n\n", 1, "no data rows"),
    "csv-wide": (_SOLVE, "1,2,3\n2,4,5\n", 1, "matrix is 2x3, expected square"),
    "csv-tall": (_SOLVE, "1,2\n2,4\n3,5\n", 1, "matrix is 3x2, expected square"),
    "mm-short-banner": (_SOLVE, _MM + "\n1 1\n1\n", 1, "line 1: malformed MatrixMarket header"),
    "mm-field": (
        _SOLVE,
        "%%MatrixMarket matrix array complex general\n1 1\n1\n",
        1,
        "line 1: unsupported field 'complex'",
    ),
    "mm-symmetry": (_SOLVE, _MM + "hermitian\n1 1\n1\n", 1, "line 1: unsupported symmetry 'hermitian'"),
    "mm-dims-tokens": (_SOLVE, _MM + "general\n% c\n2 2 2\n", 1, "line 3: expected 'rows cols'"),
    "mm-dims-integer": (_SOLVE, _MM + "general\n2 x\n", 1, "line 2: non-integer dimensions"),
    "mm-dims-positive": (_SOLVE, _MM + "general\n0 2\n", 1, "line 2: dimensions must be positive"),
    "mm-dims-missing": (_SOLVE, _MM + "general\n% no dimensions\n", 1, "missing dimensions line"),
    "mm-symmetric-not-square": (
        _SOLVE,
        _MM + "symmetric\n2 3\n",
        1,
        "symmetric file must be square, got 2x3",
    ),
    "config-not-object": (_SIMULATE, "[]", 2, "config must be a JSON object"),
    "config-vary-not-object": (
        _SIMULATE,
        json.dumps(minimal_config(vary=[])),
        2,
        "'vary' must be an object with 'param' and 'values'",
    ),
    "results-no-header": (_PLOT, "# hetero-spectra results v1\n\n", 1, "missing header line"),
    "results-field-count": (_PLOT, _RESULTS_HEAD + "svd,omega,1\n", 1, "row 2 has 3 fields"),
    "results-bad-value": (
        _PLOT,
        _RESULTS_HEAD + "svd,omega,1,0,0.25,0,ok\nsvd,omega,x,0,0.25,0,ok\n",
        1,
        "row 3: could not convert string to float: 'x'",
    ),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_input_file_exits_with_one_error_line(tmp_path, capsys, case):
    command, text, code, message = _BAD_INPUTS[case]
    path = write(tmp_path / "input", text)
    out = tmp_path / "out"
    assert main([*command, path, "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
    assert not out.exists()


# (config, message after "error: ExperimentConfig: "): a sequence field that
# is not an ordered sequence is the config's to reject, with exit 2
_BAD_SEQUENCES = {
    "config-values-not-list": (
        minimal_config(vary={"param": "omega", "values": 1.0}),
        "vary_values takes a sequence of values, not 1.0",
    ),
    "config-values-object": (
        minimal_config(vary={"param": "omega", "values": {"3.0": 1}}),
        "vary_values takes a sequence of values, not {'3.0': 1}",
    ),
    "config-methods-not-list": (
        minimal_config(methods="svd"),
        "methods takes a sequence of tags, not 'svd'",
    ),
}


@pytest.mark.parametrize("case", list(_BAD_SEQUENCES))
def test_config_sequence_fields_exit_2(tmp_path, capsys, case):
    config, message = _BAD_SEQUENCES[case]
    path = write(tmp_path / "cfg.json", json.dumps(config))
    out = tmp_path / "out"
    assert main([*_SIMULATE, path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: ExperimentConfig: {message}"]
    assert not out.exists()


def test_every_output_file_is_created_through_one_opener(tmp_path, monkeypatch):
    created = []
    create = cli._create

    def spy(path):
        created.append(os.path.abspath(path))
        return create(path)

    monkeypatch.setattr(cli, "_create", spy)
    inp = write(tmp_path / "m.csv", "2,1\n1,2\n")
    cfg = write(tmp_path / "cfg.json", json.dumps(minimal_config()))
    outs = tmp_path / "outs"
    fit, rows, chart = outs / "fit", outs / "sim" / "rows.csv", outs / "plot" / "chart.svg"
    assert main(["solve", "--input", inp, "--method", "rmtfa", "--tau", "0.5", "--out", str(fit)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(rows)]) == 0
    assert main(["plot", "--input", str(rows), "--out", str(chart)]) == 0
    written = [os.path.join(d, f) for d, _, files in os.walk(outs) for f in files]
    assert sorted(created) == sorted(written)
    assert len(written) == 6
