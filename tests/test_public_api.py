"""The public API keeps working: names, parameters and the README examples.

The pins below list what ``hetero_spectra`` binds and what its callables
take. They are checked as subsets (and parameter lists as leading
prefixes, which positional callers rely on), so a later addition needs no
edit here; a removal or rename fails.
"""

import inspect
import re
import shlex
from pathlib import Path

import hetero_spectra
import hetero_spectra.cli as cli

ROOT = Path(__file__).resolve().parents[1]

PARAMS = {
    "Decomposition": ["L", "D", "method", "param", "converged", "iterations"],
    "EigenDecomp": ["values", "vectors"],
    "ExperimentConfig": [
        "n", "p", "r", "vary_param", "vary_values", "kappa", "omega", "methods",
        "replicates", "seed", "tau_rule",
    ],
    "Instance": ["params", "M", "Z", "Y", "sigma", "u_true", "svals"],
    "ModelParams": ["n", "p", "r", "kappa", "omega", "seed"],
    "ProxSpec": ["kind", "tau", "r"],
    "ResultRow": ["method", "param", "value", "replicate", "sin_theta", "wall_ms", "status"],
    "SinThetaEvent": ["coherence_term", "noise_term", "rho", "bound", "holds"],
    "SolverTrace": [
        "objective", "fixed_point_residual", "psi", "converged", "iterations", "iterates",
        "stop_reason", "kept", "partial_accepted", "partial_fallbacks",
    ],
    "StopRule": ["rel_tol", "max_iter"],
    "alternating_solve": ["sigma", "prox", "d0", "stop", "keep_iterates"],
    "apply_prox": ["spec", "m"],
    "best_rank_r": ["m", "r"],
    "best_rank_r_psd": ["m", "r"],
    "check_orthonormal": ["u", "tol", "name"],
    "coherence": ["u"],
    "deflated_heteropca": ["sigma", "r", "t_max_per_stage", "return_stages"],
    "diag_deleted_pca": ["sigma", "r"],
    "eig_sym": ["m"],
    "extract_subspace": ["x", "r", "return_info"],
    "gen_instance": ["params"],
    "gen_masked": ["y", "theta", "rng"],
    "gen_noise": ["params", "rng"],
    "gen_signal": ["params", "rng"],
    "heteropca": ["sigma", "r", "t_max", "g0", "keep_iterates"],
    "heteropca_psd": ["sigma", "r", "t_max"],
    "heywood_check": ["dec"],
    "is_balanced": ["beta"],
    "ledermann_bound": ["p"],
    "max_row_norm": ["u"],
    "nuclear_norm_sym": ["m"],
    "numerical_rank_sym": ["m", "rel_cutoff"],
    "objective_F": ["sigma", "L", "D", "tau"],
    "pca_baseline": ["sigma", "r"],
    "pdiag": ["m"],
    "poffdiag": ["m"],
    "psi_residual": ["sigma", "dec"],
    "reliability_coefficient": ["L", "sigma"],
    "resolve_tau": ["config", "params"],
    "rmtfa": ["sigma", "tau", "stop", "d0", "keep_iterates"],
    "run_experiment": ["config", "jobs"],
    "sin_theta": ["u", "v"],
    "sin_theta_event": ["u", "w", "tau", "lambda_r", "rho"],
    "soft_impute_diag": ["sigma", "tau", "stop", "d0", "keep_iterates"],
    "soft_threshold_psd": ["m", "tau"],
    "soft_threshold_sym": ["m", "tau"],
    "spectral_norm_sym": ["m"],
    "spike_pca_sin_theta": ["q", "s"],
    "symmetrize": ["m"],
}

# the public names that take no parameter list of their own
OTHER_NAMES = {"EigenSolverError", "METHOD_TAGS"}


def test_public_names_are_bound():
    names = set(PARAMS) | OTHER_NAMES
    assert len(names) == 51
    assert names <= {n for n in dir(hetero_spectra) if not n.startswith("_")}
    assert issubclass(hetero_spectra.EigenSolverError, RuntimeError)
    assert "rmtfa" in hetero_spectra.METHOD_TAGS


def test_public_parameters_are_kept():
    changed = {}
    for name, pinned in PARAMS.items():
        current = list(inspect.signature(getattr(hetero_spectra, name)).parameters)
        if current[: len(pinned)] != pinned:
            changed[name] = current
    assert not changed


def test_readme_quick_start_runs():
    assert Path(hetero_spectra.__file__).resolve().is_relative_to(ROOT / "src")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert scope["dec"].converged and scope["trace"].stop_reason == "converged"
    assert scope["basis"].shape == (30, 3)


def test_readme_command_lines_parse():
    # a flag removed from the CLI must not live on in the docs
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("hetero-spectra ")]
    assert {shlex.split(ln)[1] for ln in lines} == {"solve", "simulate", "plot"}
    parser = cli._build_parser()
    rejected = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            rejected.append(line)
    assert not rejected
