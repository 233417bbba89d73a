import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakkam
from weakkam.cli import (EXIT_FAIL, EXIT_PASS, EXIT_USAGE, FLOAT_FMT, SUITES,
                         main, write_csv)
from weakkam.config import ConfigError, RunConfig, load_config
from weakkam.kernel import ActionKernel

SMALL = ["--grid", "8", "8", "10"]


def _ini(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; importing it costs most of a run's start.
    code = ("import sys, weakkam, weakkam.cli; print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(weakkam.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_write_csv_array_matches_rows(tmp_path):
    vals = np.array([[0.0, -0.0, 1 / 3, -2.5e-7],
                     [np.inf, -np.inf, np.nan, 1e21],
                     [7.0, 1e-300, 123456789.0123, -1.0]])
    header = ["w", "x", "y", "z"]
    write_csv(tmp_path / "a.csv", header, vals)
    write_csv(tmp_path / "r.csv", header, [tuple(r) for r in vals])
    text = (tmp_path / "a.csv").read_bytes()
    assert text == (tmp_path / "r.csv").read_bytes()
    assert text.count(b"\r\n") == 4


def test_load_config_defaults():
    cfg = load_config()
    assert cfg.matrix == (2, 1, 1, 1)
    assert cfg.grid_shape == (32, 32, 16)
    assert cfg.family == "coboundary"


def test_load_config_file_and_overrides(tmp_path):
    path = _ini(tmp_path, """
[model]
roof = 1.0
[observable]
family = constant
value = 2.5
[grid]
n1 = 8
n2 = 8
ns = 10
[kernel]
c = 3.5  ; inline comment
[tolerances]
monotone_tol = 1e-9  ; an old key: ignored
[run]
seed = 7
""")
    cfg = load_config(path, {"solve_tol": 1e-6})
    assert cfg.family == "constant"
    assert not hasattr(cfg, "monotone_tol")
    assert cfg.obs_params["value"] == 2.5
    assert cfg.grid_shape == (8, 8, 10)
    assert cfg.c == 3.5 and cfg.seed == 7 and cfg.solve_tol == 1e-6


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError):
        load_config(_ini(tmp_path, "[kernel]\nc = banana\n"))
    with pytest.raises(ConfigError):
        load_config(_ini(tmp_path, "[observable]\nfamily = nope\n", "b.ini"))
    with pytest.raises(ConfigError):
        load_config(None, {"not_a_key": 1})


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(grid_shape=(8, 10, 10)).validate()
    with pytest.raises(ConfigError):
        RunConfig(c=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(solve_tol=0.0).validate()
    for key in ("tau", "rho", "eps"):
        for bad in (0.0, -0.1):
            with pytest.raises(ConfigError):
                load_config(None, {key: bad})


@pytest.mark.parametrize("eps", ["0", "-0.1"])
def test_cli_non_positive_atlas_eps_exit_2(tmp_path, eps):
    bad = _ini(tmp_path, f"[atlas]\neps = {eps}\n")
    assert main(["--config", bad, "--output", str(tmp_path / "o"),
                 "atlas"]) == EXIT_USAGE


@pytest.mark.parametrize("section,key,value", [
    ("kernel", "c", "nan"), ("kernel", "h", "nan"),
    ("kernel", "reach_multiplier", "nan"),
    ("kernel", "reach_multiplier", "1.5"),
    ("tolerances", "solve_tol", "nan"), ("tolerances", "ergodic_tol", "nan"),
    ("atlas", "rho", "nan"), ("model", "roof", "nan"),
    ("model", "max_horizon", "-1"), ("model", "max_horizon", "nan"),
    ("tolerances", "solve_tol", "inf"), ("tolerances", "ergodic_tol", "inf"),
    ("atlas", "tau", "inf"), ("atlas", "rho", "inf"), ("atlas", "eps", "inf"),
    ("model", "roof", "inf"), ("kernel", "c", "inf"),
    ("model", "max_horizon", "inf"), ("kernel", "reach_multiplier", "inf")])
def test_cli_bad_config_value_exit_2(tmp_path, capsys, section, key, value):
    bad = _ini(tmp_path, f"[{section}]\n{key} = {value}\n")
    assert main(["--config", bad, "--output", str(tmp_path / "o")] + SMALL
                + ["solve"]) == EXIT_USAGE
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("flag,key", [("--c", "c"), ("--tol", "solve_tol")])
def test_cli_infinite_flag_exit_2_naming_the_key(tmp_path, capsys, flag, key):
    assert main([flag, "inf", "--output", str(tmp_path / "o")] + SMALL
                + ["solve"]) == EXIT_USAGE
    assert f"{key} must be positive and finite, got inf" in \
        capsys.readouterr().err


def test_cli_observable_it_cannot_build_exit_2(tmp_path):
    assert main(["--observable", "grid_table", "--output",
                 str(tmp_path / "o")] + SMALL + ["solve"]) == EXIT_USAGE


@pytest.mark.parametrize("family,line", [
    ("dist2", "base_point = a, b"), ("dist2", "base_point = 0.3"),
    ("dist2", "base_point = 0.1, 0.2, 0.3"),
    ("dist2", "base_point = nan, 0.5"), ("dist2", "base_point = 0.5, inf"),
    ("constant", "value = nan"), ("constant", "value = -inf")])
def test_cli_bad_observable_parameter_exit_2(tmp_path, family, line):
    bad = _ini(tmp_path, f"[observable]\nfamily = {family}\n{line}\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    assert main(["--config", bad, "--output", str(tmp_path / "o"),
                 "constants"]) == EXIT_USAGE


def test_load_config_base_point(tmp_path):
    for text in ("0.37, 0.11", "0.37 0.11"):
        path = _ini(tmp_path, f"[observable]\nbase_point = {text}\n")
        assert load_config(path).obs_params["base_point"] == (0.37, 0.11)


@pytest.mark.parametrize("matrix", [(1, 0, 0, 1), (2, 0, 0, 1)])
def test_cli_bad_base_matrix_exit_2(tmp_path, matrix):
    # not hyperbolic, and not unimodular
    with pytest.raises(ConfigError):
        RunConfig(matrix=matrix).validate()
    bad = _ini(tmp_path, "[model]\n" + "".join(
        f"{key} = {v}\n" for key, v in zip(("a11", "a12", "a21", "a22"),
                                           matrix)))
    assert main(["--config", bad, "--output", str(tmp_path / "o"),
                 "atlas"]) == EXIT_USAGE


@pytest.mark.parametrize("command", [["shadow", "--count", "0"],
                                     ["shadow", "--count", "-3"],
                                     ["verify", "apriori", "--count", "0"]])
def test_cli_non_positive_count_exit_2(tmp_path, command):
    with pytest.raises(SystemExit) as ei:
        main(["--output", str(tmp_path / "o")] + SMALL + command)
    assert ei.value.code == EXIT_USAGE
    assert not (tmp_path / "o").exists()


def test_cli_negative_seed_exit_2(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1).validate()
    assert main(["--seed", "-1", "--output", str(tmp_path / "o"), "shadow",
                 "--count", "1"]) == EXIT_USAGE


@pytest.mark.parametrize("grid,step", [
    (["8", "8", "3"], []),            # no default h <= roof/10 on the s-spacing
    (["8", "8", "10"], ["--h", "0.07"])])  # h off the s-spacing 0.1
def test_cli_impossible_kernel_step_exit_2(tmp_path, grid, step):
    argv = ["--output", str(tmp_path / "o"), "--grid"] + grid + step
    with pytest.raises(ConfigError, match="kernel step h"):
        load_config(None, {"grid_shape": tuple(map(int, grid)),
                           "h": float(step[1]) if step else None})
    assert main(argv + ["verify", "semigroup", "--count", "1"]) == EXIT_USAGE


def test_cli_grid_of_one_node_exit_2(tmp_path):
    with pytest.raises(ConfigError, match="at least 2"):
        load_config(None, {"grid_shape": (1, 1, 10)})
    assert main(["--output", str(tmp_path / "o"), "--grid", "1", "1", "10",
                 "verify", "semigroup", "--count", "1"]) == EXIT_USAGE
    assert not (tmp_path / "o").exists()


def test_cli_roof_too_short_for_smoothing_cover_exit_2(tmp_path):
    # the smoothing boxes span tau + 4 eps = 0.8 of flow time
    bad = _ini(tmp_path, "[model]\nroof = 0.5\n")
    with pytest.raises(ConfigError, match="roof"):
        load_config(bad)
    assert main(["--config", bad, "--output", str(tmp_path / "o")] + SMALL
                + ["solve"]) == EXIT_USAGE


def test_cli_infinite_roof_exit_2_naming_the_roof(tmp_path, capsys):
    bad = _ini(tmp_path, "[model]\nroof = inf\n")
    assert main(["--config", bad, "--output", str(tmp_path / "o"), "atlas"]) \
        == EXIT_USAGE
    assert "roof must be positive and finite, got inf" in \
        capsys.readouterr().err


@pytest.mark.parametrize("line,command,violated", [
    ("rho = 0.5", ["atlas"], "rho < tau/3"),
    ("eps = 0.6", SMALL + ["solve"], "eps < tau/2")])
def test_cli_inconsistent_atlas_constants_exit_2(tmp_path, capsys, line,
                                                 command, violated):
    # rejected with the configuration, before any stage runs
    bad = _ini(tmp_path, f"[atlas]\n{line}\n")
    assert main(["--config", bad, "--output", str(tmp_path / "o")]
                + command) == EXIT_USAGE
    assert f"violated: {violated}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_bad_config_exit_2(tmp_path):
    bad = _ini(tmp_path, "[grid]\nn1 = 8\nn2 = 12\nns = 10\n")
    assert main(["--config", bad, "atlas"]) == EXIT_USAGE


def test_cli_unknown_suite_exit_2():
    with pytest.raises(SystemExit) as ei:
        main(SMALL + ["verify", "warp"])
    assert ei.value.code == 2


def test_cli_atlas(tmp_path):
    out = str(tmp_path / "o")
    assert main(["--output", out, "atlas"]) == EXIT_PASS
    summary = json.loads((Path(out) / "summary.json").read_text())
    assert summary["passed"] and summary["n_boxes"] > 0
    n_rows = len((Path(out) / "atlas.csv").read_text().strip().splitlines())
    assert n_rows == summary["n_boxes"] + 1  # header + one row per box


def test_cli_constants(tmp_path):
    out = str(tmp_path / "o")
    assert main(["--output", out, "constants"]) == EXIT_PASS
    text = (Path(out) / "constants.csv").read_text()
    assert "c4" in text and "delta_lambda" in text


def _rows(path, key):
    with open(path, newline="") as f:
        return {r[key]: r["value"] for r in csv.DictReader(f)}


@pytest.mark.parametrize("value", ["0.0", "2.5"])
def test_cli_constant_family(tmp_path, value):
    # Lip phi = 0 is a Lipschitz constant: every constant it scales is 0, and
    # the certificate's ratios over it are the IEEE quotients 0 / 0
    cfg = _ini(tmp_path, f"[observable]\nfamily = constant\nvalue = {value}\n")
    out, const = tmp_path / "o", tmp_path / "c"
    assert main(["--config", cfg, "--output", str(out)] + SMALL
                + ["solve"]) == EXIT_PASS
    cert = _rows(out / "certificate.csv", "quantity")
    assert cert["lip_phi"] == cert["lip_u"] == "0"
    assert cert["ratio_u"] == cert["ratio_lie"] == "nan"
    ergodic = _rows(out / "ergodic.csv", "method")
    assert ergodic["minplus_drift"] == FLOAT_FMT % float(value)
    assert main(["--config", cfg, "--output", str(const)] + SMALL
                + ["constants"]) == EXIT_PASS
    consts = _rows(const / "constants.csv", "name")
    assert consts == _rows(out / "constants.csv", "name")
    for name in ("a_star", "c1", "c2", "c3", "c4", "lip_phi"):
        assert consts[name] == "0", name
    assert float(consts["c_lambda_distortion"]) > 0


def test_cli_verify_semigroup_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = SMALL + ["--seed", "3", "verify", "semigroup"]
    assert main(["--output", out1] + args) == EXIT_PASS
    assert main(["--output", out2] + args) == EXIT_PASS
    csv1 = (Path(out1) / "semigroup.csv").read_bytes()
    csv2 = (Path(out2) / "semigroup.csv").read_bytes()
    assert csv1 == csv2  # repeat runs are byte-identical


def test_cli_verify_apriori(tmp_path):
    out = str(tmp_path / "o")
    assert main(["--output", out] + SMALL
                + ["verify", "apriori", "--count", "50"]) == EXIT_PASS
    summary = json.loads((Path(out) / "summary.json").read_text())
    assert list(summary) == ["command", "n_checked", "passed", "suite",
                             "timings", "violations"]
    assert summary["n_checked"] == 50 and summary["violations"] == 0
    assert list(summary["timings"]) == ["build_kernel", "distances",
                                        "fields", "pairs"]


def test_cli_verify_livsic_flags_weak_weight(tmp_path):
    out, const = str(tmp_path / "o"), str(tmp_path / "c")
    code = main(["--output", out] + SMALL
                + ["verify", "livsic", "--count", "20"])
    assert code == EXIT_PASS
    summary = json.loads((Path(out) / "summary.json").read_text())
    # the scan prices every path at C4, whatever --c says, and reports it
    assert "flag" not in summary
    assert main(["--output", const] + SMALL + ["constants"]) == EXIT_PASS
    with open(Path(const) / "constants.csv") as f:
        c4 = {r["name"]: r["value"] for r in csv.DictReader(f)}["c4"]
    assert FLOAT_FMT % summary["weight"] == c4


def test_cli_shadow(tmp_path):
    out = str(tmp_path / "o")
    assert main(["--output", out, "shadow", "--count", "10"]) == EXIT_PASS
    lines = (Path(out) / "shadowing.csv").read_text().strip().splitlines()
    assert len(lines) == 11
    assert lines[0] == ("length,noise,distance_sum,error_sum,k_gamma,"
                        "max_residual,newton_iterations,passed")
    summary = json.loads((Path(out) / "summary.json").read_text())
    assert summary["newton_iterations"] == sum(
        int(line.split(",")[6]) for line in lines[1:])
    assert 1 <= summary["chains"] <= 10


def test_cli_solve_small(tmp_path, monkeypatch):
    calls, folded = [], []
    howard = ActionKernel.solve_additive_eigenvalue

    def counted(self, *args, **kwargs):
        calls.append(self.phi_bar)
        g, bias, info = howard(self, *args, **kwargs)
        folded.extend(info["offsets_folded"])
        return g, bias, info

    monkeypatch.setattr(ActionKernel, "solve_additive_eigenvalue", counted)
    out = str(tmp_path / "o")
    assert main(["--output", out] + SMALL + ["solve"]) == EXIT_PASS
    assert calls == [0.0]  # one eigen-solve, on the reference-0 kernel
    summary = json.loads((Path(out) / "summary.json").read_text())
    assert list(summary) == ["aubry", "checks", "command", "howard_iterations",
                             "howard_offsets_folded", "lipschitz", "margin",
                             "n_orbits_enumerated", "phi_bar",
                             "phi_bar_periodic", "residual", "slack",
                             "stage_a_sweeps", "stage_b_sweeps",
                             "table_columns", "table_columns_priced",
                             "timings"]
    # the coboundary: every node of the 8 x 8 x 10 grid seeds pass 2
    assert list(summary["aubry"]) == ["base_points", "n_cycles", "n_nodes"]
    assert summary["aubry"]["n_cycles"] > 1
    assert summary["aubry"]["n_nodes"] == 640
    assert len(summary["aubry"]["base_points"]) == 8
    assert all(summary["checks"].values())
    assert summary["howard_offsets_folded"] == sum(folded) > 0
    # the run record sits beside the checks, not in them
    assert "stage_a_saturated" not in summary
    assert summary["stage_a_sweeps"] > 0 and summary["stage_b_sweeps"] > 0
    # 9 x 9 of the 13 x 13 columns of each of the 256 default boxes
    assert summary["table_columns"] == 256 * 13 ** 2
    assert summary["table_columns_priced"] == 256 * 9 ** 2
    assert sorted(summary["timings"]) == ["build_kernel", "constants",
                                          "ergodic_value", "howard",
                                          "regularize_all", "stage_a",
                                          "stage_b", "weak_kam_solve",
                                          "write"]
    assert all(v > 0 for v in summary["timings"].values())
    assert not {"stage_a_sweeps", "timings"} & set(summary["checks"])
    for name in ("ergodic.csv", "solution.csv", "certificate.csv",
                 "constants.csv"):
        assert (Path(out) / name).exists()
    with open(Path(out) / "ergodic.csv", newline="") as f:
        ergodic = {r["method"]: r["value"] for r in csv.DictReader(f)}
    assert ergodic["minplus_drift"] == FLOAT_FMT % summary["phi_bar"]


def test_cli_verify_count_failure_reported(tmp_path, monkeypatch, capsys):
    counts = []

    def failing(cfg, out, n_paths=200):
        counts.append(n_paths)
        return False, {"n_paths": n_paths}

    monkeypatch.setitem(SUITES, "livsic", failing)
    out = str(tmp_path / "o")
    code = main(["--output", out] + SMALL
                + ["verify", "livsic", "--count", "5"])
    assert code == EXIT_FAIL and counts == [5]
    assert "verify livsic: property failure" in capsys.readouterr().err
    summary = json.loads((Path(out) / "summary.json").read_text())
    assert summary["passed"] is False and summary["n_paths"] == 5
