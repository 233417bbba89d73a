import csv
import json
from pathlib import Path

import pytest

from weakkam.cli import (EXIT_FAIL, EXIT_PASS, EXIT_USAGE, FLOAT_FMT, SUITES,
                         main)
from weakkam.config import ConfigError, RunConfig, load_config
from weakkam.kernel import ActionKernel

SMALL = ["--grid", "8", "8", "10"]


def _ini(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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
[run]
seed = 7
""")
    cfg = load_config(path, {"solve_tol": 1e-6})
    assert cfg.family == "constant"
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
    assert all(summary["checks"].values())
    assert summary["howard_offsets_folded"] == sum(folded) > 0
    # the run record sits beside the checks, not in them
    assert summary["stage_a_saturated"] is True
    assert summary["stage_a_sweeps"] > 0 and summary["stage_b_sweeps"] > 0
    assert 0 < summary["table_columns_priced"] < summary["table_columns"]
    assert sorted(summary["timings"]) == ["constants", "ergodic_value",
                                          "regularize_all", "weak_kam_solve"]
    assert all(v > 0 for v in summary["timings"].values())
    assert not {"stage_a_saturated", "timings"} & set(summary["checks"])
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
