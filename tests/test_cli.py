import json
import os

import numpy as np
import pytest

from greedyrat import DescriptorSystem, adjusted_relative_error, make_synthetic, run_greedy
from greedyrat.cli import main, parse_config, ConfigError


@pytest.fixture
def synthetic_setup(tmp_path):
    sys = make_synthetic([2j, 8j, 30j, 70j], 0, m=2, p=2)
    prefix = str(tmp_path / "sys")
    sys.save_matrix_market(prefix)
    return tmp_path, prefix


def write_config(tmp_path, prefix, name="run.cfg", **overrides):
    values = {
        "system": prefix,
        "f_min": 1.0,
        "f_max": 100.0,
        "grid_size": 1000,
        "tol": 1e-3,
        "delta": 1e-8,
        "fitter": "loewner",
        "termination": "lookahead",
        "max_samples": 40,
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    values.update(overrides)
    path = tmp_path / name
    lines = "".join(f"{k} = {v}\n" for k, v in values.items() if v is not None)
    path.write_text("# test configuration\n" + lines)
    return str(path)


def read_csv_body(path):
    with open(path) as f:
        return [line for line in f if not line.startswith("#")]


def test_run_writes_artifacts(synthetic_setup):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "samples.csv").exists()
    assert (out / "ledger.csv").exists()
    assert (out / "surrogate.json").exists()
    meta = json.loads((out / "surrogate.json").read_text())
    assert meta["termination_reason"] == "lookahead"
    sampled = set(meta["sampled_f"])
    support_f = {im for _, im in meta["support"]}
    assert support_f <= sampled


def test_run_exit_code_on_safety_cap(synthetic_setup):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, tol=1e-15, max_samples=6)
    assert main(["run", cfg]) == 2


def test_invalid_termination_kind_names_key(tmp_path, synthetic_setup, capsys):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, termination="bogus")
    assert main(["run", cfg]) == 1
    assert "bogus" in capsys.readouterr().err


def test_unknown_config_key_reports_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("system = x\nf_min = 1\nf_max = 2\nwat = 3\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:4.*'wat'"):
        parse_config(str(path))


def test_missing_files_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, str(tmp_path / "nope"))
    assert main(["run", cfg]) == 1


NOT_MTX = "not a matrix market file\n"


@pytest.mark.parametrize(
    "command, bad_file, text",
    [
        ("run", "sys.A.mtx", NOT_MTX),
        ("validate", "sys.A.mtx", NOT_MTX),
        ("verify", "sys.A.mtx", NOT_MTX),
        ("validate", "surrogate.json", "{not json"),
        ("validate", "surrogate.json", '{"shape": 3}'),
    ],
    ids=["run-matrix", "validate-matrix", "verify-matrix", "validate-json", "validate-shape"],
)
def test_malformed_input_file_exits_1(synthetic_setup, capsys, command, bad_file, text):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    (tmp_path / bad_file).write_text(text)
    sur_path = str(tmp_path / "surrogate.json")
    args = [command, cfg] + ([sur_path] if command == "validate" else [])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load ")
    assert (prefix if bad_file.endswith(".mtx") else sur_path) in err


@pytest.mark.parametrize("command, artifact", [("run", "samples.csv"), ("verify", "verify.csv")])
def test_output_dir_defaults_to_config_directory(synthetic_setup, command, artifact):
    tmp_path, prefix = synthetic_setup
    (tmp_path / "cfg").mkdir()
    cfg = write_config(
        tmp_path,
        prefix,
        name="cfg/run.cfg",
        output_dir=None,
        termination="max_count",
        max_samples=7,
    )
    assert main([command, cfg]) == 0
    assert (tmp_path / "cfg" / artifact).exists()
    assert not (tmp_path / "out").exists()


def test_reply_shape_change_exits_1(synthetic_setup, monkeypatch, capsys):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    eval_transfer = DescriptorSystem.eval_transfer
    calls = []

    def shrinking(self, z):
        calls.append(z)
        H = eval_transfer(self, z)
        return H[:1] if len(calls) == 3 else H

    monkeypatch.setattr(DescriptorSystem, "eval_transfer", shrinking)
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: oracle reply at z = {calls[2]} has shape (1, 2)")
    assert "(2, 2)" in err


def test_run_is_deterministic(synthetic_setup):
    tmp_path, prefix = synthetic_setup
    cfg_a = write_config(tmp_path, prefix, name="a.cfg", output_dir=str(tmp_path / "a"))
    cfg_b = write_config(tmp_path, prefix, name="b.cfg", output_dir=str(tmp_path / "b"))
    assert main(["run", cfg_a]) == 0
    assert main(["run", cfg_b]) == 0
    for name in ("samples.csv", "ledger.csv"):
        assert read_csv_body(tmp_path / "a" / name) == read_csv_body(tmp_path / "b" / name)
    ja = json.loads((tmp_path / "a" / "surrogate.json").read_text())
    jb = json.loads((tmp_path / "b" / "surrogate.json").read_text())
    assert ja == jb


def test_validate_exact_recovery(synthetic_setup):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, termination="lookahead_memory", n_memory=2)
    assert main(["run", cfg]) == 0
    sur_path = str(tmp_path / "out" / "surrogate.json")
    assert main(["validate", cfg, sur_path]) == 0
    rows = read_csv_body(tmp_path / "out" / "validation.csv")
    header = rows[0].strip().split(",")
    assert header[:5] == ["f", "eps", "eta", "resonance", "H_norm"]
    eps = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert eps.max() <= 1e-3
    # 2x2 system: magnitude columns for every entry of H and the surrogate
    assert sum(c.startswith("absH_") for c in header) == 4
    assert sum(c.startswith("absHs_") for c in header) == 4


def test_validate_ledger_matches_rule(synthetic_setup):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    main(["run", cfg])
    rows = read_csv_body(tmp_path / "out" / "ledger.csv")
    last = rows[-1].strip().split(",")
    samples, cumulative = int(last[1]), int(last[3])
    assert cumulative == samples + 1  # lookahead wastes exactly the final probe


def test_verify_csv_eps_matches_direct_recomputation(synthetic_setup):
    from greedyrat.cli import build_greedy_config
    from greedyrat.verify import draw_probe_points

    tmp_path, prefix = synthetic_setup
    cfg_path = write_config(tmp_path, prefix, termination="max_count", max_samples=5, seed=4)
    assert main(["verify", cfg_path]) == 0
    rows = read_csv_body(tmp_path / "out" / "verify.csv")
    assert rows[0].strip() == "f,rho,absQ,rho_absQ,eps,Delta"
    cfg = build_greedy_config(parse_config(cfg_path))
    sys = make_synthetic([2j, 8j, 30j, 70j], 0, m=2, p=2)
    sur = run_greedy(sys, cfg).surrogate
    zs = draw_probe_points(sur, cfg.f_min, cfg.f_max, 100, seed=cfg.seed)
    assert len(rows) == 1 + len(zs)
    for row, z in zip(rows[1:], zs):
        cols = row.strip().split(",")
        eps = adjusted_relative_error(sys.eval_transfer(z), sur.eval(z), cfg.delta)
        assert cols[0] == str(z.imag)
        assert cols[4] == str(eps)


def test_verify_subcommand(synthetic_setup, capsys):
    tmp_path, prefix = synthetic_setup
    # an order-8 system keeps the surrogate inexact, away from gamma ~ 0
    sys = make_synthetic([1j * f for f in (2, 5, 11, 19, 37, 53, 71, 90)], 1, m=2, p=2)
    prefix8 = str(tmp_path / "sys8")
    sys.save_matrix_market(prefix8)
    cfg = write_config(tmp_path, prefix8, termination="max_count", max_samples=7)
    assert main(["verify", cfg]) == 0
    assert (tmp_path / "out" / "verify.csv").exists()
    out = capsys.readouterr().out
    assert "gamma" in out and "Delta_max" in out
