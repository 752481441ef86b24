import json
import math
import os
import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from scipy.io import mmread, mmwrite

from conftest import pin_workers, time_bound
from greedyrat import (
    DescriptorSystem,
    GreedyConfig,
    TerminationRule,
    adjusted_relative_error,
    make_synthetic,
    random_test_points,
    run_greedy,
)
from greedyrat.cli import CONFIG_KEYS, build_greedy_config, main, parse_config, ConfigError
from greedyrat.testsystems import spring_chain

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


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


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# density stops at the sample cap here, which run reports with exit 2
@pytest.mark.parametrize("termination, code", [("max_count", 0), ("density", 2)])
def test_surrogate_json_is_strict_json_without_an_estimate(synthetic_setup, capsys, termination, code):
    # these rules draw no estimate; run writes null for it, not NaN, and
    # validate reads null as no estimate
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, grid_size=500, termination=termination, max_samples=6)
    assert main(["run", cfg]) == code
    text = (tmp_path / "out" / "surrogate.json").read_text()
    meta = json.loads(text, parse_constant=refuse_constant)
    assert meta["estimator_value"] is None and meta["estimator_anchor"] == [None, None]
    capsys.readouterr()
    assert main(["validate", cfg]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("max adjusted relative error over the grid: ")
    rows = read_csv_body(tmp_path / "out" / "validation.csv")
    assert all(np.isnan(float(r.split(",")[2])) for r in rows[1:])


def test_relative_paths_resolve_against_the_working_directory(synthetic_setup, monkeypatch, capsys):
    # system and output_dir are read against the working directory, not the
    # config file's; a missing output_dir is the config file's directory
    tmp_path, _ = synthetic_setup
    (tmp_path / "cfg").mkdir()
    rule = {"termination": "max_count", "max_samples": 6}
    given = write_config(tmp_path, "sys", name="cfg/given.cfg", output_dir="rel", **rule)
    default = write_config(tmp_path, "sys", name="cfg/default.cfg", output_dir=None, **rule)
    monkeypatch.chdir(tmp_path)
    assert main(["run", os.path.relpath(given)]) == 0
    assert main(["run", os.path.relpath(default)]) == 0
    assert (tmp_path / "rel" / "surrogate.json").exists()
    assert (tmp_path / "cfg" / "surrogate.json").exists()
    # from the config's own directory, "sys" names no system
    monkeypatch.chdir(tmp_path / "cfg")
    capsys.readouterr()
    assert main(["run", "given.cfg"]) == 1
    assert "sys.A.mtx" in capsys.readouterr().err
    assert not (tmp_path / "cfg" / "rel").exists()


def test_invalid_termination_kind_names_key(tmp_path, synthetic_setup, capsys):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, termination="bogus")
    assert main(["run", cfg]) == 1
    assert "bogus" in capsys.readouterr().err


def test_nan_tolerance_is_a_config_error(synthetic_setup, capsys):
    # a nan tol fails every `estimator < tol` check, so the run would go to
    # max_samples and exit 2 as if it had merely not converged
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, tol="nan")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tol must be finite" in err


def test_a_range_the_grid_cannot_resolve_is_a_config_error(synthetic_setup, capsys):
    # the run used to stop with GridExhaustedError after its first solve
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, f_max=1.0 + 1e-13)
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grid_size 1000 points on" in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_a_config_error(synthetic_setup, capsys):
    # numpy's default_rng rejects a negative seed only when randomized draws
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, termination="randomized", seed=-1)
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be nonnegative" in err


def test_unknown_config_key_reports_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("system = x\nf_min = 1\nf_max = 2\nwat = 3\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:4.*'wat'"):
        parse_config(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("system = x\nf_min = 1\nf_max\n", r"bad\.cfg:3: expected 'key = value'"),
        ("system = x\nf_min = one\nf_max = 2\n", r"bad\.cfg:2: bad value for 'f_min'"),
        ("system = x\nf_min = 1\n", r"bad\.cfg: missing required key 'f_max'"),
        (
            "system = x\nf_min = 1\n# f_min = 3\nf_max = 2\nf_min = 1\n",
            r"bad\.cfg:5: key 'f_min' repeats line 2",
        ),
    ],
    ids=["no-equals", "bad-value", "missing-key", "repeated-key"],
)
def test_malformed_config_is_rejected(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        parse_config(str(path))


def test_a_hash_starts_a_comment_only_at_the_start_or_after_whitespace(tmp_path):
    path = tmp_path / "hash.cfg"
    path.write_text("# a comment\nsystem = a#b\nf_min = 1\t# lower\nf_max = 100  # upper\noutput_dir = c#d #e\n")
    assert parse_config(str(path)) == {"system": "a#b", "f_min": 1.0, "f_max": 100.0, "output_dir": "c#d"}


def test_run_writes_into_an_output_dir_holding_a_hash(synthetic_setup):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, output_dir=str(tmp_path / "out#1"), termination="max_count", max_samples=6)
    assert main(["run", cfg]) == 0
    assert (tmp_path / "out#1" / "surrogate.json").exists()
    assert not (tmp_path / "out").exists()


def test_config_keys_are_the_dataclass_fields(synthetic_setup):
    tmp_path, prefix = synthetic_setup
    cfg_keys = {f.name for f in fields(GreedyConfig)} - {"termination"}
    rule_keys = {"termination" if f.name == "kind" else f.name for f in fields(TerminationRule)}
    assert set(CONFIG_KEYS) == cfg_keys | rule_keys | {"system", "output_dir"}
    path = write_config(
        tmp_path,
        prefix,
        fitter="mri",
        termination="density",
        n_memory=4,
        n_batch=3,
        n_random=9,
        min_gap=0.25,
        seed=7,
    )
    raw = parse_config(path)
    assert set(raw) == set(CONFIG_KEYS)
    cfg = build_greedy_config(raw)
    assert cfg == GreedyConfig(
        f_min=1.0,
        f_max=100.0,
        grid_size=1000,
        tol=1e-3,
        delta=1e-8,
        fitter="mri",
        termination=TerminationRule(
            kind="density", n_memory=4, n_batch=3, n_random=9, min_gap=0.25
        ),
        max_samples=40,
        seed=7,
    )
    for obj in (cfg, cfg.termination):
        for f in fields(obj):
            if f.name != "termination":
                assert type(getattr(obj, f.name)) is f.type, f.name


def test_readme_config_block_names_every_config_key(tmp_path):
    with open(README) as f:
        block = re.search(r"Configs are flat .*?```\n(.*?)```", f.read(), re.DOTALL).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert set(parse_config(str(path))) == set(CONFIG_KEYS)


def test_missing_files_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, str(tmp_path / "nope"))
    assert main(["run", cfg]) == 1


@pytest.mark.parametrize("key", ["coeffs", "support"])
def test_a_surrogate_with_a_nan_exits_1(synthetic_setup, capsys, key):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    assert main(["run", cfg]) == 0
    path = tmp_path / "out" / "surrogate.json"
    d = json.loads(path.read_text())
    d[key][0][0] = math.nan
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["validate", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot load {path}: ") and "finite" in err


def test_a_directory_for_the_surrogate_exits_1(synthetic_setup, capsys):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    (tmp_path / "a_dir").mkdir()
    assert main(["validate", cfg, str(tmp_path / "a_dir")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "a_dir") in err
    assert len(err.splitlines()) == 1


def test_an_output_dir_that_is_a_file_exits_1(synthetic_setup, capsys):
    tmp_path, prefix = synthetic_setup
    (tmp_path / "taken").write_text("")
    cfg = write_config(tmp_path, prefix, output_dir=str(tmp_path / "taken"))
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "taken") in err
    assert len(err.splitlines()) == 1


NOT_MTX = "not a matrix market file\n"


@pytest.mark.parametrize(
    "command, bad_file, text",
    [
        ("run", "sys.A.mtx", NOT_MTX),
        ("validate", "sys.A.mtx", NOT_MTX),
        ("verify", "sys.A.mtx", NOT_MTX),
        ("validate", "surrogate.json", "{not json"),
        ("validate", "surrogate.json", '{"shape": 3}'),
        ("verify", "surrogate.json", "{not json"),
    ],
    ids=[
        "run-matrix",
        "validate-matrix",
        "verify-matrix",
        "validate-json",
        "validate-shape",
        "verify-json",
    ],
)
def test_malformed_input_file_exits_1(synthetic_setup, capsys, command, bad_file, text):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    (tmp_path / bad_file).write_text(text)
    sur_path = str(tmp_path / "surrogate.json")
    with_surrogate = command == "validate" or bad_file == "surrogate.json"
    args = [command, cfg] + ([sur_path] if with_surrogate else [])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load ")
    assert (prefix if bad_file.endswith(".mtx") else sur_path) in err


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list("EABC"))
def test_a_non_finite_matrix_file_exits_1(synthetic_setup, capsys, name, bad):
    tmp_path, prefix = synthetic_setup
    path = f"{prefix}.{name}.mtx"
    M = mmread(path)
    M.flat[np.flatnonzero(M)[0]] = bad
    mmwrite(path, M)
    assert main(["run", write_config(tmp_path, prefix)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load {prefix}: ") and f"{name} is not finite" in err
    assert not (tmp_path / "out").exists()


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
    if command == "verify":
        assert main(["run", cfg]) == 0
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


def test_dense_a_without_e_file_runs_as_identity_e(synthetic_setup):
    tmp_path, prefix = synthetic_setup
    with open(f"{prefix}.A.mtx") as f:
        assert "array" in f.readline()  # A is stored dense
    with_e = write_config(tmp_path, prefix, name="with_e.cfg", output_dir=str(tmp_path / "with_e"))
    assert main(["run", with_e]) == 0
    os.remove(f"{prefix}.E.mtx")
    cfg = write_config(tmp_path, prefix)
    assert main(["run", cfg]) == 0
    assert main(["verify", cfg]) == 0
    for name in ("samples.csv", "ledger.csv"):
        assert read_csv_body(tmp_path / "out" / name) == read_csv_body(tmp_path / "with_e" / name)


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


def test_validate_notes_on_stderr_only_when_it_cannot_fork(synthetic_setup, monkeypatch, capsys):
    from greedyrat import parallel

    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, termination="max_count", max_samples=6)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    outputs = set()
    # off Linux fork_is_safe is False by platform, and no setting helps
    cases = [(platform, 2, False, False) for platform in ("darwin", "win32")]
    cases += [("linux", 2, False, True), ("linux", 1, False, False), ("linux", 2, True, False)]
    for platform, cpus, safe, noted in cases:
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(parallel, "fork_is_safe", lambda: safe)
        assert main(["validate", cfg]) == 0
        out, err = capsys.readouterr()
        if noted:
            (line,) = err.splitlines()
            assert "OPENBLAS_NUM_THREADS=1" in line and "2 usable CPUs" in line
        else:
            assert err == ""
        body = (tmp_path / "out" / "validation.csv").read_text().split("\n", 1)[1]
        outputs.add((out, body))
    # stdout and validation.csv below its timestamp line are the same each time
    assert len(outputs) == 1


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


def test_validate_marks_a_resonant_grid_point(tmp_path, capsys):
    # a pole exactly on a grid frequency makes the system's pencil singular there
    grid_f = np.geomspace(1.0, 100.0, 1000)
    k = 400
    sys = make_synthetic([2j, 1j * grid_f[k], 70j], 0, m=2, p=2)
    prefix = str(tmp_path / "sys")
    sys.save_matrix_market(prefix)
    cfg = write_config(tmp_path, prefix, termination="max_count", max_samples=6)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    assert main(["validate", cfg]) == 0
    printed = float(capsys.readouterr().out.rsplit(" ", 1)[1])
    rows = [r.strip().split(",") for r in read_csv_body(tmp_path / "out" / "validation.csv")]
    assert len(rows) == 1 + grid_f.size
    f, eps, _, resonance, h_norm = np.array(rows[1:], dtype=float).T[:5]
    assert f[k] == grid_f[k]
    assert np.flatnonzero(resonance).tolist() == [k]
    assert np.isnan(eps[k]) and np.isnan(h_norm[k])
    others = np.delete(eps, k)
    assert np.all(np.isfinite(others))
    assert printed == float(f"{others.max():.6e}")


def test_validate_and_verify_write_the_same_bytes_with_and_without_workers(tmp_path, monkeypatch):
    # the setup of test_validate_marks_a_resonant_grid_point: a pole on grid point k
    grid_f = np.geomspace(1.0, 100.0, 1000)
    k = 400
    sys = make_synthetic([2j, 1j * grid_f[k], 70j], 0, m=2, p=2)
    prefix = str(tmp_path / "sys")
    sys.save_matrix_market(prefix)
    cfg = write_config(tmp_path, prefix, termination="max_count", max_samples=6)
    assert main(["run", cfg]) == 0
    sur_path = str(tmp_path / "out" / "surrogate.json")
    bodies = {}
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        cfg_w = write_config(
            tmp_path, prefix, name=f"workers{workers}.cfg", termination="max_count",
            max_samples=6, output_dir=str(out),
        )
        pin_workers(monkeypatch, workers)
        assert main(["validate", cfg_w, sur_path]) == 0
        assert main(["verify", cfg_w, sur_path]) == 0
        # below the `# generated <timestamp>` line
        bodies[workers] = [(out / name).read_text().split("\n", 1)[1] for name in ("validation.csv", "verify.csv")]
    assert bodies[1] == bodies[2]
    rows = [r.split(",") for r in bodies[2][0].splitlines() if not r.startswith("#")]
    assert rows[1 + k][3] == "1" and np.isnan(float(rows[1 + k][1]))
    assert [r[3] for r in rows[1:]].count("1") == 1


def test_validate_prints_the_effectivity_after_the_grid_maximum(synthetic_setup, capsys):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    assert main(["run", cfg]) == 0
    estimate = json.loads((tmp_path / "out" / "surrogate.json").read_text())["estimator_value"]
    capsys.readouterr()
    assert main(["validate", cfg]) == 0
    first, second = capsys.readouterr().out.splitlines()
    rows = read_csv_body(tmp_path / "out" / "validation.csv")
    max_err = max(float(r.split(",")[1]) for r in rows[1:])
    assert first == f"max adjusted relative error over the grid: {max_err:.6e}"
    assert second.startswith("effectivity, grid maximum / run's estimator value: ")
    assert "over the grid" not in second
    assert float(second.rsplit(" ", 1)[1]) == float(f"{max_err / estimate:.6e}")
    # max_count records no estimator, so there is no effectivity to print
    capped = write_config(tmp_path, prefix, name="capped.cfg", termination="max_count", max_samples=6)
    assert main(["run", capped]) == 0
    capsys.readouterr()
    assert main(["validate", capped]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


@pytest.mark.parametrize("value", [0, -1.0, None, "1e-3", True])
def test_validate_prints_no_effectivity_for_an_unusable_estimator_value(synthetic_setup, capsys, value):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    assert main(["run", cfg]) == 0
    path = tmp_path / "out" / "surrogate.json"
    meta = json.loads(path.read_text())
    meta["estimator_value"] = value
    path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["validate", cfg]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("max adjusted relative error over the grid: ")


@pytest.mark.parametrize("anchor", [None, [1, 2, 3], "x", [True, False]])
def test_validate_draws_no_eta_for_a_malformed_estimator_anchor(synthetic_setup, capsys, anchor):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    assert main(["run", cfg]) == 0
    path = tmp_path / "out" / "surrogate.json"
    meta = json.loads(path.read_text())
    meta["estimator_anchor"] = anchor
    path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["validate", cfg]) == 0
    # the effectivity line needs only estimator_value, which is intact
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("max adjusted relative error over the grid: ")
    assert second.startswith("effectivity, grid maximum / run's estimator value: ")
    rows = read_csv_body(tmp_path / "out" / "validation.csv")
    assert all(np.isnan(float(r.split(",")[2])) for r in rows[1:])


def test_validate_draws_no_eta_for_an_anchor_on_a_support_point(synthetic_setup, capsys):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    rows = [r.split(",") for r in read_csv_body(tmp_path / "out" / "validation.csv")]
    path = tmp_path / "out" / "surrogate.json"
    meta = json.loads(path.read_text())
    meta["estimator_anchor"] = meta["support"][1]  # |Q| is infinite there
    path.write_text(json.dumps(meta))
    assert main(["validate", cfg]) == 0
    assert capsys.readouterr().out == out
    colliding = [r.split(",") for r in read_csv_body(tmp_path / "out" / "validation.csv")]
    assert colliding[0] == rows[0] and len(colliding) == len(rows)
    for row, was in zip(colliding[1:], rows[1:]):
        assert not math.isnan(float(was[2])) and math.isnan(float(row[2]))
        assert row[:2] + row[3:] == was[:2] + was[3:]


def test_validate_on_a_grid_of_resonances_prints_nan_and_exits_1(tmp_path, capsys):
    # both points of the grid f in {1, 2} are poles, so no error can be measured
    sys = make_synthetic([1j, 2j, 3j], 0)
    prefix = str(tmp_path / "sys")
    sys.save_matrix_market(prefix)
    cfg = write_config(tmp_path, prefix, f_min=1.1, f_max=5.3, termination="max_count", max_samples=4)
    assert main(["run", cfg]) == 0
    poles = write_config(tmp_path, prefix, name="poles.cfg", f_min=1, f_max=2, grid_size=2)
    capsys.readouterr()
    assert main(["validate", poles]) == 1
    assert capsys.readouterr().out == "max adjusted relative error over the grid: nan\n"
    rows = [r.strip().split(",") for r in read_csv_body(tmp_path / "out" / "validation.csv")]
    assert [float(r[0]) for r in rows[1:]] == [1.0, 2.0]
    assert all(r[3] == "1" for r in rows[1:])


def test_validate_ledger_matches_rule(synthetic_setup):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    main(["run", cfg])
    rows = read_csv_body(tmp_path / "out" / "ledger.csv")
    last = rows[-1].strip().split(",")
    samples, cumulative = int(last[1]), int(last[3])
    assert cumulative == samples + 1  # lookahead wastes exactly the final probe


def test_verify_csv_eps_matches_direct_recomputation(synthetic_setup):
    from greedyrat.verify import PROBE_STREAM, draw_probe_points

    tmp_path, prefix = synthetic_setup
    cfg_path = write_config(tmp_path, prefix, termination="max_count", max_samples=5, seed=4)
    assert main(["run", cfg_path]) == 0
    assert main(["verify", cfg_path]) == 0
    rows = read_csv_body(tmp_path / "out" / "verify.csv")
    assert rows[0].strip() == "f,rho,absQ,rho_absQ,eps,Delta"
    cfg = build_greedy_config(parse_config(cfg_path))
    sys = make_synthetic([2j, 8j, 30j, 70j], 0, m=2, p=2)
    sur = run_greedy(sys, cfg).surrogate
    zs = draw_probe_points(sur, cfg.f_min, cfg.f_max, 100, seed=[cfg.seed, PROBE_STREAM])
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
    assert main(["run", cfg]) == 0
    assert main(["verify", cfg]) == 0
    assert (tmp_path / "out" / "verify.csv").exists()
    out = capsys.readouterr().out
    assert "gamma" in out and "Delta_max" in out


def test_verify_on_a_range_within_node_reject_of_the_nodes_is_an_error(tmp_path, capsys):
    # every probe drawn on [1, 1 + 1e-7] is rejected: verify used to hang
    prefix = str(tmp_path / "sys3")
    make_synthetic([2j, 5j, 11j], 1, m=2, p=2).save_matrix_market(prefix)
    cfg = write_config(
        tmp_path, prefix, f_max=1.0 + 1e-7, grid_size=100, termination="max_count", max_samples=5
    )
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    with time_bound(5):
        assert main(["verify", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: no probe frequency in [1.0, 1.0000001]")
    assert not (tmp_path / "out" / "verify.csv").exists()


def test_verify_probes_a_low_frequency_range(tmp_path):
    # every draw on [1e-12, 1e-10] lies within 1e-6 (1 + f_j) of a node, so
    # only a node rule relative at every scale lets verify probe this range
    prefix = str(tmp_path / "sys5")
    make_synthetic([3e-12j, 5e-12j, 1e-11j, 3e-11j, 6e-11j], 1).save_matrix_market(prefix)
    cfg = write_config(tmp_path, prefix, f_min=1e-12, f_max=1e-10, grid_size=2000)
    assert main(["run", cfg]) == 0
    with time_bound(30):
        assert main(["verify", cfg]) == 0
    rows = read_csv_body(tmp_path / "out" / "verify.csv")
    f = np.array([float(r.split(",")[0]) for r in rows[1:]])
    assert f.size == 100 and np.all((1e-12 <= f) & (f <= 1e-10))


@pytest.mark.parametrize("case", ["exact-8-pole", "chain"])
def test_verify_notes_an_exact_fit(tmp_path, capsys, case):
    # batch recovers the 8-pole system exactly, so its residual numerator
    # cancels to rounding; the chain's lookahead fit to 1e-3 does not
    if case == "chain":
        sys, config = spring_chain(), dict(f_min=1e-2, f_max=1.0, max_samples=100)
    else:
        sys = make_synthetic([1j * f for f in (2, 5, 11, 19, 37, 53, 71, 90)], 1, m=2, p=2)
        config = dict(termination="batch", n_batch=3)
    prefix = str(tmp_path / case)
    sys.save_matrix_market(prefix)
    cfg = write_config(tmp_path, prefix, **config)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    assert main(["verify", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("gamma = ") and "relative spread = " in lines[0]
    assert lines[1].startswith("max |eps*|Q| - Delta| / Delta = ")
    notes = [line for line in lines if line.startswith("note: ")]
    assert len(notes) == (case != "chain")
    assert len(lines) == 2 + len(notes)


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_probes_miss_the_randomized_test_points(synthetic_setup, seed):
    # the probes have their own stream, so verify does not re-check a
    # randomized run at the frozen points its stop was decided on
    tmp_path, prefix = synthetic_setup
    cfg_path = write_config(tmp_path, prefix, termination="randomized", n_random=100, seed=seed)
    assert main(["run", cfg_path]) == 0
    assert main(["verify", cfg_path]) == 0
    rows = read_csv_body(tmp_path / "out" / "verify.csv")[1:]
    probes = {float(row.split(",")[0]) for row in rows}
    frozen = {z.imag for z in random_test_points(build_greedy_config(parse_config(cfg_path)))}
    assert len(probes) == len(frozen) == 100
    assert not probes & frozen


SURROGATE_READERS = [("validate", "validation.csv"), ("verify", "verify.csv")]


@pytest.mark.parametrize("command, artifact", SURROGATE_READERS)
def test_reads_the_surrogate_run_wrote(synthetic_setup, monkeypatch, command, artifact):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, termination="max_count", max_samples=5, seed=4)
    out = tmp_path / "out"
    assert main(["run", cfg]) == 0

    def no_rerun(*args, **kwargs):
        raise AssertionError(f"{command} re-ran the greedy loop")

    monkeypatch.setattr("greedyrat.cli.run_greedy", no_rerun)
    assert main([command, cfg]) == 0
    from_config = read_csv_body(out / artifact)
    assert main([command, cfg, str(out / "surrogate.json")]) == 0
    assert read_csv_body(out / artifact) == from_config


@pytest.mark.parametrize("command, artifact", SURROGATE_READERS)
def test_without_a_run_the_missing_surrogate_is_named(synthetic_setup, capsys, command, artifact):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix)
    assert main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(tmp_path / "out" / "surrogate.json") in err
    assert not (tmp_path / "out" / artifact).exists()


@pytest.mark.parametrize("command", ["validate", "verify"])
def test_surrogate_json_is_parsed_once(synthetic_setup, monkeypatch, command):
    tmp_path, prefix = synthetic_setup
    cfg = write_config(tmp_path, prefix, termination="max_count", max_samples=5)
    assert main(["run", cfg]) == 0
    parsed = []
    load = json.load
    monkeypatch.setattr(
        "greedyrat.barycentric.json.load", lambda f, **kw: parsed.append(f.name) or load(f, **kw)
    )
    assert main([command, cfg]) == 0
    assert parsed == [str(tmp_path / "out" / "surrogate.json")]


def test_validate_rejects_a_surrogate_of_another_shape(synthetic_setup, capsys):
    tmp_path, prefix = synthetic_setup
    other = make_synthetic([3j, 9j, 31j, 71j], 0)
    other_prefix = str(tmp_path / "other")
    other.save_matrix_market(other_prefix)
    other_cfg = write_config(
        tmp_path, other_prefix, name="other.cfg", output_dir=str(tmp_path / "other_out")
    )
    assert main(["run", other_cfg]) == 0
    cfg = write_config(tmp_path, prefix)
    sur_path = str(tmp_path / "other_out" / "surrogate.json")
    assert main(["validate", cfg, sur_path]) == 1
    err = capsys.readouterr().err
    shapes = "surrogate blocks are (1, 1), the system's are (2, 2)"
    assert err.startswith(f"error: {sur_path}: {shapes}")
    assert not (tmp_path / "out" / "validation.csv").exists()


@pytest.mark.parametrize(
    "ports, message", [(2, "does not match the system"), (1, "surrogate blocks are (1, 1)")]
)
def test_verify_rejects_a_surrogate_of_another_system(synthetic_setup, capsys, ports, message):
    tmp_path, prefix = synthetic_setup
    other = make_synthetic([3j, 9j, 31j, 71j], 0, m=ports, p=ports)
    other_prefix = str(tmp_path / "other")
    other.save_matrix_market(other_prefix)
    other_cfg = write_config(
        tmp_path, other_prefix, name="other.cfg", output_dir=str(tmp_path / "other_out")
    )
    assert main(["run", other_cfg]) == 0
    cfg = write_config(tmp_path, prefix)
    sur_path = str(tmp_path / "other_out" / "surrogate.json")
    assert main(["verify", cfg, sur_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out" / "verify.csv").exists()
