"""Spec parsing, serialization round trips, CLI commands, artifact contracts."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import package_env

from neuromf.artifacts import read_meancurve_csv, read_meta
from neuromf.configio import (
    config_from_dict,
    config_hash,
    config_to_dict,
    parse_spec,
)
from neuromf.errors import ConfigError
from neuromf.presets import fhn_chaos_sweep, fhn_two_pop, hh_two_pop

GOLDEN = Path(__file__).parent / "golden"


def tiny_spec_dict(**overrides) -> dict:
    spec = {
        "n_paths": 2,
        "m_copies": 200,
        "tol": 5e-3,
        "max_iter": 6,
        "sweep_n": [8, 16, 32],
        "config": config_to_dict(fhn_two_pop(n_per_pop=4, n_steps=100, t_end=1.0, thin=20)),
    }
    spec.update(overrides)
    return spec


MINIMAL_SINGLE_POP = {
    "config": {
        "seed": 7,
        "grid": {"t_end": 1.0, "n_steps": 100},
        "conductance": "simple",
        "populations": [
            {
                "label": "solo",
                "n": 3,
                "membrane": {"kind": "fhn", "a": 0.7, "b": 0.8, "c": 0.08},
                "sigma_v": 0.2,
                "rise_rate": 1.0,
                "decay_rate": 0.2,
                "sigmoid": {},
                "init": {
                    "v": {"kind": "normal", "mean": -1.0, "std": 0.2},
                    "y": {"kind": "uniform", "lo": 0.0, "hi": 0.2},
                    "w": {"kind": "const", "value": -0.5},
                },
            }
        ],
        "pairs": {"solo->solo": {"v_rev": 1.0, "j_mean": 0.2}},
    }
}


# ---------------------------------------------------------------------------
# parsing


def test_round_trip_fhn_and_hh():
    for cfg in (fhn_two_pop(n_steps=10, t_end=0.1), hh_two_pop(n_per_pop=2, n_steps=10, t_end=0.1)):
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)


def test_minimal_spec_fills_documented_defaults():
    spec = parse_spec(json.dumps(MINIMAL_SINGLE_POP))
    cfg = spec.config
    pop = cfg.populations[0][0]
    assert pop.sigmoid.c_max == 1.0 and pop.sigmoid.lam == 1.0  # sigmoid defaults
    assert pop.cutoff.support_lo == 0.01 and pop.cutoff.ramp == 0.04
    assert cfg.pairs[("solo", "solo")].sigma_j == 0.0
    assert spec.n_paths == 1 and spec.m_copies == 10_000
    assert spec.tol == 1e-3 and spec.max_iter == 20


def test_negative_decay_rate_named_in_error():
    d = tiny_spec_dict()
    d["config"]["populations"][1]["decay_rate"] = -1.0
    with pytest.raises(ConfigError) as exc:
        parse_spec(json.dumps(d))
    msg = str(exc.value)
    assert "populations[1]" in msg and "decay_rate must be > 0" in msg


def test_unknown_keys_rejected_with_paths():
    d = tiny_spec_dict()
    d["config"]["populations"][0]["mystery"] = 1
    d["config"]["grid"]["step_size"] = 0.1
    with pytest.raises(ConfigError) as exc:
        parse_spec(json.dumps(d))
    msg = str(exc.value)
    assert "populations[0].mystery: unknown key" in msg
    assert "grid.step_size: unknown key" in msg


def test_sweep_proportion_validation():
    ok = tiny_spec_dict(sweep_n=[16, 64])  # quarters of (4, 4) scale fine
    parse_spec(json.dumps(ok))
    bad = tiny_spec_dict(sweep_n=[16, 65])
    with pytest.raises(ConfigError) as exc:
        parse_spec(json.dumps(bad))
    assert "sweep_n" in str(exc.value)


def test_chaos_sweep_spec_needs_three_sizes():
    short = json.dumps(tiny_spec_dict(sweep_n=[4, 8]))
    parse_spec(short)  # no command: nothing fits a rate to it
    for text, command in ((short, "chaos-sweep"),
                          (json.dumps(tiny_spec_dict(sweep_n=[4, 8], command="chaos-sweep")), None)):
        with pytest.raises(ConfigError) as exc:
            parse_spec(text, command)
        assert any(e.startswith("spec.sweep_n:") and "three" in e for e in exc.value.errors)


def relabel_minimal(label):
    d = json.loads(json.dumps(MINIMAL_SINGLE_POP))
    d["config"]["populations"][0]["label"] = label
    d["config"]["pairs"] = {f"{label}->{label}": d["config"]["pairs"]["solo->solo"]}
    return d


@pytest.mark.parametrize("label", ["in\rh", "in\nh", "in\th", "\x00", "in\x1f", "in\x7fh"])
def test_control_characters_in_labels_rejected(label):
    with pytest.raises(ConfigError) as exc:
        parse_spec(json.dumps(relabel_minimal(label)))
    assert f"populations[0].label: {label!r} holds a control character" in exc.value.errors
    config = parse_spec(json.dumps(MINIMAL_SINGLE_POP)).config
    pop, n = config.populations[0]
    bad = replace(config, populations=[(replace(pop, label=label), n)],
                  pairs={(label, label): config.pairs[("solo", "solo")]},
                  init={label: config.init["solo"]})
    with pytest.raises(ConfigError) as exc:
        bad.validate_or_raise()
    assert any(e.startswith("populations[0].label:") for e in exc.value.errors)


def test_printable_labels_accepted():
    for label in ("exé", "a b", "exc,1", 'in"h', "\x80"):
        parse_spec(json.dumps(relabel_minimal(label)))


def test_n_paths_bounded_by_the_limit_copy_ids():
    parse_spec(json.dumps(tiny_spec_dict(n_paths=2 ** 21)))
    with pytest.raises(ConfigError) as exc:
        parse_spec(json.dumps(tiny_spec_dict(n_paths=2 ** 21 + 1)))
    assert any(e.startswith("spec.n_paths:") and "2**21" in e for e in exc.value.errors)


def test_all_errors_reported_together():
    d = tiny_spec_dict(n_paths=0, tol=-1.0)
    d["config"]["seed"] = -3
    with pytest.raises(ConfigError) as exc:
        parse_spec(json.dumps(d))
    msg = str(exc.value)
    for frag in ("n_paths", "tol", "seed"):
        assert frag in msg


def test_command_cross_check():
    d = tiny_spec_dict(command="simulate")
    parse_spec(json.dumps(d), command="simulate")
    with pytest.raises(ConfigError):
        parse_spec(json.dumps(d), command="meanfield")


def test_non_json_rejected():
    with pytest.raises(ConfigError):
        parse_spec("not json {")


# ---------------------------------------------------------------------------
# CLI


def run_cli(args, cwd, env_extra=None):
    return subprocess.run([sys.executable, "-m", "neuromf", *args], cwd=cwd,
                          env=package_env(**(env_extra or {})), capture_output=True, text=True)


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec_dict()))
    return path


def test_cli_validate_ok(spec_file, tmp_path):
    res = run_cli(["validate", "--spec", str(spec_file)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "all properties hold" in res.stdout


def test_cli_validate_rejects_bad_cutoff(tmp_path):
    d = tiny_spec_dict()
    d["config"]["populations"][0]["cutoff"] = {"support_lo": 0.3, "ramp": 0.25}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    res = run_cli(["validate", "--spec", str(path)], tmp_path)
    assert res.returncode == 2
    assert "cutoff" in res.stderr


def test_cli_simulate_deterministic_bytes(spec_file, tmp_path):
    r1 = run_cli(["simulate", "--spec", str(spec_file), "--out", "a"], tmp_path)
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(["simulate", "--spec", str(spec_file), "--out", "b"], tmp_path)
    assert r2.returncode == 0
    assert (tmp_path / "a/ensemble.csv").read_bytes() == (tmp_path / "b/ensemble.csv").read_bytes()


def test_cli_simulate_worker_count_invariant(spec_file, tmp_path):
    r1 = run_cli(["simulate", "--spec", str(spec_file), "--out", "w1"], tmp_path,
                 {"NEUROMF_WORKERS": "1"})
    r2 = run_cli(["simulate", "--spec", str(spec_file), "--out", "w2"], tmp_path,
                 {"NEUROMF_WORKERS": "2"})
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert (tmp_path / "w1/ensemble.csv").read_bytes() == (tmp_path / "w2/ensemble.csv").read_bytes()


def test_cli_meanfield_and_curve_reuse(spec_file, tmp_path):
    r = run_cli(["meanfield", "--spec", str(spec_file), "--out", "mf"], tmp_path)
    assert r.returncode == 0, r.stderr
    curve = tmp_path / "mf/meancurve.csv"
    meta = read_meta(curve)
    assert set(meta) >= {"config_hash", "seed"}
    r2 = run_cli(["chaos-sweep", "--spec", str(spec_file), "--out", "cs",
                  "--curve", str(curve)], tmp_path)
    assert r2.returncode == 0, r2.stderr
    assert json.loads((tmp_path / "cs/chaos_summary.json").read_text())["points"]


def test_cli_chaos_sweep_accepts_the_curve_meanfield_wrote(tmp_path):
    # a grid whose nodes (multiples of 1/300 ms) need all 17 digits
    spec = tiny_spec_dict(m_copies=100, tol=1e-3, sweep_n=[4, 8, 16], config=config_to_dict(
        fhn_chaos_sweep(n_per_pop=2, t_end=1.0, n_steps=300, thin=100)))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    r = run_cli(["meanfield", "--spec", str(path), "--out", "mf"], tmp_path)
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "mf/meanfield_summary.json").read_text())
    assert summary["converged"] and summary["iterations"] == 1
    assert summary["distances"][-1] < spec["tol"]
    r2 = run_cli(["chaos-sweep", "--spec", str(path), "--out", "cs",
                  "--curve", str(tmp_path / "mf/meancurve.csv")], tmp_path)
    assert r2.returncode == 0, r2.stderr


def test_cli_chaos_sweep_refuses_fewer_than_three_sizes(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec_dict(sweep_n=[4, 8])))
    r = run_cli(["chaos-sweep", "--spec", str(path), "--out", "cs"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "spec.sweep_n" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "cs").exists()


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    code = "import sys, neuromf.cli; print('scipy.stats' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=package_env(),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_refuses_mismatched_curve_hash(spec_file, tmp_path):
    r = run_cli(["meanfield", "--spec", str(spec_file), "--out", "mf"], tmp_path)
    assert r.returncode == 0
    other = tiny_spec_dict()
    other["config"]["seed"] = 999  # different config, different hash
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    r2 = run_cli(["chaos-sweep", "--spec", str(other_path), "--out", "cs",
                  "--curve", str(tmp_path / "mf/meancurve.csv")], tmp_path)
    assert r2.returncode == 2
    assert "hash" in r2.stderr


_CURVE_HEADER = "time_ms,population,m_s,y_bar,se\n"


@pytest.mark.parametrize("body, message", [
    pytest.param(_CURVE_HEADER, "no data rows", id="no_rows"),
    pytest.param(_CURVE_HEADER + "0.0,exc,abc,0.1,0.0\n",
                 "data row 1, column m_s: 'abc' is not a number", id="non_numeric_cell"),
    pytest.param("time_ms,population,m_s,se\n0.0,exc,0.2,0.0\n",
                 "missing column(s) y_bar", id="missing_column"),
    pytest.param(_CURVE_HEADER + "0.0,exc,0.2,0.1,0.0\n0.01,exc,0.2,0.1,0.0\n0.0,inh,0.2,0.1,0.0\n",
                 "populations have unequal node counts 'exc': 2, 'inh': 1", id="unequal_node_counts"),
])
def test_cli_refuses_a_malformed_curve_file(spec_file, tmp_path, body, message):
    spec = parse_spec(spec_file.read_text())
    curve = tmp_path / "meancurve.csv"
    curve.write_text(f"# config_hash={config_hash(spec.config)}\n# seed={spec.config.seed}\n" + body)
    r = run_cli(["chaos-sweep", "--spec", str(spec_file), "--out", "cs", "--curve", str(curve)],
                tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert f"{curve}: {message}" in r.stderr


def test_cli_error_reporting_is_complete(tmp_path):
    d = tiny_spec_dict()
    d["config"]["populations"][0]["decay_rate"] = -1
    d["config"]["populations"][1]["sigma_v"] = -2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    res = run_cli(["simulate", "--spec", str(path), "--out", "x"], tmp_path)
    assert res.returncode == 2
    assert "decay_rate" in res.stderr and "sigma_v" in res.stderr


def test_cli_rejects_non_finite_numbers_by_field(tmp_path):
    # json.loads accepts NaN and Infinity; each must be refused at parse time
    d = tiny_spec_dict(config=config_to_dict(hh_two_pop(n_per_pop=2, n_steps=10, t_end=0.1)))
    pops = d["config"]["populations"]
    pops[0]["membrane"]["g_na"] = float("inf")
    pops[0]["init"]["v"]["mean"] = float("nan")
    pops[1]["gates"]["clamp_v"] = float("-inf")
    d["config"]["pairs"]["exc->inh"]["theta"] = float("inf")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert "NaN" in path.read_text() and "Infinity" in path.read_text()
    res = run_cli(["simulate", "--spec", str(path), "--out", "x"], tmp_path)
    assert res.returncode == 2, res.stderr
    for field in ("config.populations[0].membrane.g_na", "config.populations[0].init.v.mean",
                  "config.populations[1].gates.clamp_v", "config.pairs['exc->inh'].theta"):
        assert f"{field}: must be finite" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# golden artifacts (schema stability)


def read_csv_table(path: Path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("# ")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


@pytest.mark.skipif(not GOLDEN.exists(), reason="golden files not generated")
def test_golden_ensemble_schema(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text((GOLDEN / "spec.json").read_text())
    res = run_cli(["simulate", "--spec", str(spec), "--out", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    got_head, got_rows = read_csv_table(tmp_path / "out/ensemble.csv")
    want_head, want_rows = read_csv_table(GOLDEN / "ensemble.csv")
    assert got_head == want_head
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows, want_rows):
        assert g[:4] == w[:4]
        np.testing.assert_allclose([float(x) for x in g[4:]],
                                   [float(x) for x in w[4:]], rtol=1e-9, atol=1e-12)


@pytest.mark.skipif(not GOLDEN.exists(), reason="golden files not generated")
def test_golden_meancurve(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text((GOLDEN / "spec.json").read_text())
    res = run_cli(["meanfield", "--spec", str(spec), "--out", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    got = read_meancurve_csv(tmp_path / "out/meancurve.csv")
    want = read_meancurve_csv(GOLDEN / "meancurve.csv")
    assert got.labels == want.labels
    np.testing.assert_allclose(got.y_bar, want.y_bar, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(got.m_s, want.m_s, rtol=1e-9, atol=1e-12)


@pytest.mark.skipif(not GOLDEN.exists(), reason="golden files not generated")
def test_golden_chaos_report(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text((GOLDEN / "spec.json").read_text())
    res = run_cli(["chaos-sweep", "--spec", str(spec), "--out", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    got_head, got_rows = read_csv_table(tmp_path / "out/chaos_report.csv")
    want_head, want_rows = read_csv_table(GOLDEN / "chaos_report.csv")
    assert got_head == want_head == ["N", "D_hat", "SE", "sqrtN_times_D"]
    for g, w in zip(got_rows, want_rows):
        assert g[0] == w[0]
        np.testing.assert_allclose([float(x) for x in g[1:]],
                                   [float(x) for x in w[1:]], rtol=1e-9)
