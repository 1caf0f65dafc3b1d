"""Spec parsing, serialization round trips, CLI commands, artifact contracts."""

import json
import math
import re
import subprocess
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import package_env

from neuromf.artifacts import read_meancurve_csv, read_meta, write_meancurve_csv
from neuromf.configio import (
    _DIST_FIELDS,
    ExperimentSpec,
    config_hash,
    config_to_dict,
    parse_spec,
)
from neuromf.errors import ConfigError
from neuromf.meanfield import MeanCurve
from neuromf.model import (
    CurrentSpec,
    CutoffSpec,
    FhnMembrane,
    GateRates,
    HhMembrane,
    PairParams,
    PopulationParams,
    SigmoidParams,
)
from neuromf.network import Conductance, Dist, InitialLaw, NetworkConfig
from neuromf.presets import fhn_chaos_sweep, fhn_two_pop, hh_two_pop, interaction_free
from neuromf.rng import Component, block_stream
from neuromf.stepping import TimeGrid

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
SCHEMA_DOC = ROOT / "docs" / "config_schema.md"


def read_config(d: dict) -> NetworkConfig:
    """`d` read as the config of a spec."""
    return parse_spec(json.dumps({"config": d})).config


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
        again = read_config(config_to_dict(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)


# (spec file, the preset call it holds, that config's hash)
PINNED_SPECS = [
    pytest.param(ROOT / "specs" / "demo_fhn.json",
                 lambda: fhn_two_pop(seed=2024, t_end=10.0, n_steps=1000, thin=10),
                 "e81aa24a3f0fbb0c", id="demo_fhn"),
    pytest.param(ROOT / "specs" / "demo_hh.json",
                 lambda: hh_two_pop(seed=2024, n_per_pop=16, t_end=20.0, n_steps=2000, thin=20),
                 "205bb639e0d0f424", id="demo_hh"),
    pytest.param(GOLDEN / "spec.json",
                 lambda: fhn_two_pop(seed=424242, n_per_pop=4, t_end=0.8, n_steps=80, thin=20),
                 "8aa8999e819b56bb", id="golden"),
]


@pytest.mark.parametrize("path, preset, digest", PINNED_SPECS)
def test_spec_files_hold_the_presets(path, preset, digest):
    config = parse_spec(path.read_text(encoding="utf-8")).config
    assert config == preset()
    assert config_hash(config) == config_hash(preset()) == digest


# (preset call, hash of its config, hash of its interaction-free config)
PINNED_PRESETS = [
    pytest.param(fhn_two_pop, "0d6ea7330626528f", "5e8a42e897044dd4", id="fhn"),
    pytest.param(lambda: fhn_two_pop(conductance=Conductance.SIMPLE),
                 "53b044a5db13ff36", "7101b6f1f7f3b953", id="fhn_simple"),
    pytest.param(fhn_chaos_sweep, "4d4d5b9e07ad7f2a", "1b36d5381c880175", id="fhn_chaos_sweep"),
    pytest.param(hh_two_pop, "6c118a4af1ee6ab5", "73f606c0f9f1a8d2", id="hh"),
]


@pytest.mark.parametrize("preset, digest, free_digest", PINNED_PRESETS)
def test_preset_values_are_pinned(preset, digest, free_digest):
    assert config_hash(preset()) == digest
    assert config_hash(interaction_free(preset())) == free_digest


BETA = {"kind": "beta", "alpha": 2.0, "beta": 5.0}
LOGNORMAL = {"kind": "lognormal", "mu": -1.0, "sigma": 0.5}


def laws_dict(y: dict = BETA) -> dict:
    """The HH preset's config, population 0 with law `y`, beta gates and lognormal conductances."""
    d = config_to_dict(hh_two_pop(n_per_pop=2, n_steps=10, t_end=0.1))
    init = d["populations"][0]["init"]
    init.update(y=y, n=BETA, m=BETA, h=BETA)
    init["j"] = {label: LOGNORMAL for label in init["j"]}
    return d


def test_beta_and_lognormal_laws_round_trip():
    cfg = read_config(laws_dict())
    law = cfg.init[cfg.labels[0]]
    assert law.y == law.n == Dist("beta", 2.0, 5.0)
    assert set(law.j.values()) == {Dist("lognormal", -1.0, 0.5)}
    again = read_config(config_to_dict(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_lognormal_law_refused_for_a_proportion():
    with pytest.raises(ConfigError) as exc:
        read_config(laws_dict(y=LOGNORMAL))
    assert exc.value.errors == ["config.populations[0].init.y: support must lie in [0, 1]"]


@pytest.mark.parametrize("shapes", [(0.0, 5.0), (2.0, -1.0)])
def test_beta_law_needs_positive_shapes(shapes):
    bad = {"kind": "beta", "alpha": shapes[0], "beta": shapes[1]}
    with pytest.raises(ConfigError) as exc:
        read_config(laws_dict(y=bad))
    assert exc.value.errors == [
        "config.populations[0].init.y: beta: both shape parameters must be > 0"]


def test_beta_and_lognormal_sample_means_match():
    law = read_config(laws_dict()).init["exc"]
    for dist, component in ((law.y, Component.INIT_Y), (law.j["inh"], Component.init_j(1))):
        x = dist.sample(block_stream(31, 0, component), 20_000)
        assert abs(x.mean() - dist.mean()) <= 4.0 * x.std(ddof=1) / math.sqrt(x.size), dist.kind


def test_minimal_spec_fills_documented_defaults():
    spec = parse_spec(json.dumps(MINIMAL_SINGLE_POP))
    cfg = spec.config
    pop = cfg.populations[0][0]
    assert pop.sigmoid.c_max == 1.0 and pop.sigmoid.lam == 1.0  # sigmoid defaults
    assert pop.cutoff.support_lo == 0.01 and pop.cutoff.ramp == 0.04
    assert cfg.pairs[("solo", "solo")].sigma_j == 0.0
    assert spec.n_paths == 1 and spec.m_copies == 10_000
    assert spec.tol == 1e-3 and spec.max_iter == 20


def test_omitted_keys_take_the_dataclass_defaults():
    fhn = json.loads(json.dumps(MINIMAL_SINGLE_POP))
    pop = fhn["config"]["populations"][0]
    pop["membrane"] = {"kind": "fhn"}
    del pop["sigmoid"]
    parsed = parse_spec(json.dumps(fhn)).config.populations[0][0]
    assert parsed.membrane == FhnMembrane() and parsed.sigmoid == SigmoidParams()
    assert parsed.gates is None
    hh = config_to_dict(hh_two_pop(n_per_pop=2, n_steps=10, t_end=0.1))
    for pop in hh["populations"]:
        pop["membrane"] = {"kind": "hh"}
        for key in ("sigmoid", "cutoff", "gates"):
            del pop[key]
    for pop, _ in read_config(hh).populations:
        assert pop.membrane == HhMembrane() and pop.membrane.i_ext == CurrentSpec()
        assert (pop.sigmoid, pop.cutoff, pop.gates) == (SigmoidParams(), CutoffSpec(), GateRates())


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


def test_unknown_init_keys_reported_beside_a_bad_conductance_law():
    d = json.loads(json.dumps(MINIMAL_SINGLE_POP))
    init = d["config"]["populations"][0]["init"]
    init["mystery"] = 1
    init["j"] = {"solo": {"kind": "nope"}}
    with pytest.raises(ConfigError) as exc:
        parse_spec(json.dumps(d))
    assert "config.populations[0].init.mystery: unknown key" in exc.value.errors
    assert ("config.populations[0].init.j['solo'].kind: unknown distribution kind 'nope'"
            in exc.value.errors)


@pytest.mark.parametrize("keys", [("membrane",), ("init", "v"), ("init", "y")],
                         ids=["membrane", "init.v", "init.y"])
def test_missing_required_object_reported_once(keys):
    d = json.loads(json.dumps(MINIMAL_SINGLE_POP))
    parent = d["config"]["populations"][0]
    for key in keys[:-1]:
        parent = parent[key]
    del parent[keys[-1]]
    path = ".".join(("config.populations[0]",) + keys)
    with pytest.raises(ConfigError) as exc:
        parse_spec(json.dumps(d))
    assert [e for e in exc.value.errors if e.startswith(path + ":")] == [
        f"{path}: required field is missing"]


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
    assert f"config.populations[0].label: {label!r} holds a control character" in exc.value.errors
    config = parse_spec(json.dumps(MINIMAL_SINGLE_POP)).config
    pop, n = config.populations[0]
    bad = replace(config, populations=[(replace(pop, label=label), n)],
                  pairs={(label, label): config.pairs[("solo", "solo")]},
                  init={label: config.init["solo"]})
    with pytest.raises(ConfigError) as exc:
        bad.validate_or_raise()
    assert any(e.startswith("populations[0].label:") for e in exc.value.errors)


def test_labels_of_no_population_rejected_with_their_paths():
    base = config_to_dict(fhn_two_pop())
    pair = json.loads(json.dumps(base))
    pair["pairs"]["exc->bogus"] = pair["pairs"]["exc->inh"]
    law = json.loads(json.dumps(base))
    law["populations"][0]["init"]["j"]["bogus"] = law["populations"][0]["init"]["j"]["inh"]
    for d, error in ((pair, "config.pairs['exc->bogus']: no population is labelled 'bogus'"),
                     (law, "config.populations[0].init.j['bogus']: "
                           "no population is labelled 'bogus'")):
        with pytest.raises(ConfigError) as exc:
            read_config(d)
        assert exc.value.errors == [error]


def test_validate_errors_use_the_spec_paths():
    d = config_to_dict(fhn_two_pop())
    d["seed"] = -3
    d["pairs"]["exc->inh"]["theta"] = 0.0
    with pytest.raises(ConfigError) as exc:
        read_config(d)
    assert sorted(exc.value.errors) == [
        "config.pairs['exc->inh'].theta: must be > 0 for the sign-preserving variant",
        "config.seed: must be a nonnegative 63-bit integer",
    ]


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


def test_config_error_survives_pickling():
    # a worker's error reaches the parent through pickle
    import pickle
    e = ConfigError(["spec.n_paths: must be >= 1", "config.thin: must be >= 1"])
    again = pickle.loads(pickle.dumps(e))
    assert str(again) == str(e)
    assert again.errors == e.errors


def test_non_json_rejected():
    with pytest.raises(ConfigError):
        parse_spec("not json {")


# ---------------------------------------------------------------------------
# the schema document

# every dataclass a spec is read into; each field is a key (NetworkConfig.init
# is written per population)
SCHEMA = (ExperimentSpec, NetworkConfig, TimeGrid, PopulationParams, SigmoidParams, CutoffSpec,
          GateRates, FhnMembrane, HhMembrane, CurrentSpec, PairParams, InitialLaw)


def documented_defaults(doc: str) -> dict[str, list[str]]:
    """key -> the default cell of every table row that starts with that key."""
    out: dict[str, list[str]] = {}
    for line in doc.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 4 and re.fullmatch(r"`\w+`", cells[0]):
            out.setdefault(cells[0].strip("`"), []).append(cells[2])
    return out


def shows(cell: str, default) -> bool:
    if default is None:
        return "none" in cell
    if is_dataclass(default):  # an object whose every key takes its own default
        return "`{}`" in cell
    if isinstance(default, str):
        return f"`{default}`" in cell
    return any(float(x) == default for x in re.findall(r"-?\d+(?:\.\d+)?(?:e-?\d+)?", cell))


def test_schema_doc_names_every_key_and_default():
    doc = SCHEMA_DOC.read_text(encoding="utf-8")
    # a distribution's and a membrane's `kind` and a distribution's parameters are named
    # by the reader, not by a field
    keys = {f.name for cls in SCHEMA for f in fields(cls)} | {"kind"}
    keys |= {name for names in _DIST_FIELDS.values() for name in names}
    missing = sorted(k for k in keys if f"`{k}`" not in doc)
    assert not missing, f"keys the parser accepts but the schema doc never names: {missing}"
    documented = documented_defaults(doc)
    wrong = [f"{cls.__name__}.{f.name} = {f.default!r}" for cls in SCHEMA for f in fields(cls)
             if f.default is not MISSING
             and not any(shows(cell, f.default) for cell in documented.get(f.name, ()))]
    assert not wrong, f"defaults the schema doc does not give beside their key: {wrong}"


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


@pytest.mark.parametrize("sweep_n, code", [([8, 16, 32], 0), ([8, 16], 2)])
def test_cli_validate_checks_a_spec_by_the_command_it_names(tmp_path, sweep_n, code):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec_dict(command="chaos-sweep", sweep_n=sweep_n)))
    res = run_cli(["validate", "--spec", str(path)], tmp_path)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    if code:
        assert "spec.sweep_n: chaos-sweep needs at least three sizes" in res.stderr
    else:
        assert "all properties hold" in res.stdout


@pytest.mark.parametrize("name", ["demo_fhn.json", "demo_hh.json"])
def test_cli_validate_accepts_the_demo_specs(tmp_path, name):
    res = run_cli(["validate", "--spec", str(ROOT / "specs" / name)], tmp_path)
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


@pytest.mark.parametrize("workers", ["abc", "0"])
def test_cli_simulate_refuses_a_bad_worker_count(spec_file, tmp_path, workers):
    r = run_cli(["simulate", "--spec", str(spec_file), "--out", "w"], tmp_path,
                {"NEUROMF_WORKERS": workers})
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert f"NEUROMF_WORKERS = {workers!r}" in r.stderr
    assert not (tmp_path / "w").exists()  # refused before --out is made


# (command line, what the refusal names): "{spec}" stands for a good spec;
# "somedir" is a directory, "taken" a file, and "latin.json" and
# "latin.csv" files with a label written as Latin-1, in the working directory
BAD_PATHS = [
    pytest.param(["simulate", "--spec", "nope.json", "--out", "o"], "--spec nope.json",
                 id="spec_missing"),
    pytest.param(["chaos-sweep", "--spec", "{spec}", "--out", "o", "--curve", "nope.csv"],
                 "--curve nope.csv", id="curve_missing"),
    pytest.param(["chaos-sweep", "--spec", "{spec}", "--out", "o", "--curve", "somedir"],
                 "--curve somedir", id="curve_is_a_directory"),
    pytest.param(["meanfield", "--spec", "{spec}", "--out", "taken"], "--out taken",
                 id="out_is_a_file"),
    pytest.param(["simulate", "--spec", "{spec}", "--out", "taken/sub"],
                 "--out taken/sub: cannot make the output directory: taken is not a directory",
                 id="out_under_a_file"),
    pytest.param(["meanfield", "--spec", "latin.json", "--out", "o"],
                 "--spec latin.json: cannot read the spec: 'utf-8' codec can't decode",
                 id="spec_not_utf8"),
    pytest.param(["chaos-sweep", "--spec", "{spec}", "--out", "o", "--curve", "latin.csv"],
                 "--curve latin.csv: cannot read the mean curve: 'utf-8' codec can't decode",
                 id="curve_not_utf8"),
]


@pytest.mark.parametrize("argv, names", BAD_PATHS)
def test_cli_refuses_a_bad_path_before_making_the_output(spec_file, tmp_path, argv, names):
    (tmp_path / "somedir").mkdir()
    (tmp_path / "taken").write_text("")
    (tmp_path / "latin.json").write_bytes('{"config": {"label": "exé_a"}}'.encode("latin-1"))
    (tmp_path / "latin.csv").write_bytes(
        "# seed=1\ntime_ms,population,m_s,y_bar,se\n0.0,exé_a,0.2,0.1,0.0\n".encode("latin-1"))
    before = sorted(tmp_path.iterdir())
    r = run_cli([a.replace("{spec}", str(spec_file)) for a in argv], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert names in r.stderr
    assert sorted(tmp_path.iterdir()) == before and (tmp_path / "taken").is_file()


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


def test_chaos_sweep_spec_needs_two_paths(tmp_path):
    one = tiny_spec_dict(n_paths=1)
    parse_spec(json.dumps(one), "simulate")  # one path simulates fine
    with pytest.raises(ConfigError) as exc:
        parse_spec(json.dumps(one), "chaos-sweep")
    assert any(e.startswith("spec.n_paths:") and "two" in e for e in exc.value.errors)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(one))
    r = run_cli(["chaos-sweep", "--spec", str(path), "--out", "cs"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "spec.n_paths" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "cs").exists()


def test_chaos_sweep_spec_errors_come_in_one_round():
    spec = tiny_spec_dict(n_paths=1)
    del spec["sweep_n"]
    with pytest.raises(ConfigError) as exc:
        parse_spec(json.dumps(spec), "chaos-sweep")
    assert [e.split(":")[0] for e in exc.value.errors] == ["spec.n_paths", "spec.sweep_n"]
    assert "list of network sizes" in exc.value.errors[1]
    del spec["n_paths"]
    parse_spec(json.dumps(spec), "simulate")  # only chaos-sweep needs sizes


def test_cli_chaos_sweep_refuses_an_interaction_free_spec(tmp_path):
    # the exact coupling gives D = 0 at every size: no rate to fit
    config = interaction_free(fhn_chaos_sweep(n_per_pop=2, t_end=0.5, n_steps=50, thin=10))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec_dict(m_copies=100, sweep_n=[4, 8, 16],
                                              config=config_to_dict(config))))
    r = run_cli(["chaos-sweep", "--spec", str(path), "--out", "cs"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    for n in (4, 8, 16):
        assert f"D({n}) = 0" in r.stderr
    assert not (tmp_path / "cs").exists()  # --out waits for the sweep


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_refuses_trajectories_larger_than_memory(tmp_path, workers):
    # 2,000,000 paths x 1024 neurons x 100,001 stored nodes, five arrays:
    # about 8e18 bytes, refused before anything is allocated, whatever the
    # worker count
    config = fhn_two_pop(n_per_pop=512, n_steps=100_000, t_end=1000.0, thin=1)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec_dict(n_paths=2_000_000, config=config_to_dict(config))))
    r = run_cli(["simulate", "--spec", str(path), "--out", "big"], tmp_path, {"NEUROMF_WORKERS": workers})
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    for name in ("spec.n_paths = 2000000", "spec.config.thin = 1",
                 "spec.config.grid.n_steps = 100000", f"store {8 * 5 * 2_000_000 * 100_001 * 1024} bytes"):
        assert name in r.stderr
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_refuses_huge_populations_before_the_plan(tmp_path, workers):
    # 2**37 neurons per population: the per-column plan alone would take
    # terabytes, so the trajectories are refused before it is built
    config = fhn_two_pop(n_per_pop=1 << 37, n_steps=10, t_end=0.1, thin=10)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec_dict(n_paths=2, config=config_to_dict(config))))
    r = run_cli(["simulate", "--spec", str(path), "--out", "big"], tmp_path, {"NEUROMF_WORKERS": workers})
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    for name in (f"spec.config.populations[0].n = {1 << 37}", f"spec.config.populations[1].n = {1 << 37}",
                 f"store {8 * 5 * 2 * 2 * (1 << 38)} bytes of trajectories"):
        assert name in r.stderr
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize("command", ["meanfield", "chaos-sweep"])
def test_cli_refuses_copies_that_cannot_fit(tmp_path, command):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec_dict(m_copies=1 << 37)))
    r = run_cli([command, "--spec", str(path), "--out", "big"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert f"spec.m_copies = {1 << 37} limit copies per population: one batch holds at least" in r.stderr
    assert not (tmp_path / "big").exists()


def test_cli_chaos_sweep_refuses_a_largest_size_that_cannot_fit(tmp_path):
    # the curve is solved from 200 copies; the sweep then refuses its last
    # size, 2**37 neurons per population, before its first coupled run
    ns = [8, 16, 1 << 38]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec_dict(sweep_n=ns)))
    r = run_cli(["chaos-sweep", "--spec", str(path), "--out", "big"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert f"spec.sweep_n = {ns}: the coupled pair at N = {1 << 38}: one batch holds at least" in r.stderr
    assert not (tmp_path / "big").exists()


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    code = "import sys, neuromf.cli; print('scipy.stats' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=package_env(),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_import_loads_no_scipy(tmp_path):
    # nor does a rate fit of up to 32 sizes, which reads the tabulated t quantile
    code = ("import sys, neuromf.cli\n"
            "from neuromf.chaos import fit_rate\n"
            "fit_rate([(n, n ** -0.5) for n in range(3, 35)])\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=package_env(),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


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
    pytest.param(_CURVE_HEADER + "0.0,exc,0.2,0.1,0.0\n0.0,inh,0.2,nan,0.0\n",
                 "data row 2, column y_bar: 'nan' is not finite", id="non_finite_cell"),
    pytest.param(_CURVE_HEADER + "0.0,exc,0.2,0.1,0.0\n0.01,exc,0.2,0.1,0.0\n"
                 "0.5,inh,0.2,0.1,0.0\n0.51,inh,0.2,0.1,0.0\n",
                 "population 'inh': time_ms at data row 3 is 0.5, not 0.0 as in population 'exc'",
                 id="shifted_population_times"),
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


def test_cli_refuses_a_curve_of_other_populations(spec_file, tmp_path):
    # the right hash and grid, but the rows of 'exc' renamed
    cfg = parse_spec(spec_file.read_text()).config
    n_nodes = cfg.grid.n_steps + 1
    curve = MeanCurve(times=cfg.grid.times(), labels=["nobody", "inh"],
                      m_s=np.full((2, n_nodes), 0.2), y_bar=np.full((2, n_nodes), 0.1))
    path = tmp_path / "meancurve.csv"
    write_meancurve_csv(curve, config_hash(cfg), cfg.seed, path)
    r = run_cli(["chaos-sweep", "--spec", str(spec_file), "--out", "cs", "--curve", str(path)],
                tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert ("mean curve populations ['nobody', 'inh'] do not match "
            "the configuration's populations ['exc', 'inh']") in r.stderr
    assert not (tmp_path / "cs").exists()


def test_cli_refuses_a_curve_on_another_grid(spec_file, tmp_path):
    # the right hash and populations, but every node at twice its time
    cfg = parse_spec(spec_file.read_text()).config
    n_nodes = cfg.grid.n_steps + 1
    curve = MeanCurve(times=2.0 * cfg.grid.times(), labels=cfg.labels,
                      m_s=np.full((2, n_nodes), 0.2), y_bar=np.full((2, n_nodes), 0.1))
    path = tmp_path / "meancurve.csv"
    write_meancurve_csv(curve, config_hash(cfg), cfg.seed, path)
    r = run_cli(["chaos-sweep", "--spec", str(spec_file), "--out", "cs", "--curve", str(path)],
                tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert "mean curve grid does not match the configuration grid" in r.stderr
    assert not (tmp_path / "cs").exists()


def test_cli_refuses_a_curve_outside_the_unit_interval(spec_file, tmp_path):
    # the right hash, grid and populations, but one y_bar cell above 1
    cfg = parse_spec(spec_file.read_text()).config
    n_nodes = cfg.grid.n_steps + 1
    y_bar = np.full((2, n_nodes), 0.1)
    y_bar[1, 3] = 1.5
    curve = MeanCurve(times=cfg.grid.times(), labels=cfg.labels, m_s=np.full((2, n_nodes), 0.2),
                      y_bar=y_bar)
    path = tmp_path / "meancurve.csv"
    write_meancurve_csv(curve, config_hash(cfg), cfg.seed, path)
    r = run_cli(["chaos-sweep", "--spec", str(spec_file), "--out", "cs", "--curve", str(path)],
                tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert "interaction curve y_bar of population 'inh' is 1.5 at node 3, outside [0, 1]" in r.stderr
    assert not (tmp_path / "cs").exists()


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
