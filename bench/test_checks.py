"""Each output check of the benchmark accepts real artifacts and rejects tampered ones.

    python3 -m pytest -q bench/test_checks.py

Artifacts come from the CLI on small specs of the three workload kinds;
every test then edits one artifact (or, for the interaction-free check,
leaves the interaction on) and requires the check to fail.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from neuromf import cli, presets  # noqa: E402
from neuromf.configio import ExperimentSpec, spec_to_dict  # noqa: E402

SPECS = {
    "simulate_hh": ExperimentSpec(
        command="simulate", n_paths=3, sweep_n=None, m_copies=10_000, tol=1e-3, max_iter=20,
        config=presets.hh_two_pop(seed=11, n_per_pop=2, t_end=2.0, n_steps=200, thin=10)),
    "meanfield_fhn": ExperimentSpec(
        command="meanfield", n_paths=1, sweep_n=None, m_copies=200, tol=1e-3, max_iter=20,
        config=presets.fhn_two_pop(seed=11, t_end=5.0, n_steps=250, thin=10)),
    "chaos_sweep_fhn": ExperimentSpec(
        command="chaos-sweep", n_paths=8, sweep_n=[4, 32, 256], m_copies=200, tol=1e-3,
        max_iter=20, config=presets.fhn_chaos_sweep(seed=11, t_end=2.0, n_steps=200, thin=10)),
}
REPLAYED = checks.replay_path(SPECS["simulate_hh"])


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """workload -> directory of the artifacts its small spec produced, made once."""
    made = {}

    def get(workload: str) -> Path:
        if workload not in made:
            spec = SPECS[workload]
            out = tmp_path_factory.mktemp(workload)
            (out / "spec.json").write_text(json.dumps(spec_to_dict(spec)))
            assert cli.main([spec.command, "--spec", str(out / "spec.json"), "--out", str(out)]) == 0
            made[workload] = out
        return made[workload]

    return get


def edit_table(path: Path, edit) -> None:
    """Rewrite a provenance-stamped CSV after `edit(header, rows)` changed its rows."""
    lines = path.read_text().splitlines(keepends=True)
    meta = [line for line in lines if line.startswith("# ")]
    rows = list(csv.reader(line for line in lines if not line.startswith("# ")))
    header, body = rows[0], rows[1:]
    body = edit(header, body)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    path.write_text("".join(meta) + buf.getvalue())


def set_cell(column: str, row: int, fn):
    def edit(header, body):
        i = header.index(column)
        body[row][i] = repr(fn(float(body[row][i])))
        return body
    return edit


def edit_npz(path: Path, key: str, fn) -> None:
    with np.load(path) as z:
        payload = {k: z[k] for k in z.files}
    payload[key] = fn(payload[key].copy())
    np.savez_compressed(path, **payload)


def edit_json(path: Path, key: str, value) -> None:
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))


def at(index, value):
    def fn(a):
        a[index] = value
        return a
    return fn


def nudge(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def nudge_at(index):
    def fn(a):
        a[index] = nudge(a[index])
        return a
    return fn


@pytest.mark.parametrize("workload", list(SPECS))
def test_real_artifacts_pass_every_check(produced, workload):
    assert checks.run_checks(workload, produced(workload), SPECS[workload]) == []


TAMPERS = {
    "simulate_hh": [
        ("check_ensemble_ranges", "y above 1",
         lambda out: edit_npz(out / "ensemble.npz", "data_y", at((0, 1, 0), 1.0 + 1e-12))),
        ("check_ensemble_ranges", "gate below 0",
         lambda out: edit_npz(out / "ensemble.npz", "data_m", at((2, 3, 1), -1e-300))),
        ("check_ensemble_ranges", "negative conductance",
         lambda out: edit_npz(out / "ensemble.npz", "j", at((1, 2, 0, 1), -1e-9))),
        ("check_ensemble_ranges", "non-finite v",
         lambda out: edit_npz(out / "ensemble.npz", "data_v", at((0, 5, 2), np.inf))),
        ("check_csv_matches_npz", "one csv value off by an ulp",
         lambda out: edit_table(out / "ensemble.csv", set_cell("h", 17, nudge))),
        ("check_csv_matches_npz", "last row missing",
         lambda out: edit_table(out / "ensemble.csv", lambda h, body: body[:-1])),
        ("check_path_replay", "stored path differs from its replay",
         lambda out: edit_npz(out / "ensemble.npz", "data_v", nudge_at((REPLAYED, 4, 3)))),
    ],
    "meanfield_fhn": [
        ("check_converged", "summary says not converged",
         lambda out: edit_json(out / "meanfield_summary.json", "converged", False)),
        ("check_converged", "last gap above tol",
         lambda out: edit_json(out / "meanfield_summary.json", "distances", [0.5, 2e-3])),
        ("check_fixed_point", "y_bar moved by 5 tol at one node",
         lambda out: edit_table(out / "meancurve.csv", set_cell("y_bar", 120, lambda y: y + 5e-3))),
        ("check_ode", "y_bar moved by 1e-4 at one node",
         lambda out: edit_table(out / "meancurve.csv", set_cell("y_bar", 60, lambda y: y + 1e-4))),
        ("check_ode", "m_s scaled by 1 percent",
         lambda out: edit_table(out / "meancurve.csv", lambda h, body: [
             r[:2] + [repr(float(r[2]) * 1.01)] + r[3:] for r in body])),
    ],
    "chaos_sweep_fhn": [
        ("check_chaos_rows", "row of one N missing",
         lambda out: edit_table(out / "chaos_report.csv", lambda h, body: body[:-1])),
        ("check_chaos_rows", "zero standard error",
         lambda out: edit_table(out / "chaos_report.csv", set_cell("SE", 1, lambda s: 0.0))),
        ("check_chaos_rows", "non-finite D",
         lambda out: edit_table(out / "chaos_report.csv", set_cell("D_hat", 0, lambda d: float("nan")))),
        ("check_sqrtn", "sqrtN_times_D off by 1e-9",
         lambda out: edit_table(out / "chaos_report.csv",
                                set_cell("sqrtN_times_D", 2, lambda q: q * (1 + 1e-9)))),
        ("check_slope", "summary slope off by 1e-6",
         lambda out: edit_json(out / "chaos_summary.json", "slope",
                               json.loads((out / "chaos_summary.json").read_text())["slope"] + 1e-6)),
        ("check_decreasing", "D rises between the last two sizes",
         lambda out: edit_table(out / "chaos_report.csv", lambda h, body: body[:1] + [
             body[1][:1] + body[2][1:], body[2][:1] + body[1][1:]])),
    ],
}


CASES = [(workload, *case) for workload, cases in TAMPERS.items() for case in cases]


@pytest.mark.parametrize("workload,check_name,what,tamper", CASES,
                         ids=[f"{w}-{what}" for w, _, what, _ in CASES])
def test_tampered_artifact_is_rejected(produced, tmp_path, workload, check_name, what, tamper):
    spec = SPECS[workload]
    out = tmp_path / "out"
    shutil.copytree(produced(workload), out)
    check = getattr(checks, check_name)
    check(out, spec)
    tamper(out)
    with pytest.raises(checks.CheckFailed):
        check(out, spec)


def test_every_check_has_a_tamper():
    for workload, fns in checks.CHECKS.items():
        tampered = {name for name, _, _ in TAMPERS[workload]}
        if workload == "chaos_sweep_fhn":
            tampered.add("check_interaction_free")
        assert {f.__name__ for f in fns} == tampered, workload


def test_interaction_free_check_rejects_a_coupled_network():
    spec = SPECS["chaos_sweep_fhn"]
    checks.check_interaction_free(Path("."), spec)
    with pytest.raises(checks.CheckFailed):
        checks.check_interaction_free(Path("."), spec, make_free=lambda config: config)
