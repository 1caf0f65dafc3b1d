"""File artifacts: provenance-stamped CSV tables and compact binary dumps.

Every file starts with `# key=value` comment lines carrying at least the
config hash and the seed.  Downstream commands refuse inputs whose hash
does not match their own configuration, so results can never silently mix
setups.  Nothing time- or host-dependent is written: re-running a command
with the same spec and seed reproduces each artifact byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .chaos import CouplingReport
from .errors import ConfigError
from .meanfield import MeanCurve, MeanFieldSolution
from .network import PathEnsemble


def _header_lines(meta: dict[str, object]) -> str:
    return "".join(f"# {k}={v}\n" for k, v in meta.items())


def _write_table(path: Path, meta: dict[str, object], columns: list[str],
                 rows) -> None:
    buf = io.StringIO()
    buf.write(_header_lines(meta))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def read_meta(path: Path) -> dict[str, str]:
    meta = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].strip().partition("=")
            meta[key] = value
    return meta


def write_ensemble_csv(ens: PathEnsemble, path: Path) -> None:
    """One row per (path, neuron, stored time); columns are the components."""
    comp_names = [c for c in ("v", "y", "w", "n", "m", "h") if c in ens.data]
    j_cols = [f"j_{l}" for l in ens.labels] if ens.j is not None else []
    columns = ["path", "time_ms", "neuron", "population"] + comp_names + j_cols
    n_paths, n_stored, n_cols = ens.data["v"].shape

    def rows():
        for p in range(n_paths):
            for s in range(n_stored):
                t = ens.times[s]
                for i in range(n_cols):
                    row = [p, f"{t:.6g}", i, ens.labels[ens.pop_of[i]]]
                    row += [repr(float(ens.data[c][p, s, i])) for c in comp_names]
                    if ens.j is not None:
                        row += [repr(float(x)) for x in ens.j[p, s, i]]
                    yield row

    _write_table(path, {"config_hash": ens.config_hash, "seed": ens.seed,
                        "n_paths": n_paths}, columns, rows())


def write_ensemble_npz(ens: PathEnsemble, path: Path) -> None:
    payload = {f"data_{k}": v for k, v in ens.data.items()}
    if ens.j is not None:
        payload["j"] = ens.j
    np.savez_compressed(
        path, times=ens.times, store_steps=ens.store_steps, pop_of=ens.pop_of,
        meta=json.dumps({"config_hash": ens.config_hash, "seed": ens.seed,
                         "labels": ens.labels}),
        **payload,
    )


def write_meancurve_csv(curve: MeanCurve, config_hash: str, seed: int, path: Path) -> None:
    columns = ["time_ms", "population", "m_s", "y_bar", "se"]

    def rows():
        for a, label in enumerate(curve.labels):
            for t, ms, yb, se in zip(curve.times, curve.m_s[a], curve.y_bar[a],
                                     curve.se[a] if curve.se is not None else np.zeros_like(curve.m_s[a])):
                yield [repr(float(t)), label, repr(float(ms)), repr(float(yb)), repr(float(se))]

    _write_table(path, {"config_hash": config_hash, "seed": seed}, columns, rows())


def read_meancurve_csv(path: Path, expect_hash: str | None = None) -> MeanCurve:
    meta = read_meta(path)
    if expect_hash is not None and meta.get("config_hash") != expect_hash:
        raise ConfigError([
            f"{path}: config hash {meta.get('config_hash')} does not match the "
            f"current configuration ({expect_hash}); refusing to mix setups"
        ])
    by_pop: dict[str, list[tuple[float, float, float, float]]] = {}
    with open(path) as f:
        lines = [l for l in f if not l.startswith("# ")]
    for row in csv.DictReader(lines):
        by_pop.setdefault(row["population"], []).append(
            (float(row["time_ms"]), float(row["m_s"]), float(row["y_bar"]), float(row["se"])))
    labels = list(by_pop)
    times = np.asarray([r[0] for r in by_pop[labels[0]]])
    m_s = np.asarray([[r[1] for r in by_pop[l]] for l in labels])
    y_bar = np.asarray([[r[2] for r in by_pop[l]] for l in labels])
    se = np.asarray([[r[3] for r in by_pop[l]] for l in labels])
    return MeanCurve(times=times, labels=labels, m_s=m_s, y_bar=y_bar, se=se)


def write_chaos_report(report: CouplingReport, config_hash: str, seed: int,
                       csv_path: Path, json_path: Path) -> None:
    columns = ["N", "D_hat", "SE", "sqrtN_times_D"]
    rows = [[n, repr(d), repr(s), repr(q)] for n, d, s, q in report.rows()]
    _write_table(csv_path, {"config_hash": config_hash, "seed": seed,
                            "n_paths": report.n_paths}, columns, rows)
    summary = {
        "config_hash": config_hash,
        "seed": seed,
        "n_paths": report.n_paths,
        "points": [{"N": n, "D_hat": d, "SE": s, "sqrtN_times_D": q}
                   for n, d, s, q in report.rows()],
        "slope": report.fit.slope,
        "intercept": report.fit.intercept,
        "slope_ci": [report.fit.ci_lo, report.fit.ci_hi],
        "excluded_points": report.fit.excluded,
    }
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def write_meanfield_summary(sol: MeanFieldSolution, config_hash: str, seed: int,
                            path: Path) -> None:
    payload = {
        "config_hash": config_hash,
        "seed": seed,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "tol": sol.tol,
        "m_copies": sol.m_copies,
        "distances": sol.distances,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
