"""File artifacts: provenance-stamped CSV tables and uncompressed binary dumps.

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


def _text_cell(text: str) -> str:
    """`text` as `csv.writer` spells it inside a row: quoted only when it must be."""
    buf = io.StringIO()
    # a lone empty field would be written as "": the second field keeps the
    # cell spelled as it is in a row of several
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _float_cells(values) -> list[str]:
    """`repr` of every value as a Python float, in C order: `csv.writer`'s spelling."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _write_table(path: Path, meta: dict[str, object], header: list[str], blocks) -> None:
    """Write `# key=value` lines, the header row, then each block's rows.

    A block is a list of equally long columns of formatted cells; its rows
    are the columns zipped, so cells are formatted a column at a time and
    only one block is held in memory.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(f"# {k}={v}\n" for k, v in meta.items()))
        csv.writer(f, lineterminator="\n").writerow(header)
        for columns in blocks:
            f.write("".join([",".join(row) + "\n" for row in zip(*columns)]))


def read_meta(path: Path) -> dict[str, str]:
    meta = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].strip().partition("=")
            meta[key] = value
    return meta


def write_ensemble_csv(ens: PathEnsemble, path: Path) -> None:
    """One row per (path, stored time, neuron); columns are the components.

    The file is written path by path; within a path each component is
    formatted in one pass over its (stored time, neuron) slab.
    """
    comp_names = [c for c in ("v", "y", "w", "n", "m", "h") if c in ens.data]
    j_cols = [f"j_{l}" for l in ens.labels] if ens.j is not None else []
    header = ["path", "time_ms", "neuron", "population"] + comp_names + j_cols
    n_paths = ens.data["v"].shape[0]
    # time_ms,neuron,population does not depend on the path
    labels = [_text_cell(l) for l in ens.labels]
    neurons = [f"{i},{labels[a]}" for i, a in enumerate(ens.pop_of.tolist())]
    shared = [f"{t:.6g},{cell}" for t in ens.times.tolist() for cell in neurons]

    def blocks():
        for p in range(n_paths):
            columns = [[f"{p},{cell}" for cell in shared]]
            columns += [_float_cells(ens.data[c][p]) for c in comp_names]
            if ens.j is not None:
                columns += [_float_cells(ens.j[p, ..., a]) for a in range(len(ens.labels))]
            yield columns

    _write_table(path, {"config_hash": ens.config_hash, "seed": ens.seed,
                        "n_paths": n_paths}, header, blocks())


def write_ensemble_npz(ens: PathEnsemble, path: Path) -> None:
    payload = {f"data_{k}": v for k, v in ens.data.items()}
    if ens.j is not None:
        payload["j"] = ens.j
    np.savez(
        path, times=ens.times, store_steps=ens.store_steps, pop_of=ens.pop_of,
        meta=json.dumps({"config_hash": ens.config_hash, "seed": ens.seed,
                         "labels": ens.labels}),
        **payload,
    )


def write_meancurve_csv(curve: MeanCurve, config_hash: str, seed: int, path: Path) -> None:
    """One row per (population, node); `se` reads 0.0 when the curve has none."""
    header = ["time_ms", "population", "m_s", "y_bar", "se"]
    n_nodes = len(curve.times)
    columns = [
        _float_cells(curve.times) * len(curve.labels),
        [cell for cell in map(_text_cell, curve.labels) for _ in range(n_nodes)],
        _float_cells(curve.m_s),
        _float_cells(curve.y_bar),
        _float_cells(curve.se) if curve.se is not None else [repr(0.0)] * curve.m_s.size,
    ]
    _write_table(path, {"config_hash": config_hash, "seed": seed}, header, [columns])


def read_meancurve_csv(path: Path, expect_hash: str | None = None) -> MeanCurve:
    meta = read_meta(path)
    if expect_hash is not None and meta.get("config_hash") != expect_hash:
        raise ConfigError([
            f"{path}: config hash {meta.get('config_hash')} does not match the "
            f"current configuration ({expect_hash}); refusing to mix setups"
        ])
    by_pop: dict[str, list[tuple[float, float, float, float]]] = {}
    with open(path, encoding="utf-8") as f:
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
    header = ["N", "D_hat", "SE", "sqrtN_times_D"]
    columns = [list(map(str, report.ns)), _float_cells(report.d_hat),
               _float_cells(report.se), _float_cells(report.sqrtn_d)]
    _write_table(csv_path, {"config_hash": config_hash, "seed": seed,
                            "n_paths": report.n_paths}, header, [columns])
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
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")


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
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
