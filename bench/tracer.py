"""Span tracing of the engine layers, from outside the package.

`Tracer.install` replaces each traced function by a wrapper at the place
its caller looks it up (for example `neuromf.network.eval_membrane_drift`,
the name `_advance` calls), so no file of the package changes.  Each call
becomes a span: name, parent span, start and end.  Spans are appended to
flat arrays while the command runs and saved once it has returned;
`summarize` turns a saved trace into per-name counts, total and self time
(a span's duration minus the durations of its direct children).

Counters that ratios need (normals drawn, neuron-steps, rows written) are
read from each wrapped call's arguments or result.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _refill_normals(c, result, noise, k0):
    c["rng.normals"] += (noise._hi - noise._lo) * len(noise.path_ids) * noise.n_cols * len(noise.components)


def _one(key):
    def count(c, result, *args, **kwargs):
        c[key] += 1
    return count


def _simulate_steps(c, result, config, n_paths=1, **kwargs):
    c["network.neuron_steps"] += n_paths * config.total_neurons * config.grid.n_steps


def _coupled_steps(c, result, config, ybar_curve, n_paths, **kwargs):
    # the network and its copy system each advance every column
    c["network.neuron_steps"] += 2 * n_paths * config.total_neurons * config.grid.n_steps


def _limit_sweep(c, result, y_bar, config, m_copies, **kwargs):
    c["meanfield.curve_maps"] += 1
    c["meanfield.copy_steps"] += m_copies * len(config.populations) * config.grid.n_steps


def _bytes_of(*positions):
    def count(c, result, *args, **kwargs):
        for i in positions:
            c["artifacts.bytes"] += os.path.getsize(args[i])
    return count


def _ensemble_rows(c, result, ens, path):
    c["artifacts.csv_rows"] += ens.data["v"].size
    c["artifacts.bytes"] += os.path.getsize(path)


def _meancurve_rows(c, result, curve, config_hash, seed, path):
    c["artifacts.csv_rows"] += curve.m_s.size
    c["artifacts.bytes"] += os.path.getsize(path)


# (module, attribute path as the caller looks it up, span name, counter)
TARGETS = [
    ("neuromf.configio", "parse_spec", "configio.parse", None),
    ("neuromf.rng", "BlockNoise._refill", "rng.refill", _refill_normals),
    ("neuromf.rng", "block_stream", "rng.stream", _one("rng.streams")),
    ("neuromf.network", "eval_membrane_drift", "model.membrane_drift", None),
    ("neuromf.network", "recovery_drift", "model.recovery_drift", None),
    ("neuromf.network", "synapse_fields", "model.synapse_fields", None),
    ("neuromf.network", "gate_fields", "model.gate_fields", None),
    ("neuromf.network", "eval_sigmoid", "model.sigmoid", None),
    ("neuromf.model", "eval_sigmoid", "model.sigmoid", None),
    ("neuromf.model", "eval_cutoff", "model.cutoff", None),
    ("neuromf.network", "step_euler_confined", "stepping.confined", None),
    ("neuromf.network", "step_cir", "stepping.cir", None),
    ("neuromf.network", "population_sums", "network.population_sums", None),
    ("neuromf.parallel", "simulate", "network.simulate", _simulate_steps),
    ("neuromf.meanfield", "simulate", "network.simulate", _simulate_steps),
    ("neuromf.chaos", "coupled_distance_paths", "network.coupled", _coupled_steps),
    ("neuromf.meanfield", "solve_fixed_point", "meanfield.solve", None),
    ("neuromf.chaos", "solve_fixed_point", "meanfield.solve", None),
    ("neuromf.meanfield", "simulate_limit_given_ybar", "meanfield.limit_sweep", _limit_sweep),
    ("neuromf.meanfield", "ybar_from_ms", "meanfield.ybar_from_ms", None),
    ("neuromf.chaos", "sweep", "chaos.sweep", None),
    ("neuromf.chaos", "run_coupled", "chaos.run_coupled", _one("chaos.coupled_runs")),
    ("neuromf.artifacts", "write_ensemble_csv", "artifacts.ensemble_csv", _ensemble_rows),
    ("neuromf.artifacts", "write_ensemble_npz", "artifacts.ensemble_npz", _bytes_of(1)),
    ("neuromf.artifacts", "write_meancurve_csv", "artifacts.meancurve_csv", _meancurve_rows),
    ("neuromf.artifacts", "write_chaos_report", "artifacts.chaos_report", _bytes_of(3, 4)),
    ("neuromf.artifacts", "write_meanfield_summary", "artifacts.meanfield_summary", _bytes_of(3)),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.counter_errors: set[str] = set()

    def wrap(self, name: str, fn, count=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            idx = len(self.t0)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.t1.append(0.0)
            self._stack.append(idx)
            self.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[idx] = perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    count(self.counters, result, *args, **kwargs)
                except (TypeError, AttributeError, KeyError, OSError):
                    # a changed signature loses the counter, not the run
                    self.counter_errors.add(name)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; name the ones that do not on stderr."""
        for module, attr, name, count in TARGETS:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                print(f"trace: {module}.{attr} not found; its layer metrics read 0", file=sys.stderr)
                continue
            setattr(owner, leaf, self.wrap(name, fn, count))

    def save(self, path: Path) -> None:
        import numpy as np

        for name in sorted(self.counter_errors):
            print(f"trace: the counters of {name} could not be read", file=sys.stderr)
        np.savez(path, names=np.asarray(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), t0=np.asarray(self.t0), t1=np.asarray(self.t1),
                 counter_names=np.asarray(sorted(self.counters)),
                 counter_values=np.asarray([self.counters[k] for k in sorted(self.counters)],
                                           dtype=np.int64))


def summarize(path: Path) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
    """Per span name {count, total_s, self_s}, and the counters, of a saved trace."""
    import numpy as np

    with np.load(path) as z:
        names, name_id, parent = list(z["names"]), z["name_id"], z["parent"]
        dur = z["t1"] - z["t0"]
        counters = dict(zip(z["counter_names"].tolist(), z["counter_values"].tolist()))
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    spans = {}
    for i, name in enumerate(names):
        sel = name_id == i
        spans[str(name)] = {"count": int(sel.sum()), "total_s": float(dur[sel].sum()),
                            "self_s": float(self_time[sel].sum())}
    return spans, counters


def layer_metrics(spans: dict[str, dict[str, float]], counters: dict[str, int]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run: name -> (value, unit).

    Times named `*_s` are self times unless the name says otherwise; a
    layer the workload never enters reads 0.
    """
    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(*names):
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    normals = counters.get("rng.normals", 0)
    steps = counters.get("network.neuron_steps", 0)
    rows = counters.get("artifacts.csv_rows", 0)
    return {
        "rng.busy_s": (self_s("rng.refill", "rng.stream"), "s"),
        "rng.normals": (normals, "count"),
        "rng.ns_per_normal": (per(total_s("rng.refill"), normals, 1e9), "ns"),
        "rng.streams": (counters.get("rng.streams", 0), "count"),
        "model.membrane_drift_s": (self_s("model.membrane_drift"), "s"),
        "model.recovery_drift_s": (self_s("model.recovery_drift"), "s"),
        "model.synapse_fields_s": (self_s("model.synapse_fields"), "s"),
        "model.gate_fields_s": (self_s("model.gate_fields"), "s"),
        "model.sigmoid_s": (self_s("model.sigmoid"), "s"),
        "model.cutoff_s": (self_s("model.cutoff"), "s"),
        "stepping.confined_s": (self_s("stepping.confined"), "s"),
        "stepping.cir_s": (self_s("stepping.cir"), "s"),
        "network.simulate_self_s": (self_s("network.simulate"), "s"),
        "network.coupled_self_s": (self_s("network.coupled"), "s"),
        "network.population_sums_s": (self_s("network.population_sums"), "s"),
        "network.neuron_steps": (steps, "count"),
        "network.ns_per_neuron_step": (
            per(total_s("network.simulate", "network.coupled"), steps, 1e9), "ns"),
        "meanfield.solve_s": (total_s("meanfield.solve"), "s"),
        "meanfield.solve_self_s": (self_s("meanfield.solve", "meanfield.limit_sweep"), "s"),
        "meanfield.curve_maps": (counters.get("meanfield.curve_maps", 0), "count"),
        "meanfield.copy_steps": (counters.get("meanfield.copy_steps", 0), "count"),
        "meanfield.ybar_from_ms_s": (self_s("meanfield.ybar_from_ms"), "s"),
        "chaos.sweep_self_s": (self_s("chaos.sweep", "chaos.run_coupled"), "s"),
        "chaos.coupled_runs": (counters.get("chaos.coupled_runs", 0), "count"),
        "artifacts.ensemble_csv_s": (total_s("artifacts.ensemble_csv"), "s"),
        "artifacts.ensemble_npz_s": (total_s("artifacts.ensemble_npz"), "s"),
        "artifacts.meancurve_csv_s": (total_s("artifacts.meancurve_csv"), "s"),
        "artifacts.bytes": (counters.get("artifacts.bytes", 0), "bytes"),
        "artifacts.csv_rows": (rows, "count"),
        "artifacts.us_per_csv_row": (
            per(total_s("artifacts.ensemble_csv", "artifacts.meancurve_csv"), rows, 1e6), "us"),
        "configio.parse_s": (total_s("configio.parse"), "s"),
    }
