"""Output checks of the benchmark workloads, run outside the timed region.

Each check reads the artifacts a command wrote into `out`, together with
the spec it ran, and raises `CheckFailed` when they break a property of
the method or disagree with an independent computation.  Nothing is
compared against stored copies of earlier outputs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from neuromf import artifacts, chaos, meanfield, network, presets
from neuromf.configio import ExperimentSpec, config_hash

# |y_bar - trapezoid ODE solution| <= ODE_C * dt**2: ten times the largest
# gap seen on the meanfield_fhn preset at dt = 0.01 and 0.02 ms, where it
# scaled as dt**2 (4.5e-7 and 1.8e-6).
ODE_C = 0.05


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path) as f:
        rows = list(csv.reader(line for line in f if not line.startswith("# ")))
    return rows[0], rows[1:]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# simulate


def n_stored(n_steps: int, thin: int) -> int:
    return len(range(0, n_steps + 1, thin)) + (1 if n_steps % thin else 0)


def check_ensemble_ranges(out: Path, spec: ExperimentSpec) -> None:
    """Proportions y, n, m, h in [0, 1]; conductances j >= 0; potentials finite."""
    with np.load(out / "ensemble.npz") as z:
        keys = set(z.files)
        for name in ("y", "n", "m", "h"):
            _require(f"data_{name}" in keys, f"ensemble.npz has no {name} component")
            x = z[f"data_{name}"]
            _require(bool(np.all((x >= 0.0) & (x <= 1.0))), f"{name} leaves [0, 1]")
        _require("j" in keys, "ensemble.npz has no conductances")
        _require(bool(np.all(z["j"] >= 0.0)), "a conductance j is negative or NaN")
        _require(bool(np.all(np.isfinite(z["data_v"]))), "a membrane potential is not finite")


def check_csv_matches_npz(out: Path, spec: ExperimentSpec) -> None:
    """ensemble.csv holds the npz's values, one row per (path, stored time, neuron)."""
    cfg = spec.config
    N, P = cfg.total_neurons, len(cfg.populations)
    S = n_stored(cfg.grid.n_steps, cfg.thin)
    header, rows = _table(out / "ensemble.csv")
    _require(len(rows) == spec.n_paths * S * N,
             f"ensemble.csv has {len(rows)} rows, expected {spec.n_paths} x {S} x {N}")
    col = {name: i for i, name in enumerate(header)}
    num = np.asarray([[float(r[i]) for i in range(len(header)) if header[i] != "population"]
                      for r in rows]).reshape(spec.n_paths, S, N, -1)
    ncol = {name: i for i, name in enumerate(h for h in header if h != "population")}
    labels = np.asarray([r[col["population"]] for r in rows]).reshape(spec.n_paths, S, N)
    with np.load(out / "ensemble.npz") as z:
        _require(_same_bits(num[..., ncol["path"]], np.arange(spec.n_paths)[:, None, None]
                            * np.ones((1, S, N))), "path column out of order")
        _require(_same_bits(num[..., ncol["neuron"]], np.arange(N)[None, None, :]
                            * np.ones((spec.n_paths, S, 1))), "neuron column out of order")
        _require(np.allclose(num[..., ncol["time_ms"]], z["times"][None, :, None], rtol=1e-6, atol=0),
                 "time column differs from the npz times")
        _require(bool(np.all(labels == np.asarray(cfg.labels)[z["pop_of"]])),
                 "population column differs from the npz population map")
        for name in ("v", "y", "n", "m", "h"):
            _require(_same_bits(num[..., ncol[name]], z[f"data_{name}"]),
                     f"csv column {name} differs from the npz")
        for g, label in enumerate(cfg.labels):
            _require(_same_bits(num[..., ncol[f"j_{label}"]], z["j"][..., g]),
                     f"csv column j_{label} differs from the npz")
    _require(len(header) == 4 + 5 + P, f"unexpected csv columns {header}")


def replay_path(spec: ExperimentSpec) -> int:
    return spec.config.seed % spec.n_paths


def check_path_replay(out: Path, spec: ExperimentSpec) -> None:
    """Path k simulated alone (path_offset=k) matches row k of the ensemble bit for bit."""
    k = replay_path(spec)
    alone = network.simulate(spec.config, n_paths=1, path_offset=k)
    with np.load(out / "ensemble.npz") as z:
        for name in ("v", "y", "n", "m", "h"):
            _require(_same_bits(z[f"data_{name}"][k], alone.data[name][0]),
                     f"path {k} re-simulated alone differs in {name}")
        _require(_same_bits(z["j"][k], alone.j[0]), f"path {k} re-simulated alone differs in j")


# ---------------------------------------------------------------------------
# meanfield


def check_converged(out: Path, spec: ExperimentSpec) -> None:
    """The run reports convergence, with its last gap below tol."""
    summary = json.loads((out / "meanfield_summary.json").read_text())
    _require(summary["converged"] is True, "meanfield reports no convergence")
    _require(1 <= summary["iterations"] <= spec.max_iter, "iteration count out of range")
    _require(0 <= summary["distances"][-1] < spec.tol, "last fixed-point gap is not below tol")


def _written_curve(out: Path, spec: ExperimentSpec):
    return artifacts.read_meancurve_csv(out / "meancurve.csv", expect_hash=config_hash(spec.config))


def check_fixed_point(out: Path, spec: ExperimentSpec) -> None:
    """One more curve-map evaluation from the written y_bar moves it by at most tol."""
    cfg = spec.config
    curve = _written_curve(out, spec)
    ens = meanfield.simulate_limit_given_ybar(curve.y_bar, cfg, spec.m_copies)
    m_s = ens.block_means["s"]
    for a, (pop, _) in enumerate(cfg.populations):
        y0 = cfg.init[pop.label].y.mean()
        mapped = meanfield.ybar_from_ms(m_s[a], y0, pop.rise_rate, pop.decay_rate, cfg.grid)
        gap = float(np.max(np.abs(mapped - curve.y_bar[a])))
        _require(gap <= spec.tol, f"{pop.label}: one more curve map moves y_bar by {gap:.3g} > tol")


def trapezoid_ybar(m_s: np.ndarray, y0: float, rise: float, decay: float, dt: float) -> np.ndarray:
    """dy/dt = rise m_S(t) (1 - y) - decay y by the trapezoid rule (Crank-Nicolson)."""
    y = np.empty_like(m_s)
    y[0] = y0
    h = 0.5 * dt
    for k in range(len(m_s) - 1):
        f0 = rise * m_s[k] * (1.0 - y[k]) - decay * y[k]
        y[k + 1] = (y[k] + h * (f0 + rise * m_s[k + 1])) / (1.0 + h * (rise * m_s[k + 1] + decay))
    return y


def check_ode(out: Path, spec: ExperimentSpec) -> None:
    """y_bar matches a trapezoid integration of the written m_s within ODE_C dt^2."""
    cfg = spec.config
    curve = _written_curve(out, spec)
    dt = cfg.grid.dt
    for a, (pop, _) in enumerate(cfg.populations):
        y0 = cfg.init[pop.label].y.mean()
        ref = trapezoid_ybar(curve.m_s[a], y0, pop.rise_rate, pop.decay_rate, dt)
        gap = float(np.max(np.abs(ref - curve.y_bar[a])))
        _require(gap <= ODE_C * dt * dt,
                 f"{pop.label}: y_bar departs from the ODE solution by {gap:.3g} > {ODE_C} dt^2")


# ---------------------------------------------------------------------------
# chaos-sweep


def _chaos_rows(out: Path) -> np.ndarray:
    header, rows = _table(out / "chaos_report.csv")
    _require(header == ["N", "D_hat", "SE", "sqrtN_times_D"], f"unexpected columns {header}")
    return np.asarray([[float(x) for x in r] for r in rows]).reshape(-1, 4)


def check_chaos_rows(out: Path, spec: ExperimentSpec) -> None:
    """One row per N of the sweep; D and SE positive and finite."""
    t = _chaos_rows(out)
    _require(t[:, 0].tolist() == [float(n) for n in spec.sweep_n], "rows do not list sweep_n in order")
    for n, d, se, _ in t:
        _require(math.isfinite(d) and d > 0, f"N={n:g}: D = {d} is not positive and finite")
        _require(math.isfinite(se) and se > 0, f"N={n:g}: SE = {se} is not positive and finite")


def check_sqrtn(out: Path, spec: ExperimentSpec) -> None:
    """sqrtN_times_D equals sqrt(N) * D."""
    for n, d, _, q in _chaos_rows(out):
        _require(math.isclose(q, math.sqrt(n) * d, rel_tol=1e-12, abs_tol=0.0),
                 f"N={n:g}: sqrtN_times_D = {q} but sqrt(N) D = {math.sqrt(n) * d}")


def check_slope(out: Path, spec: ExperimentSpec) -> None:
    """The summary's slope equals a least-squares fit of log D on log N."""
    t = _chaos_rows(out)
    summary = json.loads((out / "chaos_summary.json").read_text())
    slope = float(np.polyfit(np.log(t[:, 0]), np.log(t[:, 1]), 1)[0])
    _require(math.isclose(summary["slope"], slope, rel_tol=1e-9, abs_tol=1e-12),
             f"summary slope {summary['slope']} but the log-log fit gives {slope}")


def check_decreasing(out: Path, spec: ExperimentSpec) -> None:
    """D falls as N grows and the fitted slope is negative: propagation of chaos."""
    d = _chaos_rows(out)[:, 1]
    _require(bool(np.all(np.diff(d) < 0)), f"D does not decrease in N: {d.tolist()}")
    slope = json.loads((out / "chaos_summary.json").read_text())["slope"]
    _require(slope < 0, f"log-log slope {slope} is not negative")


def check_interaction_free(out: Path, spec: ExperimentSpec, *, make_free=presets.interaction_free) -> None:
    """With every connection off, the coupling is exact: D = 0 and the largest gap is 0."""
    cfg = make_free(spec.config.with_total_neurons(spec.sweep_n[0]))
    curve = np.zeros((len(cfg.populations), cfg.grid.n_steps + 1))
    run = chaos.run_coupled(cfg, curve, n_paths=4)
    d, _ = chaos.estimate_distance(run)
    _require(d == 0.0, f"interaction-free D = {d}, expected exactly 0")
    _require(run.max_gap_all == 0.0, f"interaction-free largest gap {run.max_gap_all}, expected 0")


CHECKS = {
    "simulate_hh": [check_ensemble_ranges, check_csv_matches_npz, check_path_replay],
    "meanfield_fhn": [check_converged, check_fixed_point, check_ode],
    "chaos_sweep_fhn": [check_chaos_rows, check_sqrtn, check_slope, check_decreasing,
                        check_interaction_free],
}


def run_checks(workload: str, out: Path, spec: ExperimentSpec) -> list[str]:
    """Messages of the checks that failed; empty when every check passes."""
    failures = []
    for check in CHECKS[workload]:
        try:
            check(out, spec)
        except (CheckFailed, OSError, KeyError, IndexError, ValueError) as e:
            failures.append(f"{check.__name__}: {type(e).__name__}: {e}")
    return failures
