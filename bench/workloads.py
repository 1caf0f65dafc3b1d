"""The benchmark's workloads: one experiment spec each, made from the seed.

The seed picks only the spec's `config.seed`, the root of every random
stream the run draws, so every seed asks for the same amount of work.
Sizes are fixed here; `README.md` explains why each workload is shaped the
way it is.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from neuromf import presets
from neuromf.configio import ExperimentSpec, spec_to_dict

WORKLOADS = ("simulate_hh", "meanfield_fhn", "chaos_sweep_fhn")


def config_seed(workload: str, seed: int) -> int:
    """Root seed of the spec: distinct per (workload, seed), below 2**60."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).hexdigest()
    return int(digest[:15], 16)


def make_spec(workload: str, seed: int) -> ExperimentSpec:
    s = config_seed(workload, seed)
    if workload == "simulate_hh":
        # many paths of a narrow network, every 5th of 1000 nodes stored
        config = presets.hh_two_pop(seed=s, n_per_pop=8, t_end=10.0, n_steps=1000, thin=5)
        return ExperimentSpec(command="simulate", config=config, n_paths=32, sweep_n=None,
                              m_copies=10_000, tol=1e-3, max_iter=20)
    if workload == "meanfield_fhn":
        # 2000 limit copies per population; the Picard gaps fall by about
        # 25x per sweep, so tol 1e-3 stops after 3 iterations on every seed
        config = presets.fhn_two_pop(seed=s, t_end=10.0, n_steps=500, thin=10)
        return ExperimentSpec(command="meanfield", config=config, n_paths=1, sweep_n=None,
                              m_copies=2000, tol=1e-3, max_iter=20)
    if workload == "chaos_sweep_fhn":
        # D(N) is a mean of heavy-tailed per-path sups (a neuron near
        # threshold fires on one side of the coupling only); sizes 8x apart,
        # 48 paths and a 1.5 ms horizon keep it decreasing on every seed tried
        config = presets.fhn_chaos_sweep(seed=s, t_end=1.5, n_steps=150, thin=10)
        return ExperimentSpec(command="chaos-sweep", config=config, n_paths=48,
                              sweep_n=[16, 128, 1024], m_copies=1000, tol=1e-3, max_iter=20)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def prepare(workload: str, seed: int, out: Path) -> list[str]:
    """Write the workload's spec into `out` and return the CLI arguments."""
    spec = make_spec(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")
    return [spec.command, "--spec", str(spec_path), "--out", str(out)]
