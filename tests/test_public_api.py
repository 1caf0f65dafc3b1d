"""The package's public surface."""

import importlib
import importlib.util
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import neuromf
from neuromf.meanfield import MeanFieldSolution

# names that left the API, by the module that held them
REMOVED = {
    "neuromf.rng": ["RngStreamKey", "gaussian_increments", "MAX_NEURON", "StepDraws",
                    "BlockNoise.init_stream"],
    "neuromf.stepping": ["step_euler_free", "CirParams"],
    "neuromf.model": ["synapse_drift", "synapse_diffusion", "gate_drift", "gate_diffusion",
                      "eval_gate_rates", "gate_fields", "synapse_fields"],
    "neuromf.network": ["step_network_simple", "step_network_sign_preserving", "CoupledPaths",
                        "step_network", "draw_initial_states", "network_noise",
                        "Dist.lognormal", "Dist.beta", "MeanCurve.node_distance"],
    "neuromf.meanfield": ["estimate_ms", "wasserstein2_marginal", "limit_config"],
    "neuromf.chaos": ["marginal_chaos_check", "MarginalCheck"],
    "neuromf.configio": ["config_from_dict"],
}

# parameters that left a function's signature: the batch cap is
# `network.MAX_BATCH_COLS`, the noise budget `rng.NOISE_BUDGET_BYTES`, the
# checks' grids are constants of `neuromf.model`, a sweep is given its mean
# curve, and population means are fresh arrays
REMOVED_PARAMS = {
    "neuromf.network.simulate": ["max_batch_cols"],
    "neuromf.network.coupled_distance_paths": ["path_offset", "max_batch_cols"],
    "neuromf.model.check_boundary_drift_signs": ["v_lo", "v_hi", "n_v"],
    "neuromf.model.check_diffusion_support": ["v_lo", "v_hi", "n_v"],
    "neuromf.model.check_gate_coercivity": ["v_lo", "v_hi", "n_v"],
    "neuromf.model.check_sigmoid_monotone": ["v_lo", "v_hi", "n_v"],
    "neuromf.model.check_fhn_one_sided_lipschitz": ["n_pairs", "seed"],
    "neuromf.presets.fhn_two_pop": ["j_scale"],
    "neuromf.chaos.sweep": ["m_copies", "tol"],
    "neuromf.rng.BlockNoise": ["max_bytes"],
    "neuromf.network.population_sums": ["out"],
}


def public_surface() -> tuple[int, int]:
    """Public functions over `neuromf.*` and their settable parameters.

    A function is a public module-level function, or a public method
    (classmethods and staticmethods included, properties and dunders not)
    of a public class, each counted in the module that defines it.  Its
    parameters are those of its signature, less the bound `self` or `cls`.
    """
    functions = parameters = 0
    for info in pkgutil.iter_modules(neuromf.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(f"neuromf.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                members = [m for key, m in vars(obj).items() if not key.startswith("_")]
            else:
                members = [obj]
            for m in members:
                fn = getattr(m, "__func__", m)  # a classmethod's or staticmethod's function
                if inspect.isfunction(fn):
                    bound = m is not obj and not isinstance(m, staticmethod)
                    functions += 1
                    parameters += len(inspect.signature(fn).parameters) - bound
    return functions, parameters


def test_public_surface_count():
    # retired or added surface moves these numbers; change them on purpose only
    assert public_surface() == (61, 146)


def test_benchmark_tracer_targets_resolve():
    # each target resolved as `Tracer.install` does; one that stops resolving
    # makes its layer metrics read 0, so the unresolved set is pinned
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = set()
    for module, attr, _, _ in tracer.TARGETS:
        try:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            unresolved.add(f"{module}.{attr}")
    assert unresolved == {"neuromf.network.synapse_fields", "neuromf.network.gate_fields",
                          "neuromf.chaos.solve_fixed_point", "neuromf.parallel.simulate"}


def test_solutions_keep_no_copy_trajectories():
    # the solvers keep the copies' node statistics only
    assert "ensemble" not in {f.name for f in fields(MeanFieldSolution)}


def test_neuron_states_are_not_exported():
    # the engine's state record stays internal to `neuromf.network`
    assert "NeuronStates" not in neuromf.__all__


def test_every_exported_name_resolves_once():
    assert len(neuromf.__all__) == len(set(neuromf.__all__))
    for name in neuromf.__all__:
        assert hasattr(neuromf, name), name


def _resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_removed_names_are_gone():
    # `simulate` runs in the process that calls it; the worker pool went
    assert importlib.util.find_spec("neuromf.parallel") is None
    for module, names in REMOVED.items():
        mod = importlib.import_module(module)
        for name in names:
            assert name not in neuromf.__all__, name
            assert not _resolves(neuromf, name), name
            assert not _resolves(mod, name), f"{module}.{name}"


def test_removed_parameters_are_gone():
    for function, names in REMOVED_PARAMS.items():
        module, _, attr = function.rpartition(".")
        params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        for name in names:
            assert name not in params, f"{function}({name}=)"
