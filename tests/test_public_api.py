"""The package's public surface."""

import importlib

import neuromf

# names that left the API, by the module that held them
REMOVED = {
    "neuromf.rng": ["RngStreamKey", "gaussian_increments", "MAX_NEURON"],
    "neuromf.stepping": ["step_euler_free"],
    "neuromf.model": ["synapse_drift", "synapse_diffusion", "gate_drift", "gate_diffusion"],
    "neuromf.network": ["step_network_simple", "step_network_sign_preserving", "CoupledPaths",
                        "step_network", "draw_initial_states", "network_noise"],
    "neuromf.meanfield": ["estimate_ms"],
}


def test_neuron_states_are_not_exported():
    # the engine's state record stays internal to `neuromf.network`
    assert "NeuronStates" not in neuromf.__all__


def test_every_exported_name_resolves_once():
    assert len(neuromf.__all__) == len(set(neuromf.__all__))
    for name in neuromf.__all__:
        assert hasattr(neuromf, name), name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(module)
        for name in names:
            assert name not in neuromf.__all__, name
            assert not hasattr(neuromf, name), name
            assert not hasattr(mod, name), f"{module}.{name}"
