"""Shared test helpers."""

import os
import threading
from pathlib import Path

import pytest

import neuromf
from neuromf import network

# Directory that holds the imported ``neuromf`` package: ``src/`` for a
# source checkout, ``site-packages`` for an installed copy.
PACKAGE_ROOT = str(Path(neuromf.__file__).resolve().parents[1])


def package_env(**extra: str) -> dict[str, str]:
    """Environment for a child ``python -m neuromf`` that imports the package under test.

    The child may run in another working directory, where a relative
    ``PYTHONPATH`` entry such as ``src`` no longer resolves, so the absolute
    package root goes first; inherited entries follow, empty ones dropped.
    """
    env = dict(os.environ, **extra)
    inherited = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [PACKAGE_ROOT, *inherited] if p)
    return env


def batches_of(monkeypatch, config, paths: int) -> None:
    """Cap the engine's batches (`network.MAX_BATCH_COLS`) at `paths` paths of `config`."""
    monkeypatch.setattr(network, "MAX_BATCH_COLS", paths * config.total_neurons)


def live_fill_threads(timeout: float = 5.0) -> list[threading.Thread]:
    """The `BlockNoise` helper threads still alive after a join of `timeout` seconds each."""
    left = [t for t in threading.enumerate() if t.name == "neuromf-noise-fill"]
    for t in left:
        t.join(timeout)
    return [t for t in left if t.is_alive()]


@pytest.fixture(autouse=True)
def no_fill_thread_outlives_a_test():
    yield
    alive = live_fill_threads()
    if alive:
        pytest.fail(f"{len(alive)} noise helper thread(s) still alive after the test")
