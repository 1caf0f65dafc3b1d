"""Time grid and the one-step integration kernels.

The kernels discretize by explicit Euler and enforce in discrete time the
structural facts the continuous dynamics already have: proportion
variables are projected back onto [0, 1] (the inward boundary drift and
the vanishing diffusion outside (0, 1) make the projection activate only
on O(dt) overshoot), and the mean-reverting square-root conductance is
advanced by full truncation so it can never leave [0, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import SimulationDiverged

Array = Union[float, np.ndarray]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt on [0, t_end] with dt = t_end / n_steps.

    n_steps = 0 is allowed only as the degenerate sample-the-initial-state
    grid, with t_end = 0.
    """

    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 0:
            raise ValueError("grid.n_steps must be >= 0")
        if self.n_steps == 0:
            if self.t_end != 0.0:
                raise ValueError("grid.n_steps = 0 requires t_end = 0")
        elif not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError("grid.t_end must be finite and > 0")

    @property
    def dt(self) -> float:
        if self.n_steps == 0:
            return 0.0
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


@dataclass(frozen=True)
class CirParams:
    """Mean-reverting square-root conductance parameters.

    j_mean = 0 (a connection switched off) degenerates to pure decay
    toward zero and is allowed; the stepper below stays nonnegative either
    way.
    """

    theta: float   # 1/ms
    j_mean: float  # mS/cm^2
    sigma_j: float

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError("cir.theta must be > 0")
        if self.j_mean < 0:
            raise ValueError("cir.j_mean must be >= 0")
        if self.sigma_j < 0:
            raise ValueError("cir.sigma_j must be >= 0")


def _reject_nonfinite(z: Array, *inputs: Array) -> None:
    if np.all(np.isfinite(z)):
        return
    for idx, arr in enumerate(inputs):
        bad = ~np.isfinite(np.asarray(arr, dtype=float))
        if np.any(bad):
            where = np.argwhere(np.atleast_1d(bad))[:5].tolist()
            raise SimulationDiverged(
                f"non-finite input #{idx} to step kernel at flat indices {where}"
            )
    raise SimulationDiverged("step kernel overflowed to a non-finite value")


def step_euler_confined(x: Array, drift: Array, diffusion: Array, dt: float, dw: Array) -> Array:
    """One Euler step projected onto [0, 1].

    Returns exactly 0.0 or 1.0 at the boundary, never a value outside.
    Non-finite inputs are rejected with a diagnostic; they signal an
    upstream instability, not a projection case.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    z = x + drift * dt + diffusion * dw
    _reject_nonfinite(z, x, drift, diffusion, dw)
    # np.clip bit for bit, -0.0 included: the bounds go first, as numpy's
    # maximum and minimum return their second operand on a tie
    return np.minimum(1.0, np.maximum(0.0, z))


def step_cir(j: Array, p: CirParams, dt: float, dw: Array) -> Array:
    """Full-truncation Euler step of the square-root mean-reverting SDE.

    j' = j + theta * (j_mean - j+) dt + sigma_j * sqrt(j+) dW, then
    projected onto [0, inf).  The diffusion vanishes at 0, so truncation
    only trims O(dt) overshoot.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    jp = np.maximum(j, 0.0)
    z = j + p.theta * (p.j_mean - jp) * dt + p.sigma_j * np.sqrt(jp) * dw
    _reject_nonfinite(z, j, dw)
    return np.maximum(z, 0.0)

