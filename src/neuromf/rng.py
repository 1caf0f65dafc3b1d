"""Deterministic stream-keyed noise.

Every random draw in the package is addressed by an explicit key, so any
sub-computation can be replayed bit for bit regardless of batching, worker
count, or which other components happen to be simulated alongside it.
This is also what lets the coupling construction hand the exact same
Brownian increments to an interacting system and to its independent-copy
counterpart.

One addressing scheme: a block stream, keyed (seed, path, component),
carries one value per (step, column) in row-major order and feeds the
vectorized engine.  The packed Philox key word also holds a fixed flag
bit (`_BLOCK_FLAG`): every value drawn depends on it, so it stays.

Successive draws from one numpy Generator concatenate exactly, so block
buffering is free to choose any chunk size without changing a single value.
`BlockNoise` uses that to draw ahead: it keeps two buffer sets, and while
the engine steps through the block in one, a helper thread fills the next
block into the other (numpy releases the interpreter lock while it fills).
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Mapping
from enum import IntEnum

import numpy as np

_MASK64 = (1 << 64) - 1
MAX_PATH = 1 << 22
MAX_COMPONENT = 1 << 16
_BLOCK_FLAG = np.uint64(1 << 62)


class Component(IntEnum):
    """Tags for the independent driving-noise families of one neuron/copy."""

    V = 0         # membrane noise
    Y = 1         # synaptic proportion noise
    GATE_N = 2
    GATE_M = 3
    GATE_H = 4
    J_BASE = 8    # + source population index: conductance noise family
    INIT_V = 16   # initial-condition draws
    INIT_Y = 17
    INIT_W = 18
    INIT_GATE_N = 19
    INIT_GATE_M = 20
    INIT_GATE_H = 21
    INIT_J_BASE = 24  # + source population index

    @staticmethod
    def j(source_index: int) -> int:
        if not 0 <= source_index < 8:
            raise ValueError("at most 8 populations are supported by the key layout")
        return int(Component.J_BASE) + source_index

    @staticmethod
    def init_j(source_index: int) -> int:
        if not 0 <= source_index < 8:
            raise ValueError("at most 8 populations are supported by the key layout")
        return int(Component.INIT_J_BASE) + source_index


def block_stream(seed: int, path: int, component: int) -> np.random.Generator:
    """Stream feeding a whole (step, column) block; see module docstring."""
    if not 0 <= path < MAX_PATH:
        raise ValueError(f"path index {path} outside [0, {MAX_PATH})")
    if not 0 <= component < MAX_COMPONENT:
        raise ValueError(f"component tag {component} outside [0, {MAX_COMPONENT})")
    packed = _BLOCK_FLAG | np.uint64((path << 40) | component)
    key = np.array([np.uint64(seed & _MASK64), packed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class StepDraws(Mapping):
    """The raw normal draws of one step: component -> (n_paths, n_cols) array.

    `stack` is the (n_components, n_paths, n_cols) array they are views
    of, in the order of `BlockNoise.components`, so components listed next
    to each other are one slice of it.
    """

    def __init__(self, stack: np.ndarray, rows: dict[int, int]):
        self.stack = stack
        self._rows = rows

    def __getitem__(self, component: int) -> np.ndarray:
        return self.stack[self._rows[component]]

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class BlockNoise:
    """Buffered per-(path, component) increment source for the engine.

    Serves, at each step k, a raw-normal array of shape (n_paths, n_cols)
    per component; entry [b, i] is element (k * n_cols + i) of the block
    stream (seed, path_ids[b], component).  Values are independent of the
    block length, which is chosen from a memory budget.  Each buffer set is
    one (block, n_components, n_paths, n_cols) array.

    The budget holds two buffer sets of `block` steps.  While the engine
    steps through the block in one set, one helper thread fills the next
    block into the other.  Only one fill is in flight and each stream is
    drawn in step order, so every value is the one a synchronous fill would
    give.  When the budget holds a single step there is one set, filled in
    line.  The arrays `step(k)` returns are views of the current set and
    are valid only until `step` leaves the current block: the helper thread
    then writes into them, so holding on to one is a data race.
    """

    def __init__(self, seed: int, path_ids: list[int], components: list[int],
                 n_cols: int, n_steps: int, max_bytes: int = 1 << 25):
        self.seed = int(seed)
        self.path_ids = list(path_ids)
        self.components = list(components)
        self.n_cols = int(n_cols)
        self.n_steps = int(n_steps)
        n_streams = max(1, len(self.path_ids) * len(self.components))
        per_step = 8 * n_streams * self.n_cols
        whole = int(min(max(1, max_bytes // max(per_step, 1)), 512, max(n_steps, 1)))
        n_sets = 2 if whole > 1 else 1
        self.block = whole // n_sets
        self._gens = {
            (p, c): block_stream(self.seed, p, c)
            for p in self.path_ids for c in self.components
        }
        self._rows = {c: i for i, c in enumerate(self.components)}
        self._sets = [
            np.empty((self.block, len(self.components), len(self.path_ids), self.n_cols))
            for _ in range(n_sets)
        ]
        self._buf = self._sets[0]
        self._next = 0  # the set the next block goes into
        self._pending: tuple[threading.Thread, list[BaseException]] | None = None
        self._lo = -1
        self._hi = -1

    def _refill(self, k0: int) -> None:
        """Serve the block starting at step k0; start filling the one after it."""
        if self._pending is None:
            self._fill(self._sets[self._next], k0)
        else:
            thread, failure = self._pending
            thread.join()
            if failure:
                raise failure[0]
            self._pending = None
        self._buf = self._sets[self._next]
        self._next = (self._next + 1) % len(self._sets)
        self._lo, self._hi = k0, min(k0 + self.block, self.n_steps)
        if len(self._sets) > 1 and self._hi < self.n_steps:
            failure: list[BaseException] = []
            thread = threading.Thread(target=self._fill_ahead, name="neuromf-noise-fill",
                                      args=(self._sets[self._next], self._hi, failure))
            thread.start()
            self._pending = (thread, failure)

    def _fill(self, buf: np.ndarray, k0: int) -> None:
        count = min(self.block, self.n_steps - k0)
        for i, c in enumerate(self.components):
            for b, p in enumerate(self.path_ids):
                buf[:count, i, b, :] = self._gens[(p, c)].standard_normal((count, self.n_cols))

    def _fill_ahead(self, buf: np.ndarray, k0: int,
                    failure: list[BaseException]) -> None:
        try:
            self._fill(buf, k0)
        except BaseException as e:  # raised by every step that needs this block
            failure.append(e)

    def step(self, k: int) -> StepDraws:
        """Raw N(0, 1) draws for step k, one (n_paths, n_cols) array per component.

        The arrays are valid until `step` leaves the block that holds k.
        """
        if not 0 <= k < self.n_steps:
            raise IndexError(f"step {k} outside [0, {self.n_steps})")
        if not self._lo <= k < self._hi:
            if self._hi not in (-1, k):
                raise IndexError("BlockNoise must be consumed in step order")
            self._refill(k)
        return StepDraws(self._buf[k - self._lo], self._rows)

    def init_stream(self, path: int, component: int) -> np.random.Generator:
        """Fresh generator for the initial-condition draws of one path."""
        return block_stream(self.seed, path, component)
