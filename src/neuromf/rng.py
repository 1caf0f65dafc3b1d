"""Deterministic stream-keyed noise.

Every random draw in the package is addressed by an explicit key, so any
sub-computation can be replayed bit for bit regardless of batching or
which other components happen to be simulated alongside it.
This is also what lets the coupling construction hand the exact same
Brownian increments to an interacting system and to its independent-copy
counterpart.

One addressing scheme: a block stream, keyed (seed, path, component),
carries one value per (step, column) in row-major order and feeds the
vectorized engine, which reads a step's noise as one (component, path,
column) array.  The packed Philox key word also holds a fixed flag
bit (`_BLOCK_FLAG`): every value drawn depends on it, so it stays.

Successive draws from one numpy Generator concatenate exactly, so block
buffering is free to choose any chunk size without changing a single value.
`BlockNoise` uses that to draw ahead: it keeps two buffer sets, and while
the engine steps through the block in one, a helper thread fills the next
block into the other (numpy releases the interpreter lock while it fills).
A block's fill is a list of tasks, one per stream; when the engine reaches
a block whose fill is unfinished, it takes the remaining tasks itself
instead of waiting, so the two threads share the fill.  A block is the
shortest at which each task draws at least `_TASK_NORMALS` values, capped
by the memory budget, so wide steps get short blocks and the buffers do
not grow with the column count.  One helper thread serves a `BlockNoise`
from its first block to its last, fed through a queue.

The engine's per-batch buffers, these sets included, come from `_aligned`,
which starts each on a 64-byte boundary.
"""

from __future__ import annotations

import math
import queue
import threading
import weakref
from enum import IntEnum

import numpy as np

_MASK64 = (1 << 64) - 1
MAX_PATH = 1 << 22
MAX_COMPONENT = 1 << 16
_BLOCK_FLAG = np.uint64(1 << 62)
NOISE_BUDGET_BYTES = 1 << 25  # both buffer sets of a `BlockNoise`, read when one is built
# normals one fill task draws at least, when the budget allows (96 KiB).  Each
# task passes the interpreter lock from the engine to the helper and back, so
# short tasks slow the engine: against 62-step blocks, a solve of 2 x 2000
# copies on a 2-vCPU VM took 7% longer with tasks of 8192 normals, 2.5% at 12288
_TASK_NORMALS = 12288
_ALIGN = 64  # bytes: one cache line, and one AVX-512 vector


def _aligned(shape: int | tuple[int, ...], zero: bool = False, lead: tuple[int, ...] = ()) -> np.ndarray:
    """A float64 array of `lead + shape` whose every `shape` block starts on a 64-byte boundary; zeros with `zero`.

    numpy starts a large array 16 bytes past a page boundary, so every vector
    an elementwise loop loads or stores straddles two cache lines.  On an
    AVX-512 host a multiply of two such arrays into a third took 0.57 ns per
    element, against 0.35 ns when all three were aligned.  Without `lead`
    the array is C-contiguous; with it, each block is padded to whole cache
    lines, so the blocks of the leading axes are apart by a multiple of 64
    bytes and each starts on a boundary.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    size, count = math.prod(shape), math.prod(lead)
    raw = np.empty(_aligned_bytes(shape, lead), dtype=np.uint8)
    lo = -raw.ctypes.data % _ALIGN
    stride = _block_stride(size, lead)
    out = raw[lo:lo + 8 * count * stride].view(np.float64).reshape(count, stride)[:, :size].reshape(lead + shape)
    if zero:
        out.fill(0.0)
    return out


def _block_stride(size: int, lead: tuple[int, ...]) -> int:
    """Elements from one `_aligned` block to the next: `size`, padded to whole cache lines under a `lead`."""
    return -(-size // (_ALIGN // 8)) * (_ALIGN // 8) if lead else size


def _aligned_bytes(shape: int | tuple[int, ...], lead: tuple[int, ...] = ()) -> int:
    """The bytes `_aligned(shape, lead=lead)` allocates, its slack for the alignment included."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    return 8 * math.prod(lead) * _block_stride(math.prod(shape), lead) + _ALIGN


def _block_steps(n_streams: int, n_cols: int, n_steps: int) -> int:
    """The steps of a `BlockNoise` block over `n_streams` (component, path) streams, by the rule there."""
    per_step = 8 * max(1, n_streams) * n_cols
    # two blocks span at most a quarter of the run (32 steps at least): the
    # helper has nothing to fill while the engine steps the last block
    whole = int(min(max(1, NOISE_BUDGET_BYTES // max(per_step, 1)), 512, max(n_steps, 1),
                    max(32, n_steps // 4)))
    return max(1, min(whole // 2, -(-_TASK_NORMALS // max(n_cols, 1))))


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
    """Stream feeding a whole (step, column) block, or one path's initial draws."""
    if not 0 <= path < MAX_PATH:
        raise ValueError(f"path index {path} outside [0, {MAX_PATH})")
    if not 0 <= component < MAX_COMPONENT:
        raise ValueError(f"component tag {component} outside [0, {MAX_COMPONENT})")
    packed = _BLOCK_FLAG | np.uint64((path << 40) | component)
    key = np.array([np.uint64(seed & _MASK64), packed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Fill:
    """One block's fill: a task per stream, each taken by whichever thread asks first.

    A task writes the block's draws of one (component, path) stream into its
    slice of the buffer set.  Each stream appears once, so it is drawn by one
    thread, in step order.  A failure ends the fill: no task is taken after
    it, and it is kept to be raised by every step that needs the block.
    """

    def __init__(self, tasks: list):
        self._tasks = tasks[::-1]  # popped from the end: taken in list order
        self._lock = threading.Lock()
        self.helping = threading.Lock()  # held by the helper thread while it works on this fill
        self.failure: list[BaseException] = []

    def work(self) -> None:
        """Run tasks until none is left or one has failed."""
        while True:
            with self._lock:
                if self.failure or not self._tasks:
                    return
                out, gen = self._tasks.pop()
            try:
                gen.standard_normal(out=out)
            except BaseException as e:  # raised by every step that needs this block
                with self._lock:
                    self.failure.append(e)

    def finish(self) -> None:
        """Run the tasks left, wait for the helper's task in flight, then raise the first failure."""
        self.work()
        with self.helping:
            pass
        if self.failure:
            raise self.failure[0]

    def fail(self, error: BaseException) -> None:
        """End the fill: no task is taken after the ones in flight."""
        with self._lock:
            self.failure.append(error)


def _serve(fills: queue.SimpleQueue) -> None:
    """A helper thread's loop: work each fill put on `fills`, until None."""
    while (fill := fills.get()) is not None:
        with fill.helping:
            fill.work()


class BlockNoise:
    """Buffered per-(path, component) increment source for the engine.

    Serves, at each step k, one raw-normal array of shape (n_components,
    n_paths, n_cols), rows in `components` order; entry [c, b, i] is
    element (k * n_cols + i) of the block stream (seed, path_ids[b],
    components[c]).  Callers that want a component by tag look its row up
    by position, e.g. `dict(zip(noise.components, noise.step(k)))`.  Values
    are independent of the block length.  Each buffer set is one
    (n_components, n_paths, block, n_cols) array, so a stream's steps are
    contiguous and its fill draws straight into them.

    A block is the shortest at which every fill task draws at least
    `_TASK_NORMALS` normals (`n_cols` per step), capped by a memory budget
    and by the run: two blocks hold at most `NOISE_BUDGET_BYTES` and 512
    steps, and span at most a quarter of the run once that exceeds 32
    steps.  There are always two sets, each of at least one step: a run of
    one step, or a step wider than half the budget, gets two one-step sets,
    which may then exceed the budget.

    A block's fill is a list of tasks, one per (component, path) stream.
    While the engine steps through the block in one set, a helper thread
    takes the next block's tasks into the other; when the engine reaches
    that block before its fill is done, it takes the remaining tasks itself
    and then waits only for the task in flight.  The first block is filled
    the same way, helper and engine together.  Only one block is in fill at
    a time and each stream is drawn by one thread in step order, so every
    value is the one a synchronous fill would give.  The array `step(k)`
    returns is a view of the current set and is valid only until `step`
    leaves the current block: the helper thread then writes into it, so
    holding on to one is a data race.

    One helper thread, started by the first step, serves every block; it
    ends when the last block is served, when a fill fails, on `_close`, or
    once the `BlockNoise` is garbage.
    """

    def __init__(self, seed: int, path_ids: list[int], components: list[int],
                 n_cols: int, n_steps: int):
        self.seed = int(seed)
        self.path_ids = list(path_ids)
        self.components = list(components)
        self.n_cols = int(n_cols)
        self.n_steps = int(n_steps)
        self.block = _block_steps(len(self.path_ids) * len(self.components), self.n_cols, self.n_steps)
        self._gens = {
            (p, c): block_stream(self.seed, p, c)
            for p in self.path_ids for c in self.components
        }
        # a stream's steps are contiguous, so each task draws straight into them
        self._sets = [
            _aligned((len(self.components), len(self.path_ids), self.block, self.n_cols))
            for _ in range(2)
        ]
        self._buf = self._sets[0]
        self._next = 0  # the set the next block goes into
        self._pending: _Fill | None = None
        self._lo = -1
        self._hi = -1
        self._fills: queue.SimpleQueue = queue.SimpleQueue()
        self._helper: threading.Thread | None = None
        # the finalizer holds the queue, not this object, so an abandoned
        # source still ends its helper
        self._stop = weakref.finalize(self, self._fills.put, None)

    def _refill(self, k0: int) -> None:
        """Serve the block starting at step k0; start filling the one after it."""
        if self._pending is None:
            self._pending = self._start(k0)
        try:
            self._pending.finish()  # the engine takes the tasks the helper has not reached
        except BaseException:
            self._close()
            raise
        self._pending = None
        self._buf = self._sets[self._next]
        self._next = 1 - self._next
        self._lo, self._hi = k0, min(k0 + self.block, self.n_steps)
        if self._hi < self.n_steps:
            self._pending = self._start(self._hi)
        else:
            self._close()

    def _start(self, k0: int) -> _Fill:
        """The fill of the block from step k0 into the next set, handed to the helper."""
        buf, count = self._sets[self._next], min(self.block, self.n_steps - k0)
        fill = _Fill([(buf[i, b, :count], self._gens[(p, c)])
                      for i, c in enumerate(self.components)
                      for b, p in enumerate(self.path_ids)])
        if self._helper is None:  # a daemon: a source alive at exit must not hold it up
            self._helper = threading.Thread(target=_serve, args=(self._fills,),
                                            name="neuromf-noise-fill", daemon=True)
            self._helper.start()
        self._fills.put(fill)
        return fill

    def _close(self) -> None:
        """End the helper thread; a block still in fill is never served.

        The fill stops after its task in flight, and every later step that
        needs its block raises.  Closing twice does nothing more.
        """
        if self._pending is not None:
            self._pending.fail(RuntimeError("the noise source was closed before this block was filled"))
        self._stop()
        if self._helper is not None:
            self._helper.join()
            self._helper = None

    def step(self, k: int) -> np.ndarray:
        """Raw N(0, 1) draws for step k, shape (n_components, n_paths, n_cols).

        Row i holds the draws of `components[i]`, so components listed next
        to each other are one slice.  The array is a view of the current
        buffer set, valid until `step` leaves the block that holds k.
        """
        if not 0 <= k < self.n_steps:
            raise IndexError(f"step {k} outside [0, {self.n_steps})")
        if not self._lo <= k < self._hi:
            if self._hi not in (-1, k):
                raise IndexError("BlockNoise must be consumed in step order")
            self._refill(k)
        return self._buf[:, :, k - self._lo]
