"""Running the phases of a step over chunks of the grid, on one thread or two.

:func:`scnls.dynamics.strang_step` and the detector diagnostics are written
once, as phases.  A phase is a function of ``(index, axis)``: ``index``
selects its chunk's nodes on the trailing grid axes, and ``axis`` is the one
grid axis its transforms run along, or None for all of them.  Row phases do
the pointwise work and the transforms along the last axis; column phases do
the transforms along the first axis.  numpy transforms the last axis first,
so the two passes give the bits of one transform of both.

A runner runs each phase over its chunks.  :class:`_OneChunk` runs a row
phase as the whole grid, transforming every axis, and has no column chunks.
:class:`_Split` runs each phase over two halves of a 2D grid, on the calling
thread and one helper thread.  :func:`scnls.dynamics.evolve` takes the split
one for a 2D state of at least ``_SPLIT_NODES`` nodes per path, in a process
that is not a multiprocessing child (ensemble workers already fill the
cores) and may use two CPUs; the helper lives only inside ``evolve``.  A
chunk of a row phase holds whole grid rows either way, so every pointwise
operation runs on contiguous rows, and the node sums run on the whole batch
outside the phases: the results are bitwise the same split or not.
"""

from __future__ import annotations

import contextvars
import itertools
import multiprocessing
import os
import threading

import numpy as np

from .grid import Grid

# A 2D state splits its phases over two threads when each path has at least
# this many nodes.  Measured on a 2-vCPU x86-64 host, the collapse_2d step of
# one path (n = 256) and its 64 and 128 analogues, split against one chunk,
# interleaved: n = 64 0.4-0.5x, n = 128 0.9-1.1x, n = 256 1.2-1.5x,
# n = 512 1.35-1.55x.  Halves beat quarters and eighths at n = 256.
_SPLIT_NODES = 256 * 256


class _OneChunk:
    """Runs each phase of a step as one chunk on the calling thread.

    ``rows`` lists the chunks of a row phase, ``cols`` those of a column
    phase.  Here a row phase takes the whole grid and transforms every axis,
    so a column phase has no chunk.
    """

    rows = ((Ellipsis, None),)
    cols = ()

    def run(self, phase, chunks) -> None:
        for index, axis in chunks:
            phase(index, axis)

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Split(_OneChunk):
    """Runs each phase over two halves of a 2D grid on the calling thread and one helper thread.

    A row chunk is half of the grid's rows, so every pointwise operation runs
    on whole contiguous rows, as it does on the whole grid; a column chunk
    is half of its columns.  Both threads take the next chunk of a phase
    until none is left: the helper takes one, or none when it wakes after
    the calling thread has taken both.  :meth:`run` returns once every chunk
    is done, and raises what a chunk raised.  The helper starts with the
    runner, in a copy of the creating thread's context (numpy's error
    state), and ends at :meth:`close`.  The numpy calls of a chunk release
    the GIL, so the two threads compute at once.
    """

    def __init__(self, grid: Grid):
        halves = (slice(None, grid.n // 2), slice(grid.n // 2, None))
        self.rows = tuple((np.s_[..., half, :], -1) for half in halves)
        self.cols = tuple((np.s_[..., half], -2) for half in halves)
        # locks used as binary semaphores, cheaper than a Condition: only
        # run() releases _go and only the helper takes it; whoever finishes
        # a phase's last chunk releases _done, and run() takes it
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task = self._error = None
        self._helper = threading.Thread(target=contextvars.copy_context().run,
                                        args=(self._serve,), daemon=True)
        self._helper.start()

    def run(self, phase, chunks) -> None:
        # the chunk iterator and the count of finished chunks are shared;
        # next() on them is atomic under the GIL
        task = self._task = (phase, chunks, iter(chunks), itertools.count(1))
        if self._go.locked():  # else the helper has yet to take the last release
            self._go.release()
        self._take(task)
        self._done.acquire()
        error, self._error = self._error, None
        if error is not None:
            raise error

    def _take(self, task) -> None:
        phase, chunks, todo, finished = task
        for index, axis in todo:
            try:
                phase(index, axis)
            except BaseException as exc:  # raised on the calling thread by run()
                self._error = exc
            finally:
                if next(finished) == len(chunks):
                    self._done.release()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            if self._task is None:
                return
            self._take(self._task)

    def close(self) -> None:
        self._task = None
        if self._go.locked():
            self._go.release()
        self._helper.join()


def _runner(grid: Grid) -> _OneChunk:
    """Halves on two threads for a 2D grid of at least ``_SPLIT_NODES`` nodes, else one chunk.

    Never in a multiprocessing child (ensemble workers already fill the
    cores), nor with fewer than two usable CPUs.
    """
    if (grid.dim == 2 and grid.node_count >= _SPLIT_NODES
            and multiprocessing.parent_process() is None
            and len(os.sched_getaffinity(0)) >= 2):
        return _Split(grid)
    return _OneChunk()


def _transform(transform, pair: np.ndarray, rows: tuple[int, ...], out=None):
    """A phase that transforms the given rows of ``pair`` along its chunk's axis.

    Into the same rows of ``out``, or of ``pair`` itself (in place).
    """
    out = pair if out is None else out

    def phase(index, axis):
        for i in rows:
            transform(pair[i][index], out=out[i][index], axis=axis)
    return phase
