"""Trial executors: where candidate evaluations actually run.

The model-guided search hands an executor an ordered batch of
picklable tasks and a module-level task function; the executor returns
the results in task order.  Two implementations:

* :class:`SerialExecutor` — evaluate in the calling process, in order.
  This is the default and is bit-identical to pre-parallel behavior.
* :class:`ProcessPoolTrialExecutor` — fan tasks across a persistent
  :class:`concurrent.futures.ProcessPoolExecutor`.  Results come back
  in task order regardless of completion order, so selection logic
  downstream is deterministic.

The pool prefers the ``fork`` start method where the platform offers it
(workers inherit ``sys.path`` and import state, and startup is cheap);
set ``$REPRO_MG_MP_START`` to ``spawn``/``forkserver``/``fork`` to
override.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor as _FuturesPool
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = [
    "ProcessPoolTrialExecutor",
    "SerialExecutor",
    "TrialExecutor",
    "resolve_executor",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment override for the multiprocessing start method.
MP_START_ENV = "REPRO_MG_MP_START"


def _default_context() -> multiprocessing.context.BaseContext:
    name = os.environ.get(MP_START_ENV)
    if name:
        return multiprocessing.get_context(name)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class TrialExecutor:
    """Interface: ordered ``map`` over independent trial tasks.

    ``fn`` must be a module-level function and every task must be
    picklable — process-backed executors ship both to worker processes.
    Implementations guarantee results are returned in task order.
    """

    #: degree of parallelism the executor offers (1 = serial)
    jobs: int = 1

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialExecutor(TrialExecutor):
    """Evaluate tasks inline, one at a time, in task order."""

    jobs = 1

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        return [fn(task) for task in tasks]


class ProcessPoolTrialExecutor(TrialExecutor):
    """Evaluate tasks on a persistent pool of worker processes.

    The pool is created lazily on first :meth:`map` and reused across
    calls (a model-guided search issues a candidate batch per level;
    respawning workers per batch would dominate small tunes).  Close it
    explicitly or use the executor as a context manager.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, not {jobs}")
        self.jobs = jobs
        self._pool: _FuturesPool | None = None

    def _ensure_pool(self) -> _FuturesPool:
        if self._pool is None:
            self._pool = _FuturesPool(max_workers=self.jobs, mp_context=_default_context())
        return self._pool

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        batch: Sequence[T] = list(tasks)
        if not batch:
            return []
        pool = self._ensure_pool()
        chunksize = max(1, len(batch) // (self.jobs * 4))
        return list(pool.map(fn, batch, chunksize=chunksize))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def resolve_executor(jobs: "int | TrialExecutor | None") -> TrialExecutor:
    """Executor for a ``jobs=`` argument.

    ``None`` or ``1`` selects the serial executor; ``N > 1`` a process
    pool of N workers; an existing :class:`TrialExecutor` passes
    through unchanged (the caller keeps ownership of its lifecycle).
    """
    if jobs is None:
        return SerialExecutor()
    if isinstance(jobs, TrialExecutor):
        return jobs
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise TypeError(f"jobs must be an int or TrialExecutor, not {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    if jobs == 1:
        return SerialExecutor()
    return ProcessPoolTrialExecutor(jobs)
