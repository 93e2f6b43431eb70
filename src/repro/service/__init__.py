"""Parallel execution service: worker pool and async job queue.

This layer scales the execution front door out across processes without
changing a single result bit.  Seeds derive from *coordinates* (element
index, trajectory index), never from scheduling, so results are
invariant under worker count:

* :mod:`repro.service.pool` — the process pool.  The parent compiles and
  pickles each plan once; workers cache unpickled plans by digest and
  only ever ``bind()`` them.
* :mod:`repro.service.futures` — thread-safe :class:`JobState` backing
  async jobs.
* :mod:`repro.service.queue` — :func:`execute_async` and the bounded
  :class:`ExecutionService` with real backpressure.

Synchronous callers never touch this package: ``execute()`` with
``max_workers`` unset (or 1) runs the exact serial code path it always
has.
"""

from repro.service.futures import JobState
from repro.service.pool import (
    WORKERS_ENV_VAR,
    resolve_max_workers,
    shutdown_pool,
)
from repro.service.queue import (
    ExecutionService,
    configure_default_service,
    default_service,
    execute_async,
)

__all__ = [
    "ExecutionService",
    "JobState",
    "WORKERS_ENV_VAR",
    "configure_default_service",
    "default_service",
    "execute_async",
    "resolve_max_workers",
    "shutdown_pool",
]
