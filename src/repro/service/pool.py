"""The process-based worker pool behind parallel execution.

Division of labour:

* The **parent** compiles (transpile + lowering, through the plan cache)
  and pickles each :class:`~repro.plan.ExecutionPlan` exactly once; the
  same bytes object is reused for every task of the job.
* **Workers** never compile.  Each worker keeps a digest-keyed cache of
  unpickled plans (:func:`load_plan`), so a plan crossing the pipe N
  times is deserialised once per worker and then only re-*bound* — the
  shared-plan-cache analogue across process boundaries.
* Task functions here are thin picklable shims; the element and
  trajectory payload logic lives in :mod:`repro.execution.api` (imported lazily
  inside the task), so the serial and parallel paths literally run the
  same code and stay bitwise-identical.

The pool is a lazily created, process-wide
:class:`~concurrent.futures.ProcessPoolExecutor`, resized on demand and
replaced outright when a worker dies (a broken pool cannot be reused).
Failures that are about the *transport* — unpicklable payloads, killed
workers — surface as :class:`~repro.utils.ParallelExecutionError`;
library errors raised inside a worker (``SimulationError`` etc.) pickle
fine and propagate unchanged.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.utils.exceptions import ExecutionError, ParallelExecutionError

if TYPE_CHECKING:
    from repro.execution.options import RunOptions
    from repro.plan.plan import ExecutionPlan

#: Environment fallback for ``RunOptions.max_workers=None`` — lets a CI
#: matrix (or a deploy) flip whole test suites to parallel execution
#: without touching call sites.
WORKERS_ENV_VAR = "REPRO_MAX_WORKERS"

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def resolve_max_workers(max_workers: Optional[int]) -> int:
    """The effective worker count: explicit value, else env var, else 1."""
    if max_workers is not None:
        return max(1, int(max_workers))
    env = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ExecutionError(
            f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
        ) from None


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, created or resized to ``workers`` processes."""
    global _POOL, _POOL_WORKERS
    if workers < 1:
        raise ExecutionError(f"need at least one worker, got {workers}")
    with _POOL_LOCK:
        if _POOL is not None and _POOL_WORKERS == workers:
            return _POOL
        if _POOL is not None:
            _POOL.shutdown(wait=False)
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
        return _POOL


def shutdown_pool() -> None:
    """Tear down the shared pool (tests, or after a worker crash)."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=False)
        _POOL = None
        _POOL_WORKERS = 0


def run_tasks(
    fn: Callable[..., Any],
    argtuples: Sequence[Tuple[Any, ...]],
    workers: int,
) -> List[Any]:
    """Run ``fn(*args)`` for every tuple on the pool, in submission order.

    Results come back ordered (not completion-ordered) so callers can zip
    them against their inputs.  Transport failures raise
    :class:`ParallelExecutionError`; exceptions raised *by* ``fn`` in the
    worker propagate as themselves.
    """
    pool = get_pool(workers)
    try:
        futures = [pool.submit(fn, *args) for args in argtuples]
    except RuntimeError as exc:  # pool shut down from another thread
        raise ParallelExecutionError(
            f"worker pool rejected the job: {exc}"
        ) from exc
    try:
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        shutdown_pool()
        raise ParallelExecutionError(
            "a worker process died mid-job; the pool has been discarded "
            "and the next parallel run will start a fresh one"
        ) from exc
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        # CPython reports unpicklable payloads inconsistently:
        # PicklingError, AttributeError ("can't pickle local object"), or
        # TypeError ("cannot pickle '_thread.lock'").  All three are
        # transport failures here; the original chains for diagnosis.
        raise ParallelExecutionError(
            f"job payload cannot cross the process boundary: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

_PLAN_CACHE: "OrderedDict[bytes, Any]" = OrderedDict()
_PLAN_CACHE_MAX = 16


def dump_plan(plan: "ExecutionPlan") -> bytes:
    """Pickle a compiled plan once, parent-side, for reuse across tasks."""
    try:
        return pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ParallelExecutionError(
            f"compiled plan cannot be shipped to workers: {exc}"
        ) from exc


def load_plan(blob: bytes) -> "ExecutionPlan":
    """Unpickle a plan at most once per worker process (digest-keyed)."""
    key = hashlib.sha1(blob).digest()
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_CACHE.move_to_end(key)
        return plan
    plan = pickle.loads(blob)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
    return plan


def _element_task(
    plan_blob: bytes,
    point: Optional[Mapping[str, float]],
    index: int,
    options: "RunOptions",
    backend: Any,
) -> Dict[str, Any]:
    """One sweep point / batch element, end to end, in a worker."""
    from repro.execution.api import element_payload

    return element_payload(load_plan(plan_blob), point, index, options, backend)


def _trajectory_task(
    plan_blob: bytes,
    index: int,
    start: int,
    count: int,
    options: "RunOptions",
    backend: Any,
) -> Dict[str, Any]:
    """One shard of Monte-Carlo trajectories for a dynamic-plan element."""
    from repro.execution.api import trajectory_shard

    return trajectory_shard(load_plan(plan_blob), index, start, count, options, backend)
