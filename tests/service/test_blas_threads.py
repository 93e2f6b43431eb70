"""Pool workers run numpy's OpenBLAS single-threaded.

Each forked worker would otherwise keep one BLAS thread per core, so two
workers on two cores run four compute threads and the pool loses to
serial execution.
"""

import pytest

from repro.service.pool import _blas_thread_function, run_tasks, shutdown_pool


def _worker_blas_threads() -> int:
    return _blas_thread_function("get")()


@pytest.fixture(autouse=True)
def fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


def test_pool_workers_run_blas_single_threaded():
    if _blas_thread_function("get") is None:
        pytest.skip("no OpenBLAS thread-count getter found for this numpy")
    counts = run_tasks(_worker_blas_threads, [()] * 4, workers=2)
    assert counts == [1, 1, 1, 1]
