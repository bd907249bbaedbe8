"""One BLAS thread per pool worker (:mod:`repro.runtime.blas_threads`).

No clock is read here: the tests pin the thread counts the workers report
and that solve-heavy programs still validate under them.  The speed-up
itself is measured by perfbench's ``dag_execute`` workload.
"""

from __future__ import annotations

from repro.exec.api import ExecuteRequest
from repro.frontend import compile_source
from repro.runtime import blas_threads as blas
from repro.service.api import CompileRequest
from repro.service.pool import InProcessExecutor, WorkerPool

#: A DAG whose plan interleaves NumPy products with SciPy's SYSV and POSV
#: solves -- the mix under which the two OpenBLAS thread pools collide.
SOLVE_DAG_SOURCE = """Matrix H (40, 60) <full_rank>
Matrix P (60, 60) <spd>
Matrix S (40, 40) <symmetric, non_singular>
Matrix B (40, 30) <full_rank>
G := S^-1 * H * P * H^T
J := P^-1 * H^T * B
"""


def test_solve_dag_interleaves_products_with_sysv_and_posv():
    kernels = {
        kernel
        for assignment in compile_source(SOLVE_DAG_SOURCE).assignments
        for kernel in assignment.kernel_sequence
    }
    assert {"GEMM", "SYSV", "POSV"} <= kernels


def test_pool_worker_runs_one_thread_per_openblas():
    # The worker is forked from this process, so it maps the same
    # libraries; this process itself stays at its default thread counts.
    loaded = set(blas.blas_threads())
    with WorkerPool(workers=1, request_timeout=120.0) as pool:
        reported = pool.stats()["per_worker"][0]["blas_threads"]
        response = pool.execute(
            ExecuteRequest(compile=CompileRequest(source=SOLVE_DAG_SOURCE), seed=3)
        )
    assert set(reported) == loaded
    assert all(count == 1 for count in reported.values()), reported
    assert response.ok, response.error
    assert response.validated is True


def test_in_process_stats_report_blas_threads():
    with InProcessExecutor() as executor:
        entry = executor.stats()["per_worker"][0]
    assert entry["blas_threads"] == blas.blas_threads()


def test_limit_is_a_no_op_without_openblas(monkeypatch):
    before = blas.blas_threads()
    monkeypatch.setattr(blas, "_openblas_libraries", lambda: [])
    assert blas.limit_blas_threads() == {}
    assert blas.blas_threads() == {}
    monkeypatch.undo()
    assert blas.blas_threads() == before


class _FakeOpenBLAS:
    """A library handle exporting the plain ``openblas_*`` thread calls."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.set_calls = []

        def get():
            return self.threads

        def set_(count):
            self.set_calls.append(count)
            self.threads = count

        self.openblas_get_num_threads = get
        self.openblas_set_num_threads = set_


def test_limit_sets_only_libraries_above_one_thread(monkeypatch):
    # Setting the count in a forked worker rebuilds OpenBLAS's thread pool,
    # so a library the parent already limited must not be set again.
    busy, limited = _FakeOpenBLAS(threads=2), _FakeOpenBLAS(threads=1)
    monkeypatch.setattr(
        blas, "_openblas_libraries", lambda: [("busy.so", busy), ("limited.so", limited)]
    )
    assert blas.limit_blas_threads() == {"busy.so": 1, "limited.so": 1}
    assert busy.set_calls == [1]
    assert limited.set_calls == []
