"""Parallel sweep execution for experiment batches.

The paper's headline figures each aggregate hundreds of independent
``(configuration, algorithm)`` simulations.  Every task is a pure function
of ``(setup, config_index, algorithm, overrides)``, so the sweep is
embarrassingly parallel — this module fans it out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the output
**bit-identical** to the serial loop:

* tasks are dispatched in chunks but results are keyed by
  ``(config_index, algorithm)`` and re-assembled in serial order, so the
  caller never observes pool scheduling;
* each worker runs an initializer that receives the
  :class:`~repro.experiments.config.ExperimentConfig` **once**,
  rebuilds the default trace library inside the worker and warms
  its noon-segment cache — individual tasks never pickle traces (a library
  is ~66 two-day arrays), they ship only integer indices and names;
* the worker count comes from an explicit argument, falling back to the
  ``REPRO_WORKERS`` environment variable, falling back to 1 (serial);
  ``workers <= 0`` means "one per CPU";
* if the platform cannot start a process pool (sandboxes without
  ``fork``/semaphores, interpreters without ``multiprocessing``), the
  sweep silently degrades to the serial loop — same results, one process.

The serial and parallel paths share the task list, the worker
initializer and the task body: :func:`_ordered_map` runs them either in
a pool or in-process, which is what the determinism tests in
``tests/experiments/test_parallel.py`` pin down.  The sharded fleets
of :mod:`repro.workload.sweep` fan out through the same map.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.engine.config import Algorithm
from repro.engine.simulation import run_simulation
from repro.experiments.config import ExperimentConfig, build_spec
from repro.obs.metrics import RunMetrics

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: A result key: ``(config_index, algorithm value)``.
SweepKey = tuple[int, str]

#: A normalized task: key plus a hashable overrides tuple.
_Task = tuple[int, str, tuple[tuple[str, Any], ...]]

#: Errors that mean "no process pool on this platform" — the sweep falls
#: back to the serial loop rather than failing.
_POOL_UNAVAILABLE = (ImportError, NotImplementedError, OSError, PermissionError)


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count for a sweep.

    Precedence: explicit ``workers`` argument, then the ``REPRO_WORKERS``
    environment variable, then 1 (serial).  A value ``<= 0`` requests one
    worker per CPU.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    workers = int(workers)
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def _normalize_tasks(
    tasks: Sequence[tuple],
    shared_overrides: Optional[Mapping[str, Any]],
) -> list[_Task]:
    """Canonical task tuples with merged, hashable overrides."""
    shared = dict(shared_overrides or {})
    normalized: list[_Task] = []
    seen: set[SweepKey] = set()
    for task in tasks:
        if len(task) == 2:
            config_index, algorithm = task
            extra: Mapping[str, Any] = {}
        elif len(task) == 3:
            config_index, algorithm, extra = task
            extra = extra or {}
        else:
            raise ValueError(
                f"task must be (config, algorithm[, overrides]), got {task!r}"
            )
        algorithm = Algorithm(algorithm)
        key = (int(config_index), algorithm.value)
        if key in seen:
            raise ValueError(
                f"duplicate sweep task {key}; results are keyed by "
                "(config_index, algorithm), so each pair may appear once"
            )
        seen.add(key)
        merged = {**shared, **dict(extra)}
        normalized.append((key[0], key[1], tuple(sorted(merged.items()))))
    return normalized


# -- worker side -----------------------------------------------------------
#: Per-worker state, installed once by :func:`_init_worker`.
_WORKER_SETUP: Optional[ExperimentConfig] = None


def _init_worker(setup: ExperimentConfig) -> None:
    """Sweep initializer: install the setup and build its library.

    Runs once per pool worker, or once in-process for a serial sweep.
    The setup is pickled to each worker exactly once (as an initializer
    argument).  When the setup carries no injected library, the default
    study is rebuilt here from ``STUDY_SEED``, so the 66-pair trace study
    is synthesized once per worker and never crosses a pipe per task.
    """
    global _WORKER_SETUP
    _WORKER_SETUP = setup
    # Warm the library's per-pair noon segments too: configuration
    # sampling inside the worker then reduces to dict lookups, and the
    # segments' prefix sums are computed once per worker, not per run.
    setup.trace_library().warm_noon_segments()


def _run_task(task: _Task) -> tuple[SweepKey, RunMetrics]:
    """Simulate one task against the worker's installed setup.

    Tasks ship only ``(config_index, algorithm value, overrides)``; the
    configuration is drawn against the worker-resident setup, whose
    library's noon segments the initializer warmed.
    """
    config_index, algorithm_value, overrides = task
    setup = _WORKER_SETUP
    if setup is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("worker used before _init_worker ran")
    spec = build_spec(
        setup, config_index, Algorithm(algorithm_value), **dict(overrides)
    )
    return (config_index, algorithm_value), run_simulation(spec)


# -- driver side -----------------------------------------------------------
def _run_parallel(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int,
    initializer: Optional[Callable[..., None]],
    initargs: tuple,
    chunksize: int,
    on_result: Optional[Callable[[Any], None]],
) -> list:
    from concurrent.futures import ProcessPoolExecutor

    results = []
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        # ``map`` yields in submission order, so ``on_result`` fires in
        # task order even though execution interleaves.
        for result in pool.map(fn, tasks, chunksize=chunksize):
            results.append(result)
            if on_result is not None:
                on_result(result)
    return results


def _ordered_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int,
    *,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
    chunksize: int = 1,
    on_result: Optional[Callable[[Any], None]] = None,
) -> list:
    """``[fn(task) for task in tasks]``, fanned out over a process pool.

    With ``workers > 1`` and more than one task, the tasks run on a pool
    whose workers each call ``initializer(*initargs)`` once; otherwise,
    or when the platform cannot start a pool, they run in this process
    after one ``initializer(*initargs)`` call.  Either way the results,
    and the ``on_result`` calls made as each arrives, come in task order.
    ``fn`` and ``initializer`` must be module-level functions so the
    pool can pickle them.
    """
    if workers > 1 and len(tasks) > 1:
        try:
            return _run_parallel(
                fn, tasks, workers, initializer, initargs, chunksize, on_result
            )
        except _POOL_UNAVAILABLE:
            pass  # no process pool on this platform: degrade to serial
    if initializer is not None:
        initializer(*initargs)
    results = []
    for task in tasks:
        result = fn(task)
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results


def run_sweep(
    setup: ExperimentConfig,
    tasks: Sequence[tuple],
    *,
    workers: Optional[int] = None,
    progress: Optional[Callable] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> dict[SweepKey, RunMetrics]:
    """Run a batch of ``(config_index, algorithm[, overrides])`` tasks.

    Returns ``{(config_index, algorithm.value): RunMetrics}`` with one
    entry per task.  The mapping's contents are independent of the worker
    count: parallel execution is bit-identical to serial because every
    simulation is a pure function of its task and the shared ``setup``.

    Parameters
    ----------
    setup:
        Shared experiment inputs.  An injected ``library`` is shipped to
        each worker once via the pool initializer.
    tasks:
        Sequence of ``(config_index, algorithm)`` or
        ``(config_index, algorithm, per_task_overrides)``.  Keys must be
        unique within one sweep.
    workers:
        See :func:`resolve_workers`.  With one worker (or when process
        pools are unavailable) the sweep runs serially in-process.
    progress:
        ``progress(config_index, algorithm, metrics)`` called once per
        completed task, always in task order.
    overrides:
        Spec overrides applied to every task (per-task overrides win).
    """
    normalized = _normalize_tasks(tasks, overrides)
    effective = resolve_workers(workers)
    report = None
    if progress is not None:

        def report(result: tuple[SweepKey, RunMetrics]) -> None:
            (config_index, algorithm_value), metrics = result
            progress(config_index, Algorithm(algorithm_value), metrics)

    return dict(
        _ordered_map(
            _run_task,
            normalized,
            effective,
            initializer=_init_worker,
            initargs=(setup,),
            # A few chunks per worker balance dispatch overhead (tasks
            # take ~100 ms..s) against tail latency on uneven tasks.
            chunksize=max(1, len(normalized) // (effective * 4)),
            on_result=report,
        )
    )
