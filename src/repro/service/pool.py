"""Worker pool: campaign cells on a persistent process executor.

A fleet study submitted over HTTP is a grid of (scenario x policy)
campaign cells.  The campaign runner of :mod:`repro.service.shard` cuts
the grid into one block per worker and runs each block as one lockstep
scan on a persistent :class:`~concurrent.futures.ProcessPoolExecutor`.
Allocation solves never come here: the micro-batcher solves them inline
on the event loop, since one batched solve is ~0.1 ms of NumPy dispatch
under the GIL and a thread hand-off would cost more than it saves.

:class:`WorkerPool` owns the process executor and the metric families
that the server's ``/stats`` and ``/metrics`` read.  The executor and all
its workers start with the pool, before the first campaign: ``repro
serve`` builds its pool before any other thread exists, so a fork-started
worker cannot inherit a lock that another thread held mid-write (a
logging stream's, the trace recorder's) and block on it forever.  The
workers exit on their own when the process that owns the pool dies,
whatever the start method (:func:`exit_with_parent`).
"""

from __future__ import annotations

import gc
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.obs import tracing
from repro.obs.metrics import Counter, MetricsRegistry

#: How often an orphan watchdog checks whether its parent is still alive.
_PARENT_POLL_S = 0.5


def _exists(pid: int) -> bool:
    """Whether process ``pid`` exists (a zombie does, until it is reaped)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # it exists, under another user
        return True
    return True


def exit_with_parent(parent_pid: int) -> None:
    """Exit this process once process ``parent_pid`` has died.

    Starts a daemon thread that checks every ``_PARENT_POLL_S`` and ends
    the process with ``os._exit``.  A direct child of ``parent_pid`` (fork
    and spawn workers, the supervisor's front-ends) is re-parented the
    moment that process dies, so it watches :func:`os.getppid`.  A worker
    started through a fork server (``forkserver``, Linux's default from
    Python 3.14) has the fork server as its parent, and the fork server
    lives on for as long as any of its workers does; such a worker polls
    whether ``parent_pid`` still exists instead, so it exits once that
    process has been reaped.  Either way a SIGKILLed server or ``--procs``
    supervisor leaves no workers or front-ends behind.
    ``PR_SET_PDEATHSIG`` is no substitute: it fires when the *thread* that
    started the child exits, and campaign workers are started from
    executor threads.
    """
    # False for a fork server's worker, or when the parent died first.
    direct_child = os.getppid() == parent_pid

    def watch() -> None:
        while (os.getppid() == parent_pid) if direct_child else _exists(parent_pid):
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watchdog", daemon=True).start()


def _init_campaign_worker(log_format: str, parent_pid: int) -> None:
    """Process-worker initializer: replay the log config, die with the parent.

    The log config matters for spawn-started workers (the default inside a
    spawn-context front-end child): shard span lines reach the shared log
    stream no matter the worker start method.
    """
    tracing.init_worker_logging(log_format)
    exit_with_parent(parent_pid)


def _started() -> None:
    """No-op task: submitting it makes the executor start its workers."""


class WorkerPool:
    """Process workers for campaign grids.

    Parameters
    ----------
    campaign_workers:
        Process workers for campaign grids.  ``1`` runs each campaign in
        the calling process; above 1 the :class:`ProcessPoolExecutor` and
        all its workers start here and serve every campaign until
        :meth:`shutdown`.
    """

    def __init__(self, campaign_workers: int = 1) -> None:
        if campaign_workers < 1:
            raise ValueError(
                f"campaign_workers must be at least 1, got {campaign_workers}"
            )
        self.campaign_workers = int(campaign_workers)
        self._closed = False
        self.campaigns_run = Counter(
            "repro_pool_campaigns_total",
            "Campaign grids run on the worker pool.",
        )
        self._campaign_executor: Optional[ProcessPoolExecutor] = None
        if self.campaign_workers > 1:
            self._campaign_executor = ProcessPoolExecutor(
                max_workers=self.campaign_workers,
                initializer=_init_campaign_worker,
                initargs=(tracing.active_log_format(), os.getpid()),
            )
            # Under fork the first submit starts every worker, here and
            # now, on the thread that builds the pool.  Frozen, the objects
            # a worker inherits stay out of its collections, which would
            # otherwise walk (and copy on write) this process's whole heap:
            # in a process that has run the benchmark suite, that cost each
            # worker 70-90 ms in its first unpickle of a campaign context.
            gc.freeze()
            try:
                self._campaign_executor.submit(_started)
            finally:
                gc.unfreeze()

    # --- lifecycle --------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has been called."""
        return self._closed

    def shutdown(self, wait: bool = True, cancel_pending: bool = True) -> None:
        """Stop the process executor; idempotent.

        ``cancel_pending`` cancels queued-but-unstarted shard tasks; running
        tasks always finish.  With ``wait`` the call returns only after
        every worker process has joined.
        """
        self._closed = True
        executor, self._campaign_executor = self._campaign_executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # --- campaigns --------------------------------------------------------------
    def run_campaign(
        self,
        scenarios,
        policies,
        trace,
        config=None,
        scenario_labels=None,
        completed=None,
        on_shard_done=None,
    ):
        """Run a fleet campaign grid on the pool's process workers.

        Delegates to :func:`repro.service.shard.run_sharded_campaign`: the
        grid runs as one block of scenarios x policies per campaign
        worker, each block one lockstep scan, on this pool's persistent
        executor (``campaign_workers=1`` runs the whole grid as one block
        in this process).  Results are identical to the single-process
        run to floating-point round-off.  The persistent pool's workers
        keep their engine and campaign-context caches warm across
        campaigns.

        ``completed``/``on_shard_done`` are the durable-store hooks (skip
        journaled cells, journal each block as it lands -- see the shard
        runner).
        """
        executor = self._campaign_executor
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        # Imported here: the campaign stack (simulation + shard) is only
        # pulled in by services that actually run campaigns.
        from repro.service.shard import run_sharded_campaign

        result = run_sharded_campaign(
            scenarios,
            policies,
            trace,
            config,
            scenario_labels=scenario_labels,
            workers=self.campaign_workers,
            executor=executor,
            completed=completed,
            on_shard_done=on_shard_done,
        )
        self.campaigns_run.inc()
        return result

    # --- metrics ----------------------------------------------------------------
    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Expose the pool's families on a metrics registry."""
        registry.register(self.campaigns_run)
        registry.callback(
            "repro_pool_workers",
            "Configured campaign (process) workers.",
            "gauge",
            lambda: [("", {"kind": "campaign"}, self.campaign_workers)],
        )


__all__ = ["WorkerPool", "exit_with_parent"]
