"""Worker pool: campaign cells on a persistent process executor.

A fleet study submitted over HTTP is a grid of (scenario x policy)
campaign cells.  Cells are whole simulations (LP solves plus Python
accounting), so they scale across a
:class:`~concurrent.futures.ProcessPoolExecutor`, reusing the sharded
runner of :mod:`repro.service.shard`.  Allocation solves never come here:
the micro-batcher solves them inline on the event loop, since one batched
solve is ~0.1 ms of NumPy dispatch under the GIL and a thread hand-off
would cost more than it saves.

:class:`WorkerPool` owns the process executor (created lazily, on the
first campaign) and the metric families that the server's ``/stats`` and
``/metrics`` read.  Its workers exit on their own when the process that
owns the pool dies, whatever the start method (:func:`exit_with_parent`).
"""

from __future__ import annotations

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


class WorkerPool:
    """Process workers for campaign grids.

    Parameters
    ----------
    campaign_workers:
        Process workers for campaign grids.  ``1`` runs each campaign in
        the calling process; above 1 the :class:`ProcessPoolExecutor` is
        created on the first campaign and reused across campaigns until
        :meth:`shutdown`.
    """

    def __init__(self, campaign_workers: int = 1) -> None:
        if campaign_workers < 1:
            raise ValueError(
                f"campaign_workers must be at least 1, got {campaign_workers}"
            )
        self.campaign_workers = int(campaign_workers)
        self._campaign_executor: Optional[ProcessPoolExecutor] = None
        self._campaign_lock = threading.Lock()
        self._closed = False
        self.campaigns_run = Counter(
            "repro_pool_campaigns_total",
            "Campaign grids run on the worker pool.",
        )

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
        with self._campaign_lock:
            if self._campaign_executor is not None:
                self._campaign_executor.shutdown(
                    wait=wait, cancel_futures=cancel_pending
                )
                self._campaign_executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("worker pool is shut down")

    # --- campaigns --------------------------------------------------------------
    def _ensure_campaign_executor(self) -> Optional[ProcessPoolExecutor]:
        if self.campaign_workers == 1:
            return None
        with self._campaign_lock:
            # Re-checked under the lock: a concurrent shutdown() may have
            # closed the pool after our caller's _check_open -- recreating
            # the executor here would leak worker processes nobody stops.
            self._check_open()
            if self._campaign_executor is None:
                self._campaign_executor = ProcessPoolExecutor(
                    max_workers=self.campaign_workers,
                    initializer=_init_campaign_worker,
                    initargs=(tracing.active_log_format(), os.getpid()),
                )
            return self._campaign_executor

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

        Delegates to :func:`repro.service.shard.run_sharded_campaign` with
        this pool's persistent executor (``campaign_workers=1`` runs the
        plain in-process fleet engine); results are identical to the
        single-process run to floating-point round-off.  The persistent
        pool's workers keep their engine and campaign-context caches warm
        across campaigns.

        ``completed``/``on_shard_done`` are the durable-store hooks (skip
        journaled cells, journal each shard as it lands -- see the shard
        runner).  Durable or not, the grid runs as one chunk per campaign
        worker: the scan costs per period, not per cell, so finer chunks
        would only repeat it.
        """
        self._check_open()
        # Imported here: the campaign stack (simulation + shard) is only
        # pulled in by services that actually run campaigns.
        from repro.service.shard import run_sharded_campaign

        result = run_sharded_campaign(
            scenarios,
            policies,
            trace,
            config,
            scenario_labels=scenario_labels,
            jobs=self.campaign_workers,
            executor=self._ensure_campaign_executor(),
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
