"""Multi-process front-end for the allocation service.

One server process is a single asyncio event loop: plenty for the
micro-batched ``/allocate`` path, but every front-end duty -- JSON
encode/decode, chunked streaming, journal replay -- shares that loop.
:func:`run_frontend` runs **N independent server processes accepting on
one port** via ``SO_REUSEPORT`` (the kernel load-balances accepted
connections across the listening sockets), each with its own
:class:`~repro.service.server.AllocationService`, worker pool and store
connection::

    python -m repro serve --procs 4 --store /var/lib/repro/jobs.db

The processes never talk to each other.  They coordinate solely through
the shared :class:`~repro.service.store.CampaignStore`:

- ``POST /v1/campaign`` journals the submission before acking, so *any*
  front-end can answer ``GET /v1/campaign/<id>`` for *any* job -- a
  status hit on a sibling's job is a store read, not a proxy hop.
- Advisory job leases (owner = ``host:pid:token``) ensure exactly one
  front-end executes a given job's shards; the rest observe its progress
  through the journal.
- On restart, each front-end re-adopts unfinished journaled jobs whose
  lease is abandoned -- whichever process wins the lease re-runs only
  the shards the journal is missing.

``--procs`` above 1 therefore *requires* ``--store``: without a journal
the processes would be N unrelated services behind one port.

The parent process is a plain supervisor: it resolves the port (an
ephemeral ``--port 0`` is bound once, so all children agree), spawns the
children through the ``spawn`` context (no inherited event loops or
locks), forwards SIGTERM/SIGINT, and exits non-zero if any child dies
unexpectedly.
"""

from __future__ import annotations

import signal
import socket
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["FrontendConfig", "build_service", "run_frontend"]


@dataclass(frozen=True)
class FrontendConfig:
    """Picklable bundle of every ``repro serve`` knob.

    The multi-process path ships this to ``spawn``-context children, so
    it must stay plain data: strings, numbers, ``None`` -- no sockets,
    services or parsed objects.  ``slo_ms`` is the parsed spec (a plain
    dict survives pickling fine).
    """

    host: str = "127.0.0.1"
    port: int = 8734
    port_file: Optional[str] = None
    procs: int = 1
    store: Optional[str] = None
    store_sync: str = "normal"
    cache_size: int = 4096
    window_ms: float = 2.0
    max_batch: int = 1024
    workers: int = 1
    campaign_workers: Optional[int] = None
    backend: str = "numpy"
    log_format: str = "text"
    slo_ms: Optional[Dict[str, float]] = field(default=None)


def build_service(config: FrontendConfig) -> Any:
    """Construct one front-end's :class:`AllocationService` from the config.

    Each process builds its own service -- and with ``--store``, its own
    :class:`~repro.service.store.CampaignStore` connection to the shared
    journal (SQLite connections must not cross process boundaries).
    """
    # Imported here so ``python -m repro fleet`` never pays for the
    # service stack, and so spawn-context children import it fresh.
    from repro.service.server import AllocationService
    from repro.service.store import CampaignStore

    store = None
    if config.store:
        store = CampaignStore(config.store, sync=config.store_sync)
    return AllocationService(
        cache_size=config.cache_size,
        window_s=config.window_ms / 1000.0,
        max_batch=config.max_batch,
        workers=config.workers,
        campaign_workers=config.campaign_workers,
        default_backend=config.backend,
        slo_ms=config.slo_ms,
        store=store,
    )


def _child_main(config: FrontendConfig, port: int, index: int) -> None:
    """Entry point of one front-end process (spawn context).

    Every child binds the same ``port`` with ``SO_REUSEPORT``.  Child 0
    is the spokesperson: it announces the address and writes
    ``--port-file``; its siblings serve silently.
    """
    import asyncio

    from repro.obs.tracing import configure_logging
    from repro.service.server import serve

    configure_logging(config.log_format)
    # The parent owns process-group signal handling; children exit on the
    # default SIGTERM and turn SIGINT into a clean KeyboardInterrupt stop.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    service = build_service(config)
    try:
        asyncio.run(
            serve(
                service=service,
                host=config.host,
                port=port,
                port_file=config.port_file if index == 0 else None,
                announce=index == 0,
                reuse_port=True,
            )
        )
    except KeyboardInterrupt:
        pass
    finally:
        service.close()


def _resolve_port(config: FrontendConfig) -> int:
    """Pin down the port every child will bind.

    ``--port 0`` asks the kernel for an ephemeral port -- but N children
    must agree on *one* number, so the parent binds a throwaway
    ``SO_REUSEPORT`` socket first and hands the chosen port to the
    children.  (The probe closes before the children bind; the reuse
    flag keeps the number immediately rebindable.)
    """
    if config.port != 0:
        return config.port
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((config.host, 0))
        return int(probe.getsockname()[1])
    finally:
        probe.close()


def run_frontend(config: FrontendConfig) -> int:
    """Run ``--procs`` front-end processes on one port; block until exit.

    ``procs == 1`` degenerates to the classic single-process server (no
    ``SO_REUSEPORT``, no supervisor).  Above 1, the store is mandatory
    and the parent supervises: SIGTERM/SIGINT fan out to the children,
    and a child dying on its own tears the fleet down with exit code 1.
    """
    if config.procs <= 1:
        from repro.obs.tracing import configure_logging
        from repro.service.server import run_server

        configure_logging(config.log_format)
        service = build_service(config)
        return run_server(
            service,
            host=config.host,
            port=config.port,
            port_file=config.port_file,
        )

    if not config.store:
        print(
            "--procs above 1 requires --store: independent front-ends "
            "coordinate only through the shared campaign journal",
            file=sys.stderr,
        )
        return 2
    if not hasattr(socket, "SO_REUSEPORT"):
        print(
            "--procs above 1 requires SO_REUSEPORT, which this platform "
            "does not provide",
            file=sys.stderr,
        )
        return 2

    import multiprocessing

    port = _resolve_port(config)
    context = multiprocessing.get_context("spawn")
    children: List[Any] = [
        context.Process(
            target=_child_main,
            args=(config, port, index),
            name=f"repro-frontend-{index}",
            daemon=False,
        )
        for index in range(config.procs)
    ]
    for child in children:
        child.start()

    stopping = False

    def _forward(signum: int, _frame: Any) -> None:
        nonlocal stopping
        stopping = True
        for child in children:
            if child.is_alive():
                child.terminate()

    previous: List[Tuple[int, Any]] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous.append((signum, signal.signal(signum, _forward)))
    try:
        # Supervise: leave as soon as any child exits.  A requested stop
        # drains them all; an unrequested death takes the fleet down.
        while True:
            alive = [child for child in children if child.is_alive()]
            if stopping or len(alive) < len(children):
                break
            time.sleep(0.1)
        if not stopping and any(
            child.exitcode not in (0, None) or not child.is_alive()
            for child in children
        ):
            for child in children:
                if child.is_alive():
                    child.terminate()
        for child in children:
            child.join(timeout=10.0)
        for child in children:
            if child.is_alive():  # pragma: no cover - last-resort cleanup
                child.kill()
                child.join(timeout=5.0)
    finally:
        for signum, handler in previous:
            signal.signal(signum, handler)

    if stopping:
        print("allocation service stopped", flush=True)
        return 0
    failed = [
        child.name for child in children if child.exitcode not in (0, -15)
    ]
    if failed:
        print(
            f"front-end process(es) exited unexpectedly: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0
