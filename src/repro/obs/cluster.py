"""Cluster scope: merge per-process observability snapshots exactly.

``repro serve --procs N`` is N independent processes behind one
SO_REUSEPORT socket, so a plain ``GET /metrics`` scrape only ever sees
the one process the kernel routed it to.  This module is the other half
of ``?scope=cluster``: each process periodically publishes a *snapshot*
of its observability state into the shared :class:`CampaignStore`, and
any process can merge the live snapshots into one answer.

A snapshot (see :func:`build_snapshot`) is a plain JSON document:

* ``families`` -- :meth:`MetricsRegistry.snapshot`: every family's
  samples.  Counters and log2-bucket histograms merge *exactly* across
  processes (fixed shared bounds, so bucket counts sum elementwise);
  gauges are inherently per-process and are kept distinct under a
  ``proc`` label instead of being summed.
* ``slo`` -- :meth:`SloTracker.snapshot`: good/bad counts per wall-clock
  epoch bucket, from which :func:`repro.obs.slo.merged_burn_rates`
  reconstructs the cluster burn rate exactly.
* ``stats`` -- the process's ``/stats`` document, so
  ``/v1/stats?scope=cluster`` and ``repro top`` get per-process rows
  without extra scrapes.

:func:`render_cluster` produces the merged Prometheus exposition:
every process's series with a ``proc="host:pid"`` label added, plus
synthesized ``repro_cluster_*`` families (live front-end count, merged
SLO event totals, cluster burn rates).  Liveness is the store's job --
snapshots from dead or silent processes age out after a TTL before this
module ever sees them.
"""

from __future__ import annotations

import json
import os
import socket
from typing import Any, Dict, List, Mapping, Optional

from . import slo as slo_module
from .metrics import MetricsRegistry, format_labels, format_value

#: Snapshots older than this are considered stale and excluded from the
#: cluster scope (and eventually deleted by the store).  Publishers run
#: every ~2 s, so 15 s tolerates a few missed beats but ages a SIGKILLed
#: process out of dashboards within seconds.
DEFAULT_SNAPSHOT_TTL_S = 15.0

#: How often each front-end publishes its snapshot (and drains finished
#: spans) into the store.
PUBLISH_INTERVAL_S = 2.0


def proc_identity(
    pid: Optional[int] = None, host: Optional[str] = None
) -> str:
    """This process's cluster-wide identity, ``host:pid``."""
    if pid is None:
        pid = os.getpid()
    if host is None:
        host = socket.gethostname()
    return f"{host}:{pid}"


def build_snapshot(
    registry: MetricsRegistry,
    slo: Optional[Any] = None,
    stats: Optional[Mapping[str, Any]] = None,
    proc: Optional[str] = None,
) -> Dict[str, Any]:
    """One process's publishable observability snapshot."""
    if proc is None:
        proc = proc_identity()
    host, _, pid = proc.rpartition(":")
    payload: Dict[str, Any] = {
        "proc": proc,
        "host": host,
        "pid": int(pid) if pid.isdigit() else 0,
        "families": registry.snapshot(),
    }
    if slo is not None:
        payload["slo"] = slo.snapshot()
    if stats is not None:
        payload["stats"] = dict(stats)
    return payload


def encode_snapshot(payload: Mapping[str, Any]) -> bytes:
    """A snapshot as compact UTF-8 JSON (the store's payload format)."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def decode_snapshot(raw: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_snapshot`."""
    return json.loads(raw.decode("utf-8"))


def _synthesized_lines(snapshots: List[Mapping[str, Any]]) -> List[str]:
    """The ``repro_cluster_*`` families appended to the merged exposition."""
    lines = [
        "# HELP repro_cluster_frontends Live front-end processes "
        "contributing to this cluster scrape.",
        "# TYPE repro_cluster_frontends gauge",
        f"repro_cluster_frontends {format_value(float(len(snapshots)))}",
    ]
    slo_payloads = [p["slo"] for p in snapshots if p.get("slo")]
    if not slo_payloads:
        return lines
    merged = slo_module.merged_burn_rates(slo_payloads)
    objectives = merged.get("objectives", {})
    if not objectives:
        return lines
    lines.append(
        "# HELP repro_cluster_slo_events_total Requests judged against "
        "each SLO across all live processes, by outcome."
    )
    lines.append("# TYPE repro_cluster_slo_events_total counter")
    for key, entry in sorted(objectives.items()):
        good = entry.get("good", 0)
        bad = entry.get("total", 0) - good
        for outcome, value in (("good", good), ("bad", bad)):
            labels = format_labels({"outcome": outcome, "slo": key})
            lines.append(
                f"repro_cluster_slo_events_total{labels} {format_value(value)}"
            )
    lines.append(
        "# HELP repro_cluster_slo_burn_rate Error-budget burn rate per "
        "SLO computed from the merged epochs of all live processes."
    )
    lines.append("# TYPE repro_cluster_slo_burn_rate gauge")
    for key, entry in sorted(objectives.items()):
        for field, value in sorted(entry.items()):
            if not field.startswith("burn_rate_"):
                continue
            window = field[len("burn_rate_"):]
            labels = format_labels({"slo": key, "window": window})
            lines.append(
                f"repro_cluster_slo_burn_rate{labels} {format_value(value)}"
            )
    return lines


def render_cluster(snapshots: List[Mapping[str, Any]]) -> str:
    """The merged Prometheus exposition of the live snapshots.

    Every process's series are kept distinct under a ``proc`` label
    (``setdefault``: families that already carry one, like
    ``repro_frontend_up``, are not double-labelled) so no information is
    lost; exact cluster totals for counters and histograms are one
    ``sum by`` away in PromQL.  Synthesized ``repro_cluster_*`` families
    carry what cannot be recovered from per-process series: the live
    process count and the burn rates from the merged SLO epochs.
    """
    ordered = sorted(snapshots, key=lambda p: str(p.get("proc", "")))
    names: Dict[str, Dict[str, Any]] = {}
    for payload in ordered:
        for name, family in payload.get("families", {}).items():
            names.setdefault(name, family)
    lines: List[str] = []
    for name, first in names.items():
        lines.append(f"# HELP {name} {first.get('help', '')}")
        lines.append(f"# TYPE {name} {first.get('kind', 'untyped')}")
        for payload in ordered:
            family = payload.get("families", {}).get(name)
            if family is None:
                continue
            proc = str(payload.get("proc", ""))
            for suffix, labels, value in family.get("samples", ()):
                labelled = dict(labels)
                labelled.setdefault("proc", proc)
                lines.append(
                    f"{name}{suffix}{format_labels(labelled)} "
                    f"{format_value(value)}"
                )
    lines.extend(_synthesized_lines(ordered))
    return "\n".join(lines) + "\n"


def cluster_stats(
    snapshots: List[Mapping[str, Any]], now: Optional[float] = None
) -> Dict[str, Any]:
    """The merged ``/stats?scope=cluster`` document.

    Per-process ``/stats`` documents are kept whole under their ``proc``
    key (that is what ``repro top`` renders as rows); the cluster-level
    ``slo`` section is recomputed from the merged epochs rather than
    averaged from per-process burn rates, which would be wrong whenever
    traffic is unevenly routed.
    """
    ordered = sorted(snapshots, key=lambda p: str(p.get("proc", "")))
    return {
        "scope": "cluster",
        "procs": {
            str(payload.get("proc", f"unknown-{index}")):
                payload.get("stats", {})
            for index, payload in enumerate(ordered)
        },
        "slo": slo_module.merged_burn_rates(
            [p["slo"] for p in ordered if p.get("slo")], now
        ),
    }


__all__ = [
    "DEFAULT_SNAPSHOT_TTL_S",
    "PUBLISH_INTERVAL_S",
    "build_snapshot",
    "cluster_stats",
    "decode_snapshot",
    "encode_snapshot",
    "proc_identity",
    "render_cluster",
]
