"""Phase profiler for the campaign pipeline.

A campaign run is a short fixed pipeline (harvest matrix, scan settle,
per-cell solves, context pack, merge), so the profiler is just a
named-accumulator map with a timing context manager -- cheap enough to
leave on permanently, which is the point: ``FleetResult.phase_timings``
and ``CampaignResponse.profile`` always carry the breakdown, and the
service folds it into per-phase histograms in ``/metrics``.

Phase names accumulate: timing the same phase twice (e.g. ``cell_solve``
once per cell) sums the durations.  Worker processes each build their own
profiler and return ``as_dict()``; the parent folds them back with
:meth:`PhaseProfiler.merge` so sharded and in-process campaigns report
the same phase vocabulary.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, Mapping


class PhaseProfiler:
    """Accumulates wall-clock seconds per named pipeline phase."""

    def __init__(self) -> None:
        self._phases: Dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the body and add its duration under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Add already-measured seconds under ``name``."""
        self._phases[name] = self._phases.get(name, 0.0) + float(seconds)

    def merge(self, phases: Mapping[str, float]) -> None:
        """Fold another profiler's ``as_dict()`` into this one."""
        for name, seconds in phases.items():
            self.add(name, seconds)

    def as_dict(self) -> Dict[str, float]:
        """Phase name -> accumulated seconds, name-sorted."""
        return {name: self._phases[name] for name in sorted(self._phases)}

    def __bool__(self) -> bool:
        return bool(self._phases)


__all__ = ["PhaseProfiler"]
