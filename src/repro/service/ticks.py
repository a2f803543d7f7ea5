"""The wall-clock tick driver: real time paces the virtual clock.

The :class:`~repro.service.jobs.JobService` event loop is driven by
``run_until(t)`` on a *virtual* clock — deterministic, replayable, and
as fast as the CPU can pop events; scripts and tests call it directly.
The wall-clock server (:mod:`repro.service.server`) needs the same loop
paced by real time.  Rather than fork jobs.py, it drives the loop
through :class:`WallClockDriver`, which maps monotonic wall time onto
the virtual axis via ``time_scale`` (virtual seconds per wall second)
and advances the service to "whatever virtual instant corresponds to
now" each tick.  With ``time_scale=60`` one real second simulates a
minute of cluster time, so a load test covers hours of billing in
minutes.

The mapping is anchored once, at construction (the server builds its
driver after recovery, so the origin is the recovered clock):
``virtual(t) = origin_virtual + (t - origin_wall) *
time_scale``.  Because the service journals every ``advance`` command,
a wall-clock run recovers exactly like a virtual one — replay re-runs
the same ``run_until`` windows in the same order.
"""

from __future__ import annotations

import time

from repro.errors import ValidationError
from repro.service.jobs import JobService


class WallClockDriver:
    """Pace the service's virtual clock against real (monotonic) time.

    ``time_scale`` is virtual seconds per wall second — ``1.0`` runs the
    simulated cluster in real time, larger values fast-forward it.  The
    ``clock`` argument exists for tests (inject a fake monotonic clock);
    production uses :func:`time.monotonic`.
    """

    #: Mode tag, surfaced in status frames and reports.
    mode = "wall"

    def __init__(self, service: JobService, time_scale: float = 1.0,
                 clock=time.monotonic):
        if time_scale <= 0:
            raise ValidationError(
                f"time_scale must be positive, got {time_scale}")
        self.service = service
        self.time_scale = float(time_scale)
        self._clock = clock
        self._origin_wall = clock()
        self._origin_virtual = service.now

    def now_virtual(self) -> float:
        """The virtual instant corresponding to wall-now."""
        return (self._origin_virtual
                + (self._clock() - self._origin_wall) * self.time_scale)

    def advance(self, to: float | None = None) -> float:
        """Advance the service to ``to`` (default: virtual-now).

        Never runs the clock backwards: if the service is already past
        the target (e.g. a drain raced ahead), this is a no-op.
        """
        target = self.now_virtual() if to is None else to
        if target > self.service.now:
            self.service.run_until(target)
        return self.service.now

    def seconds_until(self, virtual_at: float) -> float:
        """Wall seconds until ``virtual_at`` arrives (>= 0)."""
        return max(0.0, (virtual_at - self.now_virtual()) / self.time_scale)
