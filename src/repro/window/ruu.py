"""The unified instruction window (RUU) container."""

from __future__ import annotations

from typing import Iterator

from repro.window.station import Station


class InstructionWindow:
    """Program-ordered window of in-flight stations.

    Entries are keyed by station id (monotonically increasing with dynamic
    program order, wrong-path instructions included), so iteration order is
    age order and the head is the oldest unretired instruction.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # A plain dict: insertion order is age order (sids are monotonic),
        # and plain-dict mutation is measurably cheaper than OrderedDict's
        # linked-list maintenance on the dispatch/retire hot path.
        self._stations: dict[int, Station] = {}
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._stations)

    def __iter__(self) -> Iterator[Station]:
        return iter(self._stations.values())

    def __contains__(self, sid: int) -> bool:
        return sid in self._stations

    @property
    def full(self) -> bool:
        return len(self._stations) >= self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._stations)

    def get(self, sid: int) -> Station | None:
        return self._stations.get(sid)

    def head(self) -> Station | None:
        """Oldest station, or None when empty."""
        if not self._stations:
            return None
        return next(iter(self._stations.values()))

    def oldest(self, count: int) -> list[Station]:
        """The ``count`` oldest stations (for retirement-based schemes)."""
        out: list[Station] = []
        for station in self._stations.values():
            if len(out) >= count:
                break
            out.append(station)
        return out

    def insert(self, station: Station) -> None:
        """Dispatch a station into the window (program order enforced)."""
        if self.full:
            raise RuntimeError("window full")
        if self._stations:
            last_sid = next(reversed(self._stations))
            if station.sid <= last_sid:
                raise ValueError(
                    f"window insertion out of order: {station.sid} after {last_sid}"
                )
        self._stations[station.sid] = station
        if len(self._stations) > self.peak_occupancy:
            self.peak_occupancy = len(self._stations)

    def release_head(self) -> Station:
        """Retire the oldest station and free its entry."""
        if not self._stations:
            raise RuntimeError("window empty")
        return self._stations.pop(next(iter(self._stations)))

    def squash_younger_than(self, sid: int) -> list[Station]:
        """Remove every station younger than ``sid``; returns the removed
        stations, youngest first."""
        doomed = [s for s in self._stations if s > sid]
        removed: list[Station] = []
        for victim_sid in reversed(doomed):
            removed.append(self._stations.pop(victim_sid))
        return removed
