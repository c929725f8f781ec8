"""Hybrid time domains and hybrid arcs (Definitions 1 and 2 of the paper).

A hybrid time domain is a union of intervals ``[t_j, t_{j+1}] x {j}``; a
hybrid arc attaches a state trajectory to each interval.  These classes store
simulation output in exactly that structure so that properties phrased over
hybrid time (inevitability, bounded reachability) can be checked directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class HybridTimeInterval:
    """One piece ``[t_start, t_end] x {jump_index}`` of a hybrid time domain."""

    t_start: float
    t_end: float
    jump_index: int

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"interval end {self.t_end} precedes start {self.t_start}"
            )
        if self.jump_index < 0:
            raise ValueError("jump index must be non-negative")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class HybridTimeDomain:
    """An ordered collection of :class:`HybridTimeInterval` pieces."""

    def __init__(self, intervals: Optional[Sequence[HybridTimeInterval]] = None):
        self._intervals: List[HybridTimeInterval] = []
        for interval in intervals or []:
            self.append(interval)

    def append(self, interval: HybridTimeInterval) -> None:
        if self._intervals:
            last = self._intervals[-1]
            if interval.jump_index != last.jump_index + 1:
                raise ValueError(
                    f"jump index must increase by one (got {interval.jump_index} "
                    f"after {last.jump_index})"
                )
            if interval.t_start < last.t_end - 1e-12:
                raise ValueError("continuous time must be non-decreasing across jumps")
        elif interval.jump_index != 0:
            raise ValueError("the first interval must have jump index 0")
        self._intervals.append(interval)

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[HybridTimeInterval]:
        return iter(self._intervals)

    def __getitem__(self, item: int) -> HybridTimeInterval:
        return self._intervals[item]

    @property
    def num_jumps(self) -> int:
        return max((iv.jump_index for iv in self._intervals), default=0)

    @property
    def total_flow_time(self) -> float:
        return sum(iv.duration for iv in self._intervals)

    @property
    def final_time(self) -> Tuple[float, int]:
        if not self._intervals:
            return (0.0, 0)
        last = self._intervals[-1]
        return (last.t_end, last.jump_index)

    def describe(self) -> str:
        t, j = self.final_time
        return f"HybridTimeDomain({len(self)} intervals, flow time {t:.4g}, {j} jumps)"


@dataclass
class ArcSegment:
    """A sampled trajectory over one hybrid time interval in one mode."""

    interval: HybridTimeInterval
    mode: str
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("segment times and states have different lengths")

    @property
    def initial_state(self) -> np.ndarray:
        return self.states[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def duration(self) -> float:
        return self.interval.duration


class HybridArc:
    """A simulated solution: a sequence of :class:`ArcSegment` pieces."""

    def __init__(self, segments: Optional[Sequence[ArcSegment]] = None):
        self.segments: List[ArcSegment] = list(segments or [])

    def append(self, segment: ArcSegment) -> None:
        self.segments.append(segment)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[ArcSegment]:
        return iter(self.segments)

    @property
    def time_domain(self) -> HybridTimeDomain:
        return HybridTimeDomain([segment.interval for segment in self.segments])

    @property
    def num_jumps(self) -> int:
        return max(0, len(self.segments) - 1)

    @property
    def total_flow_time(self) -> float:
        return sum(segment.duration for segment in self.segments)

    @property
    def initial_state(self) -> np.ndarray:
        if not self.segments:
            raise ValueError("empty hybrid arc")
        return self.segments[0].initial_state

    @property
    def final_state(self) -> np.ndarray:
        if not self.segments:
            raise ValueError("empty hybrid arc")
        return self.segments[-1].final_state

    def mode_sequence(self) -> Tuple[str, ...]:
        return tuple(segment.mode for segment in self.segments)

    def all_states(self) -> np.ndarray:
        """All sampled states stacked into one ``(m, n)`` array."""
        if not self.segments:
            return np.empty((0, 0))
        return np.vstack([segment.states for segment in self.segments])

    def distance_to(self, point: Sequence[float]) -> np.ndarray:
        """Euclidean distance of every sample to ``point`` (convergence checks)."""
        states = self.all_states()
        target = np.asarray(point, dtype=float)
        return np.linalg.norm(states - target, axis=1)

    def converged_to(self, point: Sequence[float], tolerance: float,
                     window: int = 20) -> bool:
        """True when the last ``window`` samples are within ``tolerance`` of ``point``."""
        distances = self.distance_to(point)
        if distances.size == 0:
            return False
        tail = distances[-window:]
        return bool(np.all(tail <= tolerance))

    def describe(self) -> str:
        return (f"HybridArc({len(self.segments)} segments, "
                f"{self.total_flow_time:.4g} flow time, modes {self.mode_sequence()[:6]}...)")
