"""Closed-interval arithmetic for uncertain circuit parameters.

Table 1 of the paper specifies every CP PLL parameter as a closed interval
(e.g. ``C1 ∈ [1.98, 2.2] pF``).  The verification conditions quantify over
these intervals; the behavioural simulator samples them.  This module keeps
that bookkeeping in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]


@dataclass(frozen=True)
class Interval:
    """A non-empty closed interval ``[lower, upper]``."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval bounds must not be NaN")
        if self.lower > self.upper:
            raise ValueError(f"empty interval: [{self.lower}, {self.upper}]")
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))

    # -- constructors -------------------------------------------------------
    @classmethod
    def point(cls, value: Number) -> "Interval":
        return cls(float(value), float(value))

    @classmethod
    def coerce(cls, value: Union["Interval", Number, Tuple[Number, Number]]) -> "Interval":
        if isinstance(value, Interval):
            return value
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return cls(float(value[0]), float(value[1]))
        return cls.point(float(value))

    # -- queries -------------------------------------------------------------
    @property
    def center(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def radius(self) -> float:
        return 0.5 * self.width

    def is_degenerate(self, tolerance: float = 0.0) -> bool:
        return self.width <= tolerance

    def contains(self, value: Number, tolerance: float = 0.0) -> bool:
        return self.lower - tolerance <= float(value) <= self.upper + tolerance

    def contains_interval(self, other: "Interval") -> bool:
        return self.lower <= other.lower and other.upper <= self.upper

    def clamp(self, value: Number) -> float:
        return min(max(float(value), self.lower), self.upper)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=size)

    def linspace(self, count: int) -> np.ndarray:
        return np.linspace(self.lower, self.upper, count)

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: Union["Interval", Number]) -> "Interval":
        other = Interval.coerce(other)
        return Interval(self.lower + other.lower, self.upper + other.upper)

    def __radd__(self, other: Number) -> "Interval":
        return self.__add__(other)

    def __neg__(self) -> "Interval":
        return Interval(-self.upper, -self.lower)

    def __sub__(self, other: Union["Interval", Number]) -> "Interval":
        return self.__add__(-Interval.coerce(other))

    def __rsub__(self, other: Number) -> "Interval":
        return (-self).__add__(other)

    def __mul__(self, other: Union["Interval", Number]) -> "Interval":
        other = Interval.coerce(other)
        candidates = [self.lower * other.lower, self.lower * other.upper,
                      self.upper * other.lower, self.upper * other.upper]
        return Interval(min(candidates), max(candidates))

    def __rmul__(self, other: Number) -> "Interval":
        return self.__mul__(other)

    def reciprocal(self) -> "Interval":
        if self.lower <= 0.0 <= self.upper:
            raise ZeroDivisionError(f"interval {self} contains zero")
        return Interval(1.0 / self.upper, 1.0 / self.lower)

    def __truediv__(self, other: Union["Interval", Number]) -> "Interval":
        return self.__mul__(Interval.coerce(other).reciprocal())

    def __rtruediv__(self, other: Number) -> "Interval":
        return Interval.coerce(other).__mul__(self.reciprocal())

    def scaled(self, factor: Number) -> "Interval":
        return self * float(factor)

    # -- display -----------------------------------------------------------------
    def __iter__(self) -> Iterator[float]:
        return iter((self.lower, self.upper))

    def __str__(self) -> str:
        return f"[{self.lower:g}, {self.upper:g}]"


def interval_vertices(intervals: Sequence[Interval]) -> Iterator[Tuple[float, ...]]:
    """All corner points of a box of intervals (2^n vertices)."""
    if not intervals:
        yield ()
        return
    first, rest = intervals[0], intervals[1:]
    for tail in interval_vertices(rest):
        yield (first.lower,) + tail
        if not first.is_degenerate():
            yield (first.upper,) + tail


def box_center(intervals: Sequence[Interval]) -> Tuple[float, ...]:
    return tuple(iv.center for iv in intervals)


def sample_box_parameters(intervals: Sequence[Interval], rng: np.random.Generator) -> Tuple[float, ...]:
    return tuple(float(iv.sample(rng, 1)[0]) for iv in intervals)
