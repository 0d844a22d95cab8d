"""Calendar-free durations and SOP-relative offset rendering.

All arithmetic is in whole days with fixed designators: a year is 360 days,
a month 30, a week 7. Sub-day resolution is not supported. A duration spans
at most `MAX_DAYS`, so every sum of durations stays an exact integer far
below Python's 4300-digit limit on printing one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

DAYS_PER_MONTH = 30
DAYS_PER_WEEK = 7
DAYS_PER_YEAR = 360
MAX_DAYS = 1_000_000

_DURATION = re.compile(r"^P(?:(\d+)Y)?(?:(\d+)M)?(?:(\d+)W)?(?:(\d+)D)?$")


@dataclass(frozen=True, order=True)
class Duration:
    """A non-negative span of whole days."""

    days: int

    def __post_init__(self):
        if self.days < 0:
            raise ValueError(f"duration must be non-negative, got {self.days}")

    def __str__(self) -> str:
        return f"P{self.days}D"


# `Duration` is frozen and a bundle repeats a few day counts thousands of
# times, so each count is built once, for parsing, extraction and decoding.
@lru_cache(maxsize=1024)
def shared_duration(days: int | None) -> Duration | None:
    """The one `Duration` of `days` days; None for None."""
    return None if days is None else Duration(days)


@lru_cache(maxsize=1024)
def parse_duration(text: str) -> Duration:
    """Parse an ISO-8601 duration with Y/M/W/D designators into days.

    Mixed designators sum, e.g. P1M2W -> 44 days. Time-of-day components
    and spans over `MAX_DAYS` are rejected. Cached per text; `P1M` returns
    the `P30D` object.
    """
    m = _DURATION.match(text.strip())
    if m is None or all(g is None for g in m.groups()):
        raise ValueError(f"unsupported ISO-8601 duration {text!r}")
    years, months, weeks, days = (int(g) if g else 0 for g in m.groups())
    total = years * DAYS_PER_YEAR + months * DAYS_PER_MONTH + weeks * DAYS_PER_WEEK + days
    if total > MAX_DAYS:
        raise ValueError(f"unsupported ISO-8601 duration {text!r}: over {MAX_DAYS} days")
    return shared_duration(total)


def parse_offset_days(text: str) -> int:
    """Parse a declared SOP offset: signed integer days, negative = before SOP,
    or an ISO-8601 duration that many days before SOP (`P2M` is -60)."""
    if text.strip().startswith("P"):
        return -parse_duration(text).days
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(
            f"declared offset must be signed integer days or an ISO-8601 duration, got {text!r}"
        ) from None


def render_offset(days: int) -> str:
    """Human wording for an SOP-relative offset.

    Whole multiples of 30 days render in months; anything else in days.
    """
    if days == 0:
        return "at SOP"
    side = "before SOP" if days < 0 else "after SOP"
    magnitude = abs(days)
    if magnitude % DAYS_PER_MONTH == 0:
        months = magnitude // DAYS_PER_MONTH
        unit = "month" if months == 1 else "months"
        return f"{months} {unit} {side}"
    unit = "day" if magnitude == 1 else "days"
    return f"{magnitude} {unit} {side}"
