"""Truncation-aware value containers shared by the series and residue code."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class SeriesEstimate:
    """A partial-sum value with its truncation metadata.

    cutoff is the size threshold (or term bound) that produced the sum;
    terms_used counts the summands; tail_hint, when available, estimates the
    size of the dropped tail.  It is not a bound: for Z(2) of domain L and
    the disk the true error runs about 1.02-1.03 times the hint.
    """

    value: complex
    cutoff: float
    terms_used: int
    tail_hint: Optional[float] = None

    def __complex__(self) -> complex:
        return complex(self.value)


@dataclass
class ResidueEstimate:
    """A residue value at location 1, 0 or 2/3 with fit provenance.

    method is one of exact_polygon, counting_fit, perimeter_fit,
    area_deficit_fit.  For exact_polygon the value is exact rational and
    fit_diagnostics is empty.
    """

    location: float
    value: float
    method: str
    fit_diagnostics: dict = field(default_factory=dict)
