"""Equiaffine arc length in its three guises.

For a C^2 regular curve:   L = integral of |det(dG, ddG)|^(1/3) dt.
For a convex graph y=g(x): L = integral of (g'')^(1/3) dx.
Support-triangle limit:    L = lim over shrinking partitions of
                           sum 2 Area(Delta_i)^(1/3) = sum 2^(2/3) size^(2/3),
taken here over the frontier leaves of the corner-cut descent.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .cutting import chart_frontier_wedges
from .estimates import adaptive_quadrature, gauss_legendre
from .geometry import ConvexDomain

_LENGTH_TOL = 1e-10  # absolute tolerance of the adaptive length quadrature


def length_parametric(d1: Callable, d2: Callable, t_range: tuple[float, float]) -> float:
    """Equiaffine length: the integral of |det(G'(t), G''(t))|^(1/3).

    d1, d2 take the float64 array of parameters and return the first and
    second derivative vectors as pairs of arrays (or scalars, broadcast).
    A vanishing first derivative at an interior point of a 257-point grid
    is rejected as an irregular parametrization.  Integrated by
    _endpoint_refined, so an end where the curvature blows up integrably
    (the arc of a graph with a vertical tangent) is never evaluated.
    """
    a, b = float(t_range[0]), float(t_range[1])
    if not b > a:
        raise ValueError("empty parameter range")
    ts = np.linspace(a, b, 257)[1:-1]
    slow = np.broadcast_to(np.hypot(*d1(ts)) < 1e-14, ts.shape)
    if slow.any():
        raise ValueError(f"vanishing curve velocity at t = {ts[slow][0]}")

    def integrand(t):
        (dx, dy), (ddx, ddy) = d1(t), d2(t)
        det = np.abs(dx * ddy - dy * ddx)
        # cube roots of roundoff-sized values are not curvature
        return np.where(det < 1e-30, 0.0, det) ** (1 / 3.0)

    return _endpoint_refined(integrand, a, b)


def length_graph(d2g: Callable, interval: tuple[float, float]) -> float:
    """Equiaffine length of a convex graph: integral of (g'')^(1/3).

    d2g takes the float64 array of abscissae (a scalar return is
    broadcast); a nonpositive value anywhere the rule samples is refused.
    g'' may blow up at the interval endpoints (vertical tangents), which
    _endpoint_refined never evaluates.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("empty interval")

    def integrand(x):
        val = d2g(x)
        bad = np.broadcast_to(val <= 0, x.shape)
        if bad.any():
            raise ValueError(f"nonpositive g'' at x = {x[bad][0]}")
        return val ** (1 / 3.0)

    return _endpoint_refined(integrand, a, b)


def _endpoint_refined(integrand: Callable, a: float, b: float) -> float:
    """int_a^b of an integrand of arrays with integrable x^(-1/2)-type
    singularities allowed at both ends: adaptive Gauss-Legendre on the
    middle half, dyadic cells into each end (each cell is smooth inside),
    then geometric extrapolation of the remaining power-law tail.  Every
    rule is open, so neither end is evaluated."""
    width = b - a
    total = adaptive_quadrature(integrand, a + width / 4, b - width / 4, _LENGTH_TOL)
    for side in (0, 1):
        h = width / 4
        cells: list[float] = []
        while h > 1e-13 * width:
            cell = (gauss_legendre(integrand, a + h / 2, a + h) if side == 0
                    else gauss_legendre(integrand, b - h, b - h / 2))
            total += cell
            cells.append(cell)
            if len(cells) >= 2 and cells[-2] > 0 and cell / cells[-2] < 1e-3:
                cells.clear()  # integrand regular at this endpoint
                break
            h /= 2
        if len(cells) >= 2 and cells[-2] > 0:
            ratio = cells[-1] / cells[-2]
            if 0 < ratio < 1:
                total += cells[-1] * ratio / (1 - ratio)
    return total


def length_via_triangles(source, eps: float) -> float:
    """Support-triangle approximation of the equiaffine length.

    The frontier leaf wedges of the corner-cut descent at threshold eps tile
    the arc; each piece contributes 2 Area(Delta)^(1/3) with Delta its
    support triangle, bounded by the two endpoint tangent lines and the
    chord.  In the wedge frame with normals u, v the tangency points have
    slack coordinates (0, q) and (p, 0), so Area = p q / 2.

    Every chart gets its wedges' areas, as floats, from one call of its
    ``triangle_area`` oracle on its wedge array: a closed form free of
    cancellation on the parabola, disk and parabolic-triangle charts, and
    on a graph chart (a JSON chart) the slacks of the tangency points,
    solved on the whole array (geometry.graph_oracles).

    source is an arc chart, or a smooth/builtin domain (summed over charts,
    all cut by one descent).  Every chart is checked for the oracle before
    the descent.  Flat pieces (polygons) contribute 0.
    """
    if isinstance(source, ConvexDomain):
        if source.is_polygon:
            if not 0 <= eps < math.inf:  # the tree readers' rule
                raise ValueError(f"eps must be finite and nonnegative, got eps = {eps}")
            return 0.0  # flat boundary: every support triangle degenerates
        charts = source.charts
    else:
        charts = [source]
    if any(chart.triangle_area is None for chart in charts):
        raise ValueError("triangle route needs chart graph data")
    total = 0.0
    for chart, wedges in zip(charts, chart_frontier_wedges(charts, eps)):
        area = chart.triangle_area(*wedges.T)
        total += 2.0 * float(np.cbrt(area[area > 0]).sum())
    return total
