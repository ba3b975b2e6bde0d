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
from .estimates import adaptive_quadrature, elementwise, gauss_legendre
from .geometry import ConvexDomain

_LENGTH_TOL = 1e-10  # absolute tolerance of the adaptive length quadrature


def length_parametric(d1: Callable, d2: Callable, t_range: tuple[float, float]) -> float:
    """Equiaffine length: adaptive quadrature of |det(G'(t), G''(t))|^(1/3).

    d1, d2 return the first and second derivative vectors.  A vanishing first
    derivative on the sample grid is rejected as an irregular parametrization.
    """
    a, b = float(t_range[0]), float(t_range[1])
    if not b > a:
        raise ValueError("empty parameter range")
    for t in np.linspace(a, b, 257):
        dx, dy = d1(float(t))
        if math.hypot(dx, dy) < 1e-14:
            raise ValueError(f"vanishing curve velocity at t = {t}")

    @elementwise
    def integrand(t: float) -> float:
        dx, dy = d1(t)
        ddx, ddy = d2(t)
        det = dx * ddy - dy * ddx
        if abs(det) < 1e-30:  # cube roots of roundoff-negative values
            return 0.0
        return abs(det) ** (1 / 3.0)

    return adaptive_quadrature(integrand, a, b, _LENGTH_TOL)


def length_graph(d2g: Callable[[float], float], interval: tuple[float, float]) -> float:
    """Equiaffine length of a convex graph: integral of (g'')^(1/3).

    g'' may blow up at the interval endpoints (vertical tangents); the cells
    are refined geometrically toward both endpoints, where the integrand
    x^(-1/2)-type singularities remain integrable.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("empty interval")
    width = b - a
    probe = [a + width * f for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    for x in probe:
        if d2g(x) <= 0:
            raise ValueError(f"nonpositive g'' at x = {x}")

    @elementwise
    def integrand(x: float) -> float:
        val = d2g(x)
        if val <= 0:
            raise ValueError(f"nonpositive g'' at x = {x}")
        return val ** (1 / 3.0)

    total = adaptive_quadrature(integrand, a + width / 4, b - width / 4, _LENGTH_TOL)
    # dyadic refinement into both endpoints (each cell is smooth inside),
    # then geometric extrapolation of the remaining power-law tail
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

    A chart with a ``triangle_area`` oracle (the parabola, disk and
    parabolic-triangle charts) gets every wedge's area, in closed form and
    free of cancellation, from one call on its wedge array.  Any other chart
    needs graph data: its tangency points come from ``tangency_x``, one
    bisection per normal, and p, q are differences of support values.

    source is an arc chart, or a smooth/builtin domain (summed over charts,
    all cut by one descent).  Every chart is checked for an oracle or graph
    data before the descent.  Flat pieces (polygons) contribute 0.
    """
    if isinstance(source, ConvexDomain):
        if source.is_polygon:
            if not 0 <= eps < math.inf:  # the tree readers' rule
                raise ValueError(f"eps must be finite and nonnegative, got eps = {eps}")
            return 0.0  # flat boundary: every support triangle degenerates
        charts = source.charts
    else:
        charts = [source]
    if any(chart.triangle_area is None and (chart.g is None or chart.dg is None)
           for chart in charts):
        raise ValueError("triangle route needs chart graph data")
    total = 0.0
    for chart, wedges in zip(charts, chart_frontier_wedges(charts, eps)):
        if chart.triangle_area is not None:
            area = chart.triangle_area(*wedges.T)
            total += 2.0 * float(np.cbrt(area[area > 0]).sum())
            continue
        tangency_cache: dict[tuple[int, int], tuple[float, float]] = {}

        def point_of(a: int, b: int) -> tuple[float, float]:
            key = (a, b)
            if key not in tangency_cache:
                x = chart.tangency_x(a, b)
                tangency_cache[key] = (x, float(chart.g(x)))
            return tangency_cache[key]

        for a1, b1, a2, b2 in wedges.tolist():
            x1, y1 = point_of(a1, b1)  # tangency of the first normal
            x2, y2 = point_of(a2, b2)
            g1 = a1 * x1 + b1 * y1  # support values
            g2 = a2 * x2 + b2 * y2
            p = a1 * x2 + b1 * y2 - g1  # slack of the v-tangency along u
            q = a2 * x1 + b2 * y1 - g2
            area = p * q / 2
            if area > 0:
                total += 2.0 * area ** (1 / 3.0)
    return float(total)  # graph data may hand back numpy scalars
