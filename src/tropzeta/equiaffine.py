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
