"""End-to-end exactness fuzz over random rational polygons: the cutting
telescoping identities, the Theorem-1 route against independent chamber
integration, and the residues, all in exact arithmetic."""

import random
from fractions import Fraction

import pytest

from tropzeta.cutting import enumerate_cuts
from tropzeta.geometry import ConvexDomain, corner_singularity, det2, sub2
from tropzeta.minimal import correction_h, minimal_model_of
from tropzeta.zeta import boundary_series, zeta_polygon_exact, zeta_via_identity


def convex_hull(points):
    pts = sorted(set(points))
    if len(pts) < 3:
        return []

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and det2(sub2(out[-1], out[-2]), sub2(p, out[-2])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return lower[:-1] + upper[:-1]


def random_polygon(rng):
    while True:
        pts = [
            (Fraction(rng.randint(-24, 24), rng.randint(1, 4)),
             Fraction(rng.randint(-24, 24), rng.randint(1, 4)))
            for _ in range(rng.randint(5, 10))
        ]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            return ConvexDomain.from_polygon(hull)


SEEDS = [1, 2, 5, 9, 12, 17, 23, 31]


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_pipeline_on_random_polygon(seed):
    rng = random.Random(seed)
    dom = random_polygon(rng)
    tree = enumerate_cuts(dom, 0)
    hat = tree.minimal_model.polygon

    # telescoping: area and lattice perimeter
    assert hat.area() - dom.polygon.area() == sum(s * s for s in tree.sizes()) / 2
    assert hat.lattice_perimeter() - sum(tree.sizes()) == dom.polygon.lattice_perimeter()

    # residue at 1 via the identity: H(1) - F(1) = lattice perimeter
    mm = minimal_model_of(dom)
    f1 = boundary_series(dom, 1, 0).value
    assert correction_h(mm, 1) - f1 == dom.polygon.lattice_perimeter()

    # Theorem 1 against the independent chamber-integration oracle (the
    # exact clipping is expensive; run it on half the seeds)
    if seed in SEEDS[:4]:
        for s in (3, 4):
            assert zeta_polygon_exact(dom, s) == zeta_via_identity(dom, s, 0).value

    # minimal model invariants
    assert mm.k * mm.m == hat.lattice_perimeter() - 2 * mm.l
    for p in mm.max_locus:
        assert dom.polygon.rho(p) == mm.m


@pytest.mark.parametrize("seed", SEEDS)
def test_sl2_images_share_invariants(seed):
    rng = random.Random(seed + 100)
    dom = random_polygon(rng)
    base_sizes = sorted(enumerate_cuts(dom, 0).sizes())
    base = minimal_model_of(dom)
    for m in ([[1, 1], [0, 1]], [[2, 1], [1, 1]]):
        image = ConvexDomain(kind="polygon", polygon=dom.polygon.unimodular_image(m))
        assert sorted(enumerate_cuts(image, 0).sizes()) == base_sizes
        mm = minimal_model_of(image)
        assert mm.m == base.m
        # a segment's endpoints may swap their lexicographic order
        (a, b), (c, d) = m
        assert set(mm.max_locus) == {(a * x + b * y, c * x + d * y) for x, y in base.max_locus}
