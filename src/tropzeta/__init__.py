"""tropzeta: tropical zeta functions of compact convex planar domains.

The library computes the SL(2,Z)-invariant tropical distance function of a
convex domain, its wave fronts and caustic, the minimal model, the boundary
Dirichlet series generated by Stern-Brocot corner cuts, and the zeta function
with its residues at s = 1, s = 0 and the fitted residue at s = 2/3.

Quick start::

    from tropzeta import ConvexDomain, zeta_via_identity

    L = ConvexDomain.domain_L()
    print(zeta_via_identity(L, 2, 1e-6).value)   # ~ 10/3, the area
"""

from .cutting import (
    CutTree,
    WaveFrontPolygon,
    caustic,
    enumerate_cuts,
    partial_cut_polygon,
    profiles,
    wave_front,
)
from .equiaffine import length_graph, length_parametric, length_via_triangles
from .estimates import ResidueEstimate, SeriesEstimate
from .farey import (
    SmoothWeight,
    endpoint_model,
    farey_zeta,
    fejer_defect,
    h_kernel,
    h_kernel_integral,
    hata_basis,
    hata_coefficient,
    legendre_dual,
    residue_main_term,
    sigma_b,
)
from .geometry import (
    ArcChart,
    ConvexDomain,
    Polygon,
    domain_from_dict,
    domain_to_dict,
    lattice_length,
)
from .lattice import (
    FareyInterval,
    UnimodularQuadruple,
    arithmetic_functions,
    farey_from_denominators,
    kloosterman_complete,
    kloosterman_incomplete,
    mod_inverse,
    quadruple_from_coprime,
)
from .minimal import (
    MinimalModel,
    compute_minimal_model,
    correction_h,
    k_squared,
    minimal_model_of,
    segment_model_zeta,
)
from .models import (
    parabola_defect,
    parabola_support,
    riemann_zeta,
    witten_su3,
    zeta_L,
)
from .zeta import (
    NumericalRegimeError,
    boundary_series,
    one_cut_check,
    polygon_residues,
    rectangle_closed_form,
    residue_two_thirds,
    zeta_polygon_exact,
    zeta_via_identity,
    zeta_via_mellin,
)

__version__ = "0.1.0"
