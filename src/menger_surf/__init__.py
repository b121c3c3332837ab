"""Integral Menger curvature energies for surfaces.

Geometry of tetrahedra, the four-point curvature integrand family,
Monte-Carlo energy estimators over surface oracles, flatness diagnostics,
the cone-growing good-tetrahedron search, and desk-scale curvature-constrained
mesh optimization.
"""

__version__ = "0.1.0"

from .geom import (
    InputError,
    SimplexMeasures,
    circumradius_triangle,
    circumsphere_radius,
    classify_voluminous,
    classify_wide,
    perturbation_alpha,
    perturbation_radius,
    point_plane_distance,
    simplex_measures,
    slanted_constants,
    tetra_distance,
)
from .integrand import IntegrandSpec, eval_integrand, lemma_bounds
from .surface import SurfaceOracle, SurfacePoint, TriMesh, load_mesh, sample_point
