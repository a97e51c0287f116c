"""Numerical laboratory for conformal surface energies, linked curves, and
min-max width experiments on the two- and three-sphere."""

from .canonical import canonical_family_curve, hk_verify, parallel_area_curve
from .conformal import (ConformalDilation, InversionR4, apply_dilation,
                        apply_inversion, dilate_link, dilate_mesh, g_family,
                        radial_limit_check)
from .curvature import CurvatureField, estimate_curvatures
from .energies import (energy_linking_bound_check, gauss_area_energy_check,
                       gauss_map_torus, linking_number, mobius_energy,
                       willmore_energy)
from .errors import (DegenerateInputError, FormatError, GeometryError,
                     InputError, InsufficientDataError, MeshQualityError,
                     NearPoleError, NotMinimalError, ParameterError,
                     ResolutionError, ResolutionWarning, SolverError)
from .fixtures import (ellipsoid_s3, genus2_surface, perturb_link,
                       perturb_mesh)
from .laplace import cotan_stiffness, laplace_eigs, laplace_minmax, lumped_mass
from .mesh import (PolyLink, TriMesh, euler_genus, load_link, load_obj,
                   save_link, save_obj)
from .optimize import (mobius_descent, mobius_relative_gradient,
                       tube_family_sweep, willmore_descent,
                       willmore_relative_gradient)
from .projection import (lift_mesh, project_link, project_mesh,
                         stereographic, stereographic_inverse)
from .shapes import (KNOWN_SHAPES, LINK_KINDS, MESH_KINDS, clifford_torus,
                     coaxial_circles, ellipsoid, geodesic_sphere, hopf_link,
                     make_shape, sphere, torus_link, tube_torus)
from .spectra import jacobi_index_analytic, jacobi_index_numeric
from .sweepouts import (eigenfunction_width_series, harmonic_width_series,
                        length_budget_check, level_set_length,
                        polynomial_sup_length, real_harmonic_basis,
                        scaling_fit, sublevel_boundary)
from .verify import run_all

__version__ = "0.1.0"

__all__ = [
    "ConformalDilation", "CurvatureField", "DegenerateInputError",
    "FormatError", "GeometryError", "InputError", "InsufficientDataError",
    "InversionR4", "KNOWN_SHAPES", "LINK_KINDS", "MESH_KINDS",
    "MeshQualityError", "NearPoleError", "NotMinimalError", "ParameterError",
    "PolyLink", "ResolutionError", "ResolutionWarning", "SolverError",
    "TriMesh", "apply_dilation", "apply_inversion", "canonical_family_curve",
    "clifford_torus", "coaxial_circles", "cotan_stiffness", "dilate_link",
    "dilate_mesh", "eigenfunction_width_series", "ellipsoid", "ellipsoid_s3",
    "energy_linking_bound_check", "estimate_curvatures", "euler_genus",
    "g_family", "gauss_area_energy_check", "gauss_map_torus", "genus2_surface",
    "geodesic_sphere", "harmonic_width_series", "hk_verify", "hopf_link",
    "jacobi_index_analytic", "jacobi_index_numeric", "laplace_eigs",
    "laplace_minmax", "length_budget_check", "level_set_length", "lift_mesh",
    "linking_number", "load_link", "load_obj", "lumped_mass", "make_shape",
    "mobius_descent", "mobius_energy", "mobius_relative_gradient",
    "parallel_area_curve", "perturb_link", "perturb_mesh",
    "polynomial_sup_length", "project_link", "project_mesh",
    "radial_limit_check", "real_harmonic_basis", "run_all", "save_link",
    "save_obj", "scaling_fit", "sphere", "stereographic",
    "stereographic_inverse", "sublevel_boundary", "torus_link",
    "tube_family_sweep", "tube_torus", "willmore_descent", "willmore_energy",
    "willmore_relative_gradient",
]
