"""Parallel surfaces in the three-sphere and the dilation-parallel family.

Marching a surface along its unit normal for time t multiplies the area
element by J(t) = (cos t - k1 sin t)(cos t - k2 sin t). Past the first focal
time that Jacobian goes negative and the swept set stops accumulating mass,
so each vertex contributes J only until the first zero of J on its side of
t = 0 and nothing afterwards. Both factors vanish strictly inside (0, pi)
and (-pi, 0), which forces the area to zero at t = +-pi: marching a full
half-turn collapses everything through the focal set.

The two-parameter family pairs that march with a conformal dilation: first
map the surface, re-estimate its curvatures, then march. Its sup over
(v, t) is what the Heintze-Karcher comparison bounds by the Willmore
energy.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._accum import stable_sum
from .conformal import dilate_mesh
from .curvature import estimate_curvatures
from .energies import willmore_energy
from .errors import GeometryError, InputError, ParameterError
from .mesh import TriMesh


@dataclass
class ParallelAreaCurve:
    t_grid: np.ndarray
    areas: np.ndarray
    source: str
    v: Optional[np.ndarray] = None


class HKReport(NamedTuple):
    max_area: float
    energy: float
    ratio: float
    v_at_max: np.ndarray
    t_at_max: float


def _check_s3_field(mesh, field):
    if mesh.ambient != "S3":
        raise InputError("parallel surfaces are defined for S3 meshes")
    if field is None:
        field = estimate_curvatures(mesh)
    if len(field.k1) != mesh.vertex_count:
        raise InputError("curvature field does not match the mesh")
    return field


def _clamped_jacobian(field, t):
    """Per-vertex parallel-area Jacobian with focal-time memory.

    atan2(1, k) is the first positive zero of cos t - k sin t; the same
    factor vanishes again at atan2(1, k) - pi on the negative side. Between
    those two crossings the vertex carries J, outside it carries nothing.
    """
    k1, k2 = field.k1, field.k2
    jac = (np.cos(t) - k1 * np.sin(t)) * (np.cos(t) - k2 * np.sin(t))
    first_pos = np.minimum(np.arctan2(1.0, k1), np.arctan2(1.0, k2))
    first_neg = np.maximum(np.arctan2(1.0, k1), np.arctan2(1.0, k2)) - np.pi
    live = (t > first_neg) & (t < first_pos)
    return np.where(live, jac, 0.0)


def parallel_area(mesh, field=None, t=0.0):
    """Mass of the surface marched a signed time t along its normal."""
    field = _check_s3_field(mesh, field)
    t = float(t)
    if abs(t) > np.pi:
        raise ParameterError("parallel time must lie in [-pi, pi]")
    return stable_sum(_clamped_jacobian(field, t) * field.weight)


def parallel_area_curve(mesh, field=None, t_grid=None, v=None):
    """parallel_area sampled over a t grid, packaged for plotting."""
    field = _check_s3_field(mesh, field)
    if t_grid is None:
        t_grid = np.linspace(-np.pi, np.pi, 129)
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if np.abs(t_grid).max() > np.pi:
        raise ParameterError("parallel times must lie in [-pi, pi]")
    areas = np.array([stable_sum(_clamped_jacobian(field, t) * field.weight)
                      for t in t_grid])
    source = mesh.recipe[0] if mesh.recipe is not None else "mesh"
    return ParallelAreaCurve(t_grid=t_grid, areas=areas, source=source,
                             v=None if v is None else np.asarray(v, dtype=np.float64))


def canonical_family_area(mesh, v, t):
    """Area of the dilation-parallel family member at (v, t)."""
    curve = canonical_family_curve(mesh, v, np.array([float(t)]))
    return float(curve.areas[0])


def canonical_family_curve(mesh, v, t_grid):
    """Family areas over a t grid at fixed v; curvatures of the conformal
    image are re-estimated from the image mesh, not transformed."""
    v = np.asarray(v, dtype=np.float64)
    if np.linalg.norm(v) == 0.0:
        image = mesh
    else:
        image = dilate_mesh(mesh, v)
    field = estimate_curvatures(image)
    return parallel_area_curve(image, field, t_grid, v=v)


def hk_verify(mesh, v_grid=None, t_grid=None, vmax=0.5, vsteps=5, tsteps=33):
    """Sup of the family area against the Willmore energy.

    The sup over the (v, t) grid can exceed the energy only by
    discretization error; a larger gap raises. Dilation strengths are capped
    at 0.7, past which the image mesh needs refinement this routine does not
    do.
    """
    if mesh.ambient != "S3":
        raise InputError("the family comparison runs on S3 meshes")
    if v_grid is None:
        from ._accum import unit_directions

        if not 0.0 <= vmax <= 0.7:
            raise ParameterError("vmax must lie in [0, 0.7]")
        if vsteps < 1:
            raise ParameterError("vsteps must be positive")
        dirs = unit_directions(vsteps, 4, seed=0)
        strengths = np.linspace(0.0, vmax, vsteps)
        v_grid = [s * d for s in strengths for d in dirs]
    v_grid = [np.asarray(v, dtype=np.float64) for v in v_grid]
    if any(np.linalg.norm(v) > 0.7 + 1e-12 for v in v_grid):
        raise ParameterError("dilation strengths above 0.7 need manual refinement")
    if t_grid is None:
        if tsteps < 1:
            raise ParameterError("tsteps must be positive")
        t_grid = np.linspace(-np.pi, np.pi, tsteps)
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if not v_grid or t_grid.size == 0:
        raise ParameterError("the v and t grids need at least one point each")

    energy = willmore_energy(mesh)
    best = (-np.inf, None, None)
    # v = 0 repeats across directions; evaluate each distinct v once
    seen = set()
    for v in v_grid:
        key = tuple(np.round(v, 15))
        if key in seen:
            continue
        seen.add(key)
        curve = canonical_family_curve(mesh, v, t_grid)
        i = int(np.argmax(curve.areas))
        if curve.areas[i] > best[0]:
            best = (float(curve.areas[i]), v, float(t_grid[i]))

    ratio = best[0] / energy.value
    allowance = (energy.error or 0.0) + 0.02
    if ratio > 1.0 + allowance:
        raise GeometryError(
            f"family area {best[0]:.6f} exceeds the energy {energy.value:.6f} "
            "beyond the discretization allowance")
    return HKReport(max_area=best[0], energy=energy.value, ratio=ratio,
                    v_at_max=best[1], t_at_max=best[2])
