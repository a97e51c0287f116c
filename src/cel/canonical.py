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
from typing import NamedTuple

import numpy as np

from ._accum import stable_sum, unit_directions
from .conformal import dilate_mesh
from .curvature import _LocalEnergyModel, estimate_curvatures
from .energies import _willmore_report
from .errors import GeometryError, InputError, ParameterError


@dataclass
class ParallelAreaCurve:
    t_grid: np.ndarray
    areas: np.ndarray


class HKReport(NamedTuple):
    max_area: float
    energy: float
    ratio: float
    v_at_max: np.ndarray
    t_at_max: float


# (time, vertex) entries per block of parallel_area_curve, so its working
# set stays a few (rows, V) arrays of about 2 MB whatever the grid length
_AREA_ENTRIES = 1 << 18


def _check_s3_field(mesh, field):
    if mesh.ambient != "S3":
        raise InputError("parallel surfaces are defined for S3 meshes")
    if field is None:
        field = estimate_curvatures(mesh)
    if len(field.k1) != mesh.vertex_count:
        raise InputError("curvature field does not match the mesh")
    return field


def _jacobian(field, t):
    """Unclamped parallel-area Jacobian, (T, V) for a (T, 1) column t."""
    return (np.cos(t) - field.k1 * np.sin(t)) * (np.cos(t) - field.k2 * np.sin(t))


def parallel_area_curve(mesh, field=None, t_grid=None):
    """Mass of the surface marched a signed time t along its normal, for
    each t of a grid, packaged for plotting."""
    field = _check_s3_field(mesh, field)
    if t_grid is None:
        t_grid = np.linspace(-np.pi, np.pi, 129)
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size == 0:
        raise ParameterError("the t grid needs at least one point")
    if not np.all(np.abs(t_grid) <= np.pi):
        raise ParameterError("parallel times must lie in [-pi, pi]")
    # focal-time memory: atan2(1, k) is the first positive zero of
    # cos t - k sin t, and the same factor vanishes again at atan2(1, k) - pi
    # on the negative side; a vertex carries J between those two crossings
    # and nothing outside them
    k1, k2 = field.k1, field.k2
    first_pos = np.minimum(np.arctan2(1.0, k1), np.arctan2(1.0, k2))
    first_neg = np.maximum(np.arctan2(1.0, k1), np.arctan2(1.0, k2)) - np.pi
    times = t_grid.reshape(-1, 1)
    rows = max(1, _AREA_ENTRIES // mesh.vertex_count)
    areas = np.empty(len(times))
    for start in range(0, len(times), rows):
        t = times[start:start + rows]
        live = (t > first_neg) & (t < first_pos)
        mass = np.where(live, _jacobian(field, t), 0.0) * field.weight
        areas[start:start + rows] = [stable_sum(row) for row in mass]
    return ParallelAreaCurve(t_grid=t_grid, areas=areas)


def canonical_family_curve(mesh, v, t_grid):
    """Family areas over a t grid at fixed v; curvatures of the conformal
    image are re-estimated from the image mesh, not transformed."""
    v = np.asarray(v, dtype=np.float64)
    if np.linalg.norm(v) != 0.0:
        mesh = dilate_mesh(mesh, v)
    return parallel_area_curve(mesh, None, t_grid)


def hk_verify(mesh, vmax=0.5, vsteps=5, tsteps=33):
    """Sup of the family area against the Willmore energy.

    The sup over the (v, t) grid can exceed the energy only by
    discretization error; a larger gap raises. Dilation strengths are capped
    at 0.7, past which the image mesh needs refinement this routine does not
    do.
    """
    if mesh.ambient != "S3":
        raise InputError("the family comparison runs on S3 meshes")
    if not 0.0 <= vmax <= 0.7:
        raise ParameterError("vmax must lie in [0, 0.7]")
    if vsteps < 1:
        raise ParameterError("vsteps must be positive")
    if tsteps < 1:
        raise ParameterError("tsteps must be positive")
    dirs = unit_directions(vsteps, 4, seed=0)
    # v = 0 is the same member in every direction, so it is evaluated once
    v_grid = [0.0 * dirs[0]] + [s * d for s in np.linspace(0.0, vmax, vsteps)
                                if s > 0.0 for d in dirs]
    t_grid = np.linspace(-np.pi, np.pi, tsteps)

    # every member shares the mesh's faces: one model, one base fit, and
    # each dilated image refitted on the same stencils
    model = _LocalEnergyModel(mesh)
    field = model.field(mesh.vertices)
    energy = _willmore_report(mesh, field)
    best = (-np.inf, None, None)
    for v in v_grid:
        image, image_field = mesh, field
        if np.linalg.norm(v) != 0.0:
            image = dilate_mesh(mesh, v)
            image_field = model.field(image.vertices)
        curve = parallel_area_curve(image, image_field, t_grid)
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
