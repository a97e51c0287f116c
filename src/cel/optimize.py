"""Descent on bending and cross energies, and the tube radius sweep.

Both gradients differentiate the same discrete energies the rest of the
package reports, so a descent step can never game the measurement. The
bending gradient is exact for one model, curvature._LocalEnergyModel, built
once for the mesh's connectivity and line-searched by the bending descent:
one reverse pass over its stencil rows (see curvature.py). The
cross-energy gradient is exact for the midpoint rule: one tiled pass of
row sums per component. Tube faces depend only on the resolution, so the
radius sweep fits every tube on one model as well.
"""

from typing import NamedTuple

import numpy as np

from .curvature import _LocalEnergyModel
from .energies import _cross_energy_sum, _cross_row_sums
from .errors import InputError, MeshQualityError, ParameterError
from .mesh import PolyLink, _diameter, _min_gap, _segments
from .shapes import tube_torus


class DescentTrace(NamedTuple):
    """energies[0] is the starting energy and energies[i] the energy after
    accepted step i, a kept resample replacing its step's energy;
    gradient_norms[i] is the Frobenius norm of the gradient taken where
    energies[i] was. A run of k accepted steps that ends at 'max_steps'
    has k + 1 energies and k gradient norms."""

    energies: list
    gradient_norms: list
    status: str           # 'max_steps', 'stationary', 'stagnated', 'collision'


class SweepReport(NamedTuple):
    radii: np.ndarray
    energies: np.ndarray
    min_radius: float
    min_energy: float


# ---------------------------------------------------------------------------
# bending gradient
# ---------------------------------------------------------------------------


def willmore_gradient(mesh):
    """Exact gradient of the bending energy, shape (V, dim); on S^3 it is
    tangent to the sphere at every vertex."""
    return _LocalEnergyModel(mesh).gradient(mesh.vertices)


def _stationarity(gn, diameter, value):
    """Scale-free stationarity measure: |grad| * diameter / |energy|."""
    return float(gn * diameter / max(abs(value), 1e-30))


def willmore_relative_gradient(mesh):
    """Scale-free stationarity measure of the bending energy."""
    model = _LocalEnergyModel(mesh)
    g = model.gradient(mesh.vertices)
    return _stationarity(np.linalg.norm(g), mesh.bbox_diameter(),
                         model.energy(mesh.vertices))


# ---------------------------------------------------------------------------
# descent drivers
# ---------------------------------------------------------------------------

# step halvings the line search tries before it gives up, and the
# scale-free gradient norm under which a descent stops as stationary
_HALVINGS = 40
_GRAD_TOL = 1e-6


def _armijo(evaluate, x, g, e0, alpha0):
    """Backtracking step along -g; returns (new_x, new_e, accepted)."""
    gg = float(np.sum(g * g))
    alpha = alpha0
    for _ in range(_HALVINGS):
        cand = x - alpha * g
        try:
            e = evaluate(cand)
        except MeshQualityError:
            e = np.inf
        if e <= e0 - 1e-4 * alpha * gg:
            return cand, e, True
        alpha *= 0.5
    return x, e0, False


def _check_descent(steps, move_scale):
    if steps < 1:
        raise ParameterError("steps must be positive")
    if not 0.0 < move_scale < np.inf:   # NaN fails both comparisons
        raise ParameterError("move_scale must be positive and finite")


def willmore_descent(mesh, steps=20, move_scale=0.02):
    """Gradient descent on the bending energy of a closed mesh.

    Each accepted step satisfies an Armijo decrease, so the energy trace is
    strictly nonincreasing. Stops early when the scale-free gradient norm
    drops under `_GRAD_TOL` ('stationary') or when 40 step halvings cannot find
    a decrease ('stagnated'). Returns (mesh, DescentTrace).
    """
    _check_descent(steps, move_scale)
    model = _LocalEnergyModel(mesh)
    diameter = mesh.bbox_diameter()

    def evaluate(positions):
        if model.ambient == "S3":
            positions = positions / np.linalg.norm(positions, axis=1)[:, None]
        return model.energy(positions)

    pos = mesh.vertices.copy()
    energies = [evaluate(pos)]
    gnorms = []
    status = "max_steps"
    for _ in range(steps):
        g = model.gradient(pos)
        gn = float(np.linalg.norm(g))
        gnorms.append(gn)
        if _stationarity(gn, diameter, energies[-1]) < _GRAD_TOL:
            status = "stationary"
            break
        alpha0 = move_scale * diameter / max(np.linalg.norm(g, axis=1).max(), 1e-30)
        pos, e, ok = _armijo(evaluate, pos, g, energies[-1], alpha0)
        if not ok:
            status = "stagnated"
            break
        if model.ambient == "S3":
            pos = pos / np.linalg.norm(pos, axis=1)[:, None]
        energies.append(e)
    # pos is the input or the once-normalised point that evaluate scored
    trace = DescentTrace(energies=energies, gradient_norms=gnorms, status=status)
    return mesh.with_vertices(pos), trace


def mobius_gradient(link):
    """Gradient of the cross energy of an R^3 link, exact for the midpoint rule.

    Segment i of one component (vector v_i, length l_i, midpoint m_i) adds
    l_i a_i to the energy, with the row sums a_i and b_i of
    energies._cross_row_sums against the other component. Vertex k ends
    segment k - 1 and starts segment k, so it gets
    (T_{k-1} - P_{k-1}) - (T_k + P_k) with T_i = a_i v_i / l_i and
    P_i = l_i b_i. A zero-length segment takes T_i = 0, the central
    difference of |v| at v = 0. Returns (grad1, grad2) matching gamma1 and
    gamma2.
    """
    if link.dim != 3:
        raise InputError("descent runs on links in R^3; project first")
    return _link_gradient(link.gamma1, link.gamma2)


def _link_gradient(g1, g2):
    """mobius_gradient of the closed polylines g1 and g2."""
    segs = [(m, v, np.linalg.norm(v, axis=1))
            for m, v in (_segments(g1), _segments(g2))]
    grads = []
    for (ma, va, la), (mb, _, lb) in (segs, segs[::-1]):
        a, b = _cross_row_sums(ma, mb, lb)
        la = la[:, None]
        t = np.divide(a[:, None] * va, la, out=np.zeros_like(va), where=la > 0.0)
        p = la * b
        grads.append(np.roll(t - p, 1, axis=0) - (t + p))
    return grads[0], grads[1]


def mobius_relative_gradient(link):
    """Scale-free stationarity measure for the cross energy."""
    g1, g2 = mobius_gradient(link)
    gn = float(np.sqrt(np.sum(g1 * g1) + np.sum(g2 * g2)))
    value = _cross_energy_sum(link.gamma1, link.gamma2)
    return _stationarity(gn, link.diameter(), value)


# accepted link steps between resamplings, and the closest approach of the
# components, as a fraction of the link diameter, that counts as a collision
_RESAMPLE_EVERY = 50
_COLLISION_TOL = 1e-3


def _resample_closed(g, count):
    """Periodic linear resampling of a closed polyline by parameter index."""
    n = len(g)
    t = np.arange(count) * (n / count)
    i0 = np.floor(t).astype(np.int64)
    frac = (t - i0)[:, None]
    return g[i0 % n] * (1.0 - frac) + g[(i0 + 1) % n] * frac


def mobius_descent(link, steps=30, move_scale=0.02):
    """Gradient descent on the cross energy of an R^3 link.

    Every `_RESAMPLE_EVERY` accepted steps the curves are resampled to
    uniform parameter spacing, but only if that does not raise the energy;
    degenerating segment lengths otherwise stall the quadrature. A kept
    resample is part of its step: its energy replaces the step's. Descent
    stops with status 'collision' if the components run closer than
    `_COLLISION_TOL` times the link diameter, since the energy values past
    that point are quadrature artifacts.
    """
    if link.dim != 3:
        raise InputError("descent runs on links in R^3; project first")
    _check_descent(steps, move_scale)
    g1 = link.gamma1.copy()
    g2 = link.gamma2.copy()
    n1, n2 = len(g1), len(g2)

    energies = [_cross_energy_sum(g1, g2)]
    gnorms = []
    status = "max_steps"
    accepted = 0
    for _ in range(steps):
        stacked = np.vstack([g1, g2])
        diameter = _diameter(stacked)
        if _min_gap(g1, g2) < _COLLISION_TOL * diameter:
            status = "collision"
            break
        d1, d2 = _link_gradient(g1, g2)
        gn = float(np.sqrt(np.sum(d1 * d1) + np.sum(d2 * d2)))
        gnorms.append(gn)
        if _stationarity(gn, diameter, energies[-1]) < _GRAD_TOL:
            status = "stationary"
            break
        gstack = np.vstack([d1, d2])
        alpha0 = move_scale * diameter / max(np.linalg.norm(gstack, axis=1).max(),
                                             1e-30)
        new, e, ok = _armijo(lambda x: _cross_energy_sum(x[:n1], x[n1:]),
                             stacked, gstack, energies[-1], alpha0)
        if not ok:
            status = "stagnated"
            break
        g1, g2 = new[:n1], new[n1:]
        energies.append(e)
        accepted += 1
        if accepted % _RESAMPLE_EVERY == 0:
            r1 = _resample_closed(g1, n1)
            r2 = _resample_closed(g2, n2)
            e_res = _cross_energy_sum(r1, r2)
            if e_res <= energies[-1]:
                g1, g2 = r1, r2
                energies[-1] = e_res
    return PolyLink(g1, g2), DescentTrace(energies=energies,
                                          gradient_norms=gnorms, status=status)


# ---------------------------------------------------------------------------
# tube radius sweep
# ---------------------------------------------------------------------------


def tube_family_sweep(radii=None, resolution=96):
    """Bending energy along the family of tubes of unit radius around
    circles of the given radii; returns the grid, the energies, and the
    minimizing entry."""
    if radii is None:
        radii = np.linspace(1.1, 3.0, 100)
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or len(radii) < 2:
        raise ParameterError("need a 1-d grid of at least two radii")
    if np.any(radii <= 1.0):
        raise ParameterError("tube of unit radius needs ring radius > 1")
    # tube faces depend only on the resolution: one model fits every tube
    energies = np.empty(len(radii))
    for i, radius in enumerate(radii):
        mesh = tube_torus(big_radius=float(radius), tube_radius=1.0,
                          resolution=resolution)
        if i == 0:
            model, faces = _LocalEnergyModel(mesh), mesh.faces
        elif not np.array_equal(mesh.faces, faces):
            raise MeshQualityError(f"the tube of ring radius {radius} has other "
                                   "faces than the first tube of the sweep")
        energies[i] = model.energy(mesh.vertices)
    best = int(np.argmin(energies))
    return SweepReport(radii=radii, energies=energies,
                       min_radius=float(radii[best]),
                       min_energy=float(energies[best]))
