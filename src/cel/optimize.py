"""Descent on bending and cross energies, and the tube radius sweep.

Gradients are central finite differences of the same discrete energies the
rest of the package reports, so a descent step can never game the
measurement. Brute-force differencing would refit curvature on the whole
mesh per coordinate; instead a probe of one vertex refits only the energy
terms it can change, those of the vertex and of its two-ring.

Vertices are probed in fixed chunks of consecutive indices. Each member of a
chunk owns a copy of its stencil rows: its own row, then one row per
two-ring vertex in which the member is moved at exactly one slot and every
other entry is unmoved. Chunk-mates may be neighbours, but no row copy sees
two of them move, so a chunk's probes give every per-vertex derivative
bit for bit, however the vertices are grouped.

The refits use the dense-stencil fit kernel of curvature.py. Once per chunk,
the chart coordinates, ambient differences and S^3 tangent bases of every
row copy are taken at the unperturbed positions. A probe then recharts each
member's own row from its moved position against its unmoved two-ring and,
in every other row, rewrites the one slot that holds its member; fan normals
and areas are read from those slots, and the fit runs on all rows. Entries a
probe leaves alone are the same numbers in both probes of a difference, so
they cancel exactly. The chunk size bounds the working set of one kernel
call: the rows of many more vertices at once outgrow the cache and run
slower.

On the three-sphere, positions are renormalized to unit length before every
evaluation. Differencing the composition with the projection makes radial
gradient components vanish identically, so the descent never needs an
explicit tangency constraint.
"""

from typing import NamedTuple

import numpy as np

from .curvature import (_chart, _fan_sums, _quadric_fit, _ring_coords,
                        _s3_tangent_basis, _stencils)
from .energies import _cross_energy_sum, _resample_closed, willmore_energy
from .errors import InputError, MeshQualityError, ParameterError
from .mesh import PolyLink, _min_gap, _pair_tiles, _segments
from .shapes import tube_torus


class DescentTrace(NamedTuple):
    energies: list        # energy after each accepted configuration
    gradient_norms: list  # Frobenius norm per computed gradient
    status: str           # 'max_steps', 'stationary', 'stagnated', 'collision'


class SweepReport(NamedTuple):
    radii: np.ndarray
    energies: np.ndarray
    min_radius: float
    min_energy: float


# ---------------------------------------------------------------------------
# localized energy terms
# ---------------------------------------------------------------------------


# vertices per gradient chunk, about 600 stencil row copies on the
# near-regular generated meshes
_CHUNK = 32


class _LocalEnergyModel:
    """Per-vertex bending energy terms with localized refits.

    The combinatorics (dense two-ring and fan tables) depend only on the
    faces and are precomputed once; after that, energy terms for any subset
    of vertices can be evaluated at any vertex positions.
    """

    def __init__(self, mesh):
        self.ambient = mesh.ambient
        self.dim = mesh.vertices.shape[1]
        self.n = mesh.vertex_count
        self.ring, self.counts, self.fan = _stencils(mesh)

    def _basis(self, pts):
        return _s3_tangent_basis(pts) if self.ambient == "S3" else None

    def _terms(self, local, diff, fan, counts):
        """Energy term (H^2 w, plus area weight w itself on S^3) of each
        stencil row from its fit inputs."""
        frame_n, weight = _fan_sums(local, diff, fan)
        _, (s11, _, _, s22), _ = _quadric_fit(local, frame_n, counts)
        h2 = (0.5 * (s11 + s22)) ** 2
        return (1.0 + h2) * weight if self.ambient == "S3" else h2 * weight

    def energy_terms(self, positions, rows):
        """Energy term of each vertex in `rows` at the given positions; the
        same fit as the full-mesh curvature estimate."""
        local, diff = _ring_coords(positions, rows, self.ring,
                                   self._basis(positions[rows]))
        return self._terms(local, diff, self.fan[rows], self.counts[rows])

    def gradient(self, positions):
        """Central-difference gradient of the total energy, (V, dim)."""
        lo, hi = positions.min(axis=0), positions.max(axis=0)
        h = 1e-5 * max(float(np.linalg.norm(hi - lo)), 1e-12)
        grad = np.zeros((self.n, self.dim))
        for start in range(0, self.n, _CHUNK):
            members = np.arange(start, min(start + _CHUNK, self.n))
            # each member's row copies: its own row, then its two-ring
            sizes = self.counts[members] + 1
            lead = np.cumsum(sizes) - sizes
            nbr = self.ring[members]
            block = np.concatenate([members[:, None], nbr], axis=1)
            rows = block[np.arange(block.shape[1]) < sizes[:, None]]
            rest = np.delete(np.arange(len(rows)), lead)
            owner = np.repeat(np.arange(len(members)), sizes)[rest]

            basis = self._basis(positions[rows])
            local, diff = _ring_coords(positions, rows, self.ring, basis)
            fan, counts = self.fan[rows], self.counts[rows]
            # every other row sees its member at exactly one two-ring slot;
            # a probe rewrites the member rows and those slots, all other
            # entries keep their unperturbed values
            slot = np.argmax(self.ring[rows[rest]] == members[owner, None], axis=1)
            rest_base = positions[rows[rest]]
            rest_basis = None if basis is None else basis[rest]
            nbr_pts, pad = positions[nbr], nbr == members[:, None]

            for axis in range(self.dim):
                sums = []
                for sign in (1.0, -1.0):
                    moved = positions[members]
                    moved[:, axis] += sign * h
                    if self.ambient == "S3":
                        moved /= np.linalg.norm(moved, axis=1)[:, None]
                    own_local, own_diff = _chart(moved, nbr_pts, self._basis(moved))
                    own_local[pad] = 0.0
                    local[lead], diff[lead] = own_local, own_diff
                    moved_local, moved_diff = _chart(
                        rest_base, moved[owner, None, :], rest_basis)
                    local[rest, slot] = moved_local[:, 0]
                    diff[rest, slot] = moved_diff[:, 0]
                    terms = self._terms(local, diff, fan, counts)
                    sums.append(np.add.reduceat(terms, lead))
                grad[members, axis] = (sums[0] - sums[1]) / (2.0 * h)
        return grad


def willmore_gradient(mesh):
    """Finite-difference gradient of the bending energy, shape (V, dim)."""
    return _LocalEnergyModel(mesh).gradient(mesh.vertices)


def willmore_relative_gradient(mesh):
    """Scale-free stationarity measure: |grad| * diameter / energy."""
    g = willmore_gradient(mesh)
    value = willmore_energy(mesh, error_estimate=False).value
    return float(np.linalg.norm(g) * mesh.bbox_diameter() / max(abs(value), 1e-30))


# ---------------------------------------------------------------------------
# descent drivers
# ---------------------------------------------------------------------------


def _armijo(evaluate, x, g, e0, alpha0, halvings=40):
    """Backtracking step along -g; returns (new_x, new_e, accepted)."""
    gg = float(np.sum(g * g))
    alpha = alpha0
    for _ in range(halvings):
        cand = x - alpha * g
        try:
            e = evaluate(cand)
        except MeshQualityError:
            e = np.inf
        if e <= e0 - 1e-4 * alpha * gg:
            return cand, e, True
        alpha *= 0.5
    return x, e0, False


def willmore_descent(mesh, steps=20, grad_tol=1e-6, move_scale=0.02):
    """Gradient descent on the bending energy of a closed mesh.

    Each accepted step satisfies an Armijo decrease, so the energy trace is
    strictly nonincreasing. Stops early when the scale-free gradient norm
    drops under grad_tol ('stationary') or when 40 step halvings cannot find
    a decrease ('stagnated'). Returns (mesh, DescentTrace).
    """
    if steps < 1:
        raise ParameterError("steps must be positive")
    model = _LocalEnergyModel(mesh)
    diameter = mesh.bbox_diameter()

    def evaluate(positions):
        if model.ambient == "S3":
            positions = positions / np.linalg.norm(positions, axis=1)[:, None]
        probe = mesh.with_vertices(positions)
        return willmore_energy(probe, error_estimate=False).value

    pos = mesh.vertices.copy()
    energies = [evaluate(pos)]
    gnorms = []
    status = "max_steps"
    for _ in range(steps):
        g = model.gradient(pos)
        gn = float(np.linalg.norm(g))
        gnorms.append(gn)
        if gn * diameter / max(abs(energies[-1]), 1e-30) < grad_tol:
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
    out = mesh.with_vertices(
        pos / np.linalg.norm(pos, axis=1)[:, None] if model.ambient == "S3" else pos)
    return out, DescentTrace(energies=energies, gradient_norms=gnorms,
                             status=status)


def mobius_gradient(link):
    """Central-difference gradient of the cross energy of an R^3 link.

    Moving one vertex only changes the two quadrature rows of its adjacent
    segments, so each difference recomputes two rows rather than the whole
    double sum. Per axis and sign all vertices are displaced at once, each
    with its own two segments, in vertex tiles of the pair kernel; each
    vertex sums its (2, other curve) block alone, in the same order as a
    one-vertex difference. Returns (grad1, grad2) matching gamma1 and gamma2.
    """
    if link.dim != 3:
        raise InputError("descent runs on links in R^3; project first")
    h = 1e-6 * link.diameter()

    grads = []
    for ga, gb in ((link.gamma1, link.gamma2), (link.gamma2, link.gamma1)):
        g = np.zeros_like(ga)
        mb, vb = _segments(gb)
        lb = np.linalg.norm(vb, axis=1)
        for axis in range(3):
            vals = []
            for sign in (1.0, -1.0):
                moved = ga.copy()
                moved[:, axis] += sign * h
                # per vertex k: segment k-1 ends at the displaced vertex,
                # segment k starts there; both other ends stay put
                ends = np.stack([np.roll(ga, 1, axis=0), moved,
                                 np.roll(ga, -1, axis=0)], axis=1)
                mid = 0.5 * (ends[:, :2] + ends[:, 1:])
                ln = np.linalg.norm(ends[:, 1:] - ends[:, :2], axis=2)
                vals.append(np.concatenate([
                    ((ln[rows, :, None] * lb) / d2).reshape(len(d2), -1).sum(axis=1)
                    for rows, _, d2 in _pair_tiles(mid, mb)]))
            g[:, axis] = (vals[0] - vals[1]) / (2.0 * h)
        grads.append(g)
    return grads[0], grads[1]


def mobius_relative_gradient(link):
    """Scale-free stationarity measure for the cross energy."""
    g1, g2 = mobius_gradient(link)
    gn = float(np.sqrt(np.sum(g1 * g1) + np.sum(g2 * g2)))
    value = _cross_energy_sum(link.gamma1, link.gamma2)
    return gn * link.diameter() / max(abs(value), 1e-30)


def mobius_descent(link, steps=30, grad_tol=1e-6, move_scale=0.02,
                   resample_every=50, collision_tol=1e-3):
    """Gradient descent on the cross energy of an R^3 link.

    Every `resample_every` accepted steps the curves are resampled to
    uniform parameter spacing, but only if that does not raise the energy;
    degenerating segment lengths otherwise stall the quadrature. Descent
    stops with status 'collision' if the components run closer than
    collision_tol times the link diameter, since the energy values past
    that point are quadrature artifacts.
    """
    if link.dim != 3:
        raise InputError("descent runs on links in R^3; project first")
    if steps < 1:
        raise ParameterError("steps must be positive")
    g1 = link.gamma1.copy()
    g2 = link.gamma2.copy()
    n1, n2 = len(g1), len(g2)

    energies = [_cross_energy_sum(g1, g2)]
    gnorms = []
    status = "max_steps"
    accepted = 0
    for _ in range(steps):
        stacked = np.vstack([g1, g2])
        diameter = float(np.linalg.norm(stacked.max(axis=0) - stacked.min(axis=0)))
        if _min_gap(g1, g2) < collision_tol * diameter:
            status = "collision"
            break
        probe = PolyLink(g1, g2)
        d1, d2 = mobius_gradient(probe)
        gn = float(np.sqrt(np.sum(d1 * d1) + np.sum(d2 * d2)))
        gnorms.append(gn)
        if gn * diameter / max(abs(energies[-1]), 1e-30) < grad_tol:
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
        if accepted % resample_every == 0:
            r1 = _resample_closed(g1, n1)
            r2 = _resample_closed(g2, n2)
            e_res = _cross_energy_sum(r1, r2)
            if e_res <= energies[-1]:
                g1, g2 = r1, r2
                energies.append(e_res)
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
    energies = np.empty(len(radii))
    for i, radius in enumerate(radii):
        mesh = tube_torus(big_radius=float(radius), tube_radius=1.0,
                          resolution=resolution)
        energies[i] = willmore_energy(mesh, error_estimate=False).value
    best = int(np.argmin(energies))
    return SweepReport(radii=radii, energies=energies,
                       min_radius=float(radii[best]),
                       min_energy=float(energies[best]))
