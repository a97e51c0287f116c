"""Reference values and checks for the benchmark, computed apart from cel.

Nothing here imports cel. The references are closed forms (tori of
revolution, round and distance spheres), the theorem floors (Willmore for
tori, Freedman-He-Wang for non-split links, 4 pi |lk|), the great-circle
length budget of degree-d zero sets on S^2, the exact index counts of the
great sphere and the Clifford torus, and brute-force central differences.
None of them is a stored copy of a program output.
"""

import math

import numpy as np

TWO_PI_SQ = 2.0 * math.pi ** 2     # Clifford torus, Hopf link, both floors
FOUR_PI = 4.0 * math.pi            # round spheres in R^3 and S^3

# (index, nullity) of the stability operator: the great two-sphere has one
# negative mode (the constants) and the rotations as kernel; the Clifford
# torus has five negative modes and four Killing fields.
INDEX_GREAT_SPHERE = (1, 3)
INDEX_CLIFFORD = (5, 4)


class CheckFailed(AssertionError):
    """An output disagrees with its reference."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def tube_energy(ratio):
    """Bending energy of the torus of revolution with R/r = ratio:
    pi^2 a^2 / sqrt(a^2 - 1), minimal (2 pi^2) at a = sqrt 2."""
    a = float(ratio)
    if a <= 1.0:
        raise ValueError("a torus of revolution needs R/r > 1")
    return math.pi ** 2 * a * a / math.sqrt(a * a - 1.0)


def geodesic_sphere_energy(radius):
    """Area 4 pi sin^2 rho times 1 + H^2 with H = cot rho: 4 pi for every
    rho, the conformal invariance of the S^3 integrand in one formula."""
    s = math.sin(radius)
    return 4.0 * math.pi * s * s * (1.0 + 1.0 / math.tan(radius) ** 2)


def degree_for_size(size):
    """Smallest harmonic degree d whose (d+1)^2 functions span a family of
    the given dimension."""
    d = 0
    while (d + 1) ** 2 < size:
        d += 1
    return d


def great_circle_budget(degree):
    """A degree-d zero set on the unit sphere is no longer than d great
    circles."""
    return 2.0 * math.pi * degree


def triangle_area(vertices, faces):
    """Total flat area of a triangle mesh in any ambient dimension."""
    a = vertices[faces[:, 0]]
    u = vertices[faces[:, 1]] - a
    v = vertices[faces[:, 2]] - a
    uu = np.einsum("ij,ij->i", u, u)
    vv = np.einsum("ij,ij->i", v, v)
    uv = np.einsum("ij,ij->i", u, v)
    return math.fsum((0.5 * np.sqrt(np.maximum(uu * vv - uv * uv, 0.0))).tolist())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_close(value, want, rel_tol, what):
    rel = abs(value - want) / abs(want)
    require(rel <= rel_tol, f"{what}: {value:.8g} is {rel:.3e} from {want:.8g} "
                            f"(allowed {rel_tol:.3e})")
    return rel


def check_richardson(value, want, error, what, factor=2.0, floor=1e-9):
    """Relative error against the closed form within `factor` times the
    reported Richardson estimate."""
    require(error is not None and error >= 0.0, f"{what}: no error estimate")
    return check_close(value, want, factor * error + floor, what)


def check_floor(values, floor, allowance, what):
    """Every value at or above floor * (1 - allowance)."""
    lowest = float(np.min(values))
    limit = floor * (1.0 - allowance)
    require(lowest >= limit, f"{what}: {lowest:.8g} undercuts the floor "
                             f"{floor:.8g} less allowance ({limit:.8g})")
    return lowest


def check_nonincreasing(values, what):
    steps = np.diff(np.asarray(values, dtype=np.float64))
    require(bool(np.all(steps <= 0.0)), f"{what}: sequence rises by "
                                        f"{float(steps.max()):.3e}")


def check_nondecreasing(values, what):
    steps = np.diff(np.asarray(values, dtype=np.float64))
    require(bool(np.all(steps >= 0.0)), f"{what}: sequence falls by "
                                        f"{float(-steps.min()):.3e}")


def check_width_budget(sizes, widths, what, tol=0.02):
    """Each width of a family of the given size stays within the
    great-circle budget of its top harmonic degree."""
    for size, width in zip(sizes, widths):
        budget = great_circle_budget(degree_for_size(size))
        require(width <= budget * (1.0 + tol),
                f"{what}: size {size} width {width:.6f} exceeds "
                f"2 pi d = {budget:.6f} by more than {tol}")


def check_exponent(exponent, what, centre=0.5, halfwidth=0.15):
    require(abs(exponent - centre) <= halfwidth,
            f"{what}: exponent {exponent:.4f} outside {centre} +- {halfwidth}")


def check_index(got, want, what):
    require(tuple(got) == tuple(want), f"{what}: (index, nullity) {tuple(got)} "
                                       f"!= {tuple(want)}")


def check_gradient(got, want, what, rel_tol=1e-5):
    """Gradient entries agree with brute-force differences, relative to
    the largest entry compared."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.max(np.abs(want))), 1e-12)
    gap = float(np.max(np.abs(got - want))) / scale
    require(gap <= rel_tol, f"{what}: gradient differs from central "
                            f"differences by {gap:.3e} of its scale")
    return gap


# ---------------------------------------------------------------------------
# brute-force central differences
# ---------------------------------------------------------------------------


def central_difference(energy, points, vertex, axis, step, renormalize=False):
    """d/dt energy(points with points[vertex, axis] += t) at t = 0.

    With renormalize=True the moved vertex is pulled back to the unit
    sphere first, which differentiates the composition with the radial
    projection, as gradients on S^3 are defined.
    """
    values = []
    for sign in (1.0, -1.0):
        moved = np.array(points, dtype=np.float64, copy=True)
        moved[vertex, axis] += sign * step
        if renormalize:
            moved[vertex] /= np.linalg.norm(moved[vertex])
        values.append(energy(moved))
    return (values[0] - values[1]) / (2.0 * step)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def random_rotation(rng, dim):
    """Haar-random rotation of R^dim (determinant +1)."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)

