"""The tiled pairwise link sums against the untiled broadcasts they replace.

The references below build every n x m midpoint pair at once, as the link
sums did before they were tiled. The test links have components of unequal
length, 300 and 700 vertices, so a 2^16-pair tile holds 93 rows and its
boundaries fall mid-curve; results must agree bit for bit. The link
gradient is also held to the similarity invariances of the energy.
"""

import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cel
from cel import PolyLink, ResolutionWarning, linking_number, mobius_energy
from cel.energies import _cross_energy_sum, _far_pole
from cel.fixtures import perturb_link
from cel.mesh import _TILE_PAIRS, _segments
from cel.optimize import mobius_gradient
from cel.projection import project_link


def _reference_cross_energy(g1, g2):
    m1, v1 = _segments(g1)
    m2, v2 = _segments(g2)
    len1 = np.linalg.norm(v1, axis=1)
    len2 = np.linalg.norm(v2, axis=1)
    d2 = np.sum((m1[:, None, :] - m2[None, :, :]) ** 2, axis=2)
    return math.fsum(((len1[:, None] * len2[None, :]) / d2).ravel().tolist())


def _reference_mobius_energy(link):
    """(value, error, least distance-to-segment ratio) of the untiled
    midpoint rule."""
    m1, v1 = _segments(link.gamma1)
    m2, v2 = _segments(link.gamma2)
    len1 = np.linalg.norm(v1, axis=1)
    len2 = np.linalg.norm(v2, axis=1)
    dist = np.sqrt(np.sum((m1[:, None, :] - m2[None, :, :]) ** 2, axis=2))
    ratio = (dist / np.maximum(len1[:, None], len2[None, :])).min()
    value = _reference_cross_energy(link.gamma1, link.gamma2)
    coarse = _reference_cross_energy(link.gamma1[::2], link.gamma2[::2])
    return value, abs(value - coarse) / (3.0 * max(abs(value), 1e-30)), ratio


def _reference_linking_integral(link):
    m1, v1 = _segments(link.gamma1)
    m2, v2 = _segments(link.gamma2)
    diff = m1[:, None, :] - m2[None, :, :]
    dist3 = np.sum(diff ** 2, axis=2) ** 1.5
    cross = np.cross(v1[:, None, :], v2[None, :, :])
    det = np.sum(cross * diff, axis=2)
    return math.fsum((det / dist3).ravel().tolist()) / (4.0 * np.pi)


def _reference_mobius_gradient(link):
    """The exact gradient's arithmetic on every midpoint pair at once."""
    grads = []
    for ga, gb in ((link.gamma1, link.gamma2), (link.gamma2, link.gamma1)):
        ma, va = _segments(ga)
        mb, vb = _segments(gb)
        la = np.linalg.norm(va, axis=1)[:, None]
        lb = np.linalg.norm(vb, axis=1)
        diff = ma[:, None, :] - mb[None, :, :]
        d2 = np.sum(diff ** 2, axis=2)
        a = np.sum(lb / d2, axis=1)
        w = lb / d2 / d2
        b = np.stack([np.sum(w * diff[:, :, k], axis=1) for k in range(3)], axis=1)
        t = a[:, None] * va / la
        p = la * b
        grads.append(np.roll(t - p, 1, axis=0) - (t + p))
    return grads


def _flat_hopf(resolution):
    hopf = cel.hopf_link(resolution)
    return project_link(hopf, _far_pole(hopf))


def _unequal_link(gap, seed):
    """A 300-vertex ring linked with a jittered 700-vertex ring whose
    closest approach to the first is about `gap`."""
    rng = np.random.default_rng(seed)
    t1 = 2.0 * np.pi * np.arange(300) / 300
    t2 = 2.0 * np.pi * np.arange(700) / 700
    ring1 = np.stack([np.cos(t1), np.sin(t1), np.zeros_like(t1)], axis=1)
    ring2 = np.stack([gap + np.cos(t2), np.zeros_like(t2), np.sin(t2)], axis=1)
    return PolyLink(ring1 + 1e-3 * rng.standard_normal(ring1.shape),
                    ring2 + 1e-3 * rng.standard_normal(ring2.shape))


def test_tile_boundaries_fall_mid_curve():
    rows = _TILE_PAIRS // 700
    assert 300 % rows != 0 and rows < 300


@pytest.mark.parametrize("gap,warns", [(0.5, False), (0.05, True)])
def test_mobius_energy_matches_untiled_sum(gap, warns):
    link = _unequal_link(gap, seed=1)
    value, error, ratio = _reference_mobius_energy(link)
    assert (ratio < 10.0) == warns
    near = []
    assert _cross_energy_sum(link.gamma1, link.gamma2, near) == value
    assert any(near) == warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = mobius_energy(link)
    assert rep.value == value and rep.error == error
    assert [w.category for w in caught] == [ResolutionWarning] * warns


@pytest.mark.parametrize("gap", [0.5, 0.05])
def test_linking_integral_matches_untiled_sum(gap):
    link = _unequal_link(gap, seed=3)
    raw = _reference_linking_integral(link)
    rep = linking_number(link)
    assert abs(rep.value) == 1
    assert rep.value == int(round(raw)) and rep.residual == abs(raw - rep.value)


def test_mobius_gradient_matches_untiled_row_sums():
    link = _unequal_link(0.5, seed=4)
    for fast, slow in zip(mobius_gradient(link), _reference_mobius_gradient(link)):
        assert np.array_equal(fast, slow)


@pytest.mark.parametrize("build", [
    lambda: perturb_link(_flat_hopf(64), 0.05, seed=1),
    lambda: perturb_link(_flat_hopf(64), 0.05, seed=2),
    lambda: perturb_link(_flat_hopf(64), 0.08, seed=3),
    lambda: _unequal_link(0.5, seed=4),
], ids=["hopf_seed1", "hopf_seed2", "hopf_seed3", "unequal"])
def test_mobius_gradient_is_similarity_invariant(build):
    # translating, scaling or rotating the whole link keeps its midpoint-rule
    # energy, so the gradient g at the vertices x has sum g = 0,
    # sum x . g = 0 and sum x cross g = 0, each up to round-off
    link = build()
    x = np.vstack([link.gamma1, link.gamma2])
    g = np.vstack(mobius_gradient(link))
    for terms in (g, np.sum(x * g, axis=1, keepdims=True), np.cross(x, g)):
        assert np.all(np.abs(terms.sum(axis=0)) <= 1e-13 * np.abs(terms).sum(axis=0))


_RSS_SCRIPT = """
import resource
import cel
from cel.energies import _far_pole
from cel.projection import project_link

link = cel.hopf_link(2048)
flat = project_link(link, _far_pole(link))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
cel.mobius_energy(flat)
cel.linking_number(flat)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_link_sums_run_in_bounded_memory():
    # the untiled sums grew the peak by about 440 MB on this link
    src = str(pathlib.Path(cel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _RSS_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 32 * 1024
