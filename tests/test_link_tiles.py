"""The tiled pairwise link sums against the untiled broadcasts they replace.

The references below build every n x m midpoint pair at once, as the link
sums did before they were tiled. The test links have components of unequal
length, 300 and 700 vertices, so a 2^16-pair tile holds 93 rows and its
boundaries fall mid-curve; results must agree bit for bit.
"""

import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cel
from cel import PolyLink, ResolutionWarning, linking_number, mobius_energy
from cel._accum import stable_sum
from cel.energies import _cross_energy_sum
from cel.mesh import _TILE_PAIRS, _segments
from cel.optimize import mobius_gradient


def _reference_cross_energy(g1, g2):
    m1, v1 = _segments(g1)
    m2, v2 = _segments(g2)
    len1 = np.linalg.norm(v1, axis=1)
    len2 = np.linalg.norm(v2, axis=1)
    d2 = np.sum((m1[:, None, :] - m2[None, :, :]) ** 2, axis=2)
    return stable_sum((len1[:, None] * len2[None, :]) / d2)


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
    return stable_sum(det / dist3) / (4.0 * np.pi)


def _reference_mobius_gradient(link):
    """Per-vertex central differences of the two rows a vertex moves."""
    h = 1e-6 * link.diameter()

    def row_sums(ga, mb, lb, k):
        n = len(ga)
        segs = np.array([(k - 1) % n, k])
        a = ga[segs]
        b = ga[(segs + 1) % n]
        mid = 0.5 * (a + b)
        ln = np.linalg.norm(b - a, axis=1)
        d2 = np.sum((mid[:, None, :] - mb[None, :, :]) ** 2, axis=2)
        return float(np.sum((ln[:, None] * lb[None, :]) / d2))

    grads = []
    for ga, gb in ((link.gamma1, link.gamma2), (link.gamma2, link.gamma1)):
        g = np.zeros_like(ga)
        mb, vb = _segments(gb)
        lb = np.linalg.norm(vb, axis=1)
        for k in range(len(ga)):
            for axis in range(3):
                vals = []
                for sign in (1.0, -1.0):
                    pert = ga.copy()
                    pert[k, axis] += sign * h
                    vals.append(row_sums(pert, mb, lb, k))
                g[k, axis] = (vals[0] - vals[1]) / (2.0 * h)
        grads.append(g)
    return grads


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
    ratios = []
    assert _cross_energy_sum(link.gamma1, link.gamma2, ratios) == value
    assert min(ratios) == ratio
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


def test_mobius_gradient_matches_per_vertex_loop():
    link = _unequal_link(0.5, seed=4)
    for fast, slow in zip(mobius_gradient(link), _reference_mobius_gradient(link)):
        assert np.array_equal(fast, slow)


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
