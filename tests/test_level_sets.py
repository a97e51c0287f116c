"""The block cut-face kernel against the per-field extraction it replaces.

The references below are the former one-field-per-call level-set length
and the former slot-filling loop that paired each crossing with its two
segment neighbors. The block kernel computes every crossing with the same
arithmetic and sums each field's segments on their own, so lengths and
cycle points must agree exactly.
"""

import numpy as np
import pytest

from cel import MeshQualityError, TriMesh, clifford_torus, sphere, sublevel_boundary
from cel.sweepouts import _level_set_lengths


def _reference_cuts(faces, values, level):
    above = values >= level
    fa = above[faces]
    n_above = fa.sum(axis=1)
    cut = (n_above == 1) | (n_above == 2)
    cf = faces[cut]
    cfa = fa[cut]
    crossed = cfa != np.roll(cfa, -1, axis=1)
    first = crossed.argmax(axis=1)
    last = 2 - crossed[:, ::-1].argmax(axis=1)
    return cf, first, last


def _reference_points(verts, values, level, i, j):
    ti = values[i]
    tj = values[j]
    t = (level - ti) / (tj - ti)
    return verts[i] + t[:, None] * (verts[j] - verts[i])


def _reference_length(mesh, values, level):
    cf, first, last = _reference_cuts(mesh.faces, values, level)
    if len(cf) == 0:
        return 0.0
    rows = np.arange(len(cf))
    a = _reference_points(mesh.vertices, values, level,
                          cf[rows, first], cf[rows, (first + 1) % 3])
    b = _reference_points(mesh.vertices, values, level,
                          cf[rows, last], cf[rows, (last + 1) % 3])
    return float(np.linalg.norm(a - b, axis=1).sum())


def _reference_boundary(mesh, values, level):
    """(loops, total length) with neighbors paired by the slot loop."""
    cf, first, last = _reference_cuts(mesh.faces, values, level)
    if len(cf) == 0:
        return [], 0.0
    rows = np.arange(len(cf))
    v = mesh.vertex_count

    def edge_key(slot):
        i = cf[rows, slot]
        j = cf[rows, (slot + 1) % 3]
        return np.minimum(i, j) * v + np.maximum(i, j)

    keys, inverse = np.unique(np.concatenate([edge_key(first), edge_key(last)]),
                              return_inverse=True)
    na = inverse[: len(cf)]
    nb = inverse[len(cf):]
    points = _reference_points(mesh.vertices, values, level, keys // v, keys % v)
    nbr = np.full((len(keys), 2), -1, dtype=np.int64)
    slot_used = np.zeros(len(keys), dtype=np.int64)
    for x, y in zip(na, nb):
        nbr[x, slot_used[x]] = y
        nbr[y, slot_used[y]] = x
        slot_used[x] += 1
        slot_used[y] += 1
    assert np.all(slot_used == 2)
    visited = np.zeros(len(keys), dtype=bool)
    loops = []
    total = 0.0
    for start in range(len(keys)):
        if visited[start]:
            continue
        chain = [start]
        visited[start] = True
        prev, node = -1, start
        while True:
            a, b = nbr[node]
            nxt = b if a == prev else a
            if nxt == start:
                break
            chain.append(nxt)
            visited[nxt] = True
            prev, node = node, nxt
        pts = points[np.array(chain)]
        total += float(np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1).sum())
        loops.append(pts)
    return loops, total


@pytest.mark.parametrize("level", [0.0, 0.3, -0.7, 5.0])
def test_block_lengths_equal_per_field_lengths(sphere16, level):
    fields = np.random.default_rng(11).standard_normal((9, sphere16.vertex_count))
    got = _level_set_lengths(sphere16, fields, level)
    want = [_reference_length(sphere16, f, level) for f in fields]
    assert got == want
    if level == 5.0:
        assert want == [0.0] * 9


@pytest.mark.parametrize("mesh", [sphere(resolution=12),
                                  clifford_torus(resolution=16)],
                         ids=["sphere", "clifford_torus"])
def test_cycles_equal_the_slot_loop(mesh):
    rng = np.random.default_rng(3)
    fields = [mesh.vertices[:, 0], mesh.vertices @ rng.standard_normal(
        mesh.vertices.shape[1])] + list(rng.standard_normal((3, mesh.vertex_count)))
    for values in fields:
        for level in (0.0, 0.3, -0.7):
            got = sublevel_boundary(mesh, values, level)
            loops, total = _reference_boundary(mesh, values, level)
            assert got.total_length == total
            assert len(got.loops) == len(loops)
            assert all(np.array_equal(a, b) for a, b in zip(got.loops, loops))


def test_open_level_set_is_rejected():
    mesh = sphere(resolution=8)
    holed = TriMesh(mesh.vertices, mesh.faces[2:])
    values = mesh.vertices @ np.array([0.3, 0.5, 0.8])
    level = float(values[mesh.faces[0]].mean())
    with pytest.raises(MeshQualityError, match="level set does not close up"):
        sublevel_boundary(holed, values, level)
