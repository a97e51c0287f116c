"""The bit-packed level-set kernel against the one-field reference.

Up to 64 fields share one sign word per vertex, so neither the block size
nor a field's bit in the word may change a length: every field must come
out exactly as the one-field extraction of tests/test_level_sets.py
computes it, which also pins the cut order and the coordinate order of
each segment length.
"""

import numpy as np
import pytest

from cel import (clifford_torus, eigenfunction_width_series,
                 harmonic_width_series, real_harmonic_basis, sphere)
from cel import sweepouts
from cel._accum import unit_directions
from cel.sweepouts import (_HALF_BLOCK_FL, _SUP_BLOCK, _level_set_lengths,
                           _sampled_sup)
from test_level_sets import _reference_length

MESHES = {"sphere": sphere(resolution=16),
          "clifford_torus": clifford_torus(resolution=16)}


def _fields(mesh, count, seed):
    """`count` distinct fields: smooth quadratics in the coordinates, with
    every third one rounded to a multiple of 0.1 so that many vertices sit
    exactly at the levels 0.0 and 0.1."""
    rng = np.random.default_rng(seed)
    x = mesh.vertices
    d = x.shape[1]
    fields = []
    for k in range(count):
        quad = rng.standard_normal((d, d))
        values = (np.einsum("vi,ij,vj->v", x, quad, x) / d
                  + x @ rng.standard_normal(d))
        fields.append(np.round(values, 1) if k % 3 == 0 else values)
    return np.array(fields)


@pytest.mark.parametrize("level", [0.0, 0.1, 50.0])
@pytest.mark.parametrize("count", [1, 7, 8, 63, 64])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_block_lengths_equal_the_reference(name, count, level):
    mesh = MESHES[name]
    fields = _fields(mesh, count, seed=count)
    if level == 0.1:
        assert np.any(fields == level)
    got = _level_set_lengths(mesh, fields, level)
    want = [_reference_length(mesh, f, level) for f in fields]
    assert got == want
    assert (max(want) == 0.0) == (level == 50.0)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_block_lengths_do_not_see_the_sign_of_a_field(name):
    # with no vertex exactly at the level, f and -f have one zero set, cut
    # at the same crossing fractions, so a projective family may draw
    # either sign of a member
    mesh = MESHES[name]
    fields = _fields(mesh, 96, seed=5)
    fields = fields[(fields != 0.0).all(axis=1)][:64]
    assert len(fields) == 64
    want = _level_set_lengths(mesh, fields, 0.0)
    assert max(want) > 0.0
    rng = np.random.default_rng(7)
    masks = [np.zeros(64, bool), np.ones(64, bool)]
    masks += [rng.random(64) < 0.5 for _ in range(4)]
    for flip in masks:
        signs = np.where(flip, -1.0, 1.0)
        assert _level_set_lengths(mesh, signs[:, None] * fields, 0.0) == want


def test_sampled_sup_over_full_blocks_and_a_partial_one():
    mesh = MESHES["sphere"]
    samples = 3 * _SUP_BLOCK + 5
    columns = real_harmonic_basis(mesh.vertices, 3)
    sub = columns[:, :12]
    want = []
    for seed in range(5):
        dirs = unit_directions(samples, 12, np.random.SeedSequence([seed, 12]))
        want.append(max(_reference_length(mesh, sub @ d, 0.0) for d in dirs))
    got = [_sampled_sup(mesh, columns, 12, samples, [seed, 12])
           for seed in range(5)]
    assert got == want


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rows", [1, 7, 64])
def test_block_product_equals_the_product_per_direction(order, rows):
    # _sampled_sup computes a block's fields as one stacked product; each
    # (L, 1) direction must give the gemv result of the direction alone
    mesh = MESHES["sphere"]
    sub = np.asarray(real_harmonic_basis(mesh.vertices, 4)[:, :21], order=order)
    dirs = unit_directions(rows, 21, np.random.SeedSequence([3, rows]))
    out = np.empty((64, mesh.vertex_count, 1))
    np.matmul(sub, dirs[:, :, None], out=out[:rows])
    for got, d in zip(out[:rows, :, 0], dirs):
        assert np.array_equal(got, np.matmul(sub, d))


def test_block_size_does_not_change_a_sup(monkeypatch):
    # harmonic columns are C-ordered, Laplace eigenvectors F-ordered, and
    # 105 samples end in a partial block at every block size below; a zero
    # _HALF_BLOCK_FL halves every block, to 1, 4, 16 and 32 fields
    mesh = MESHES["sphere"]
    columns = real_harmonic_basis(mesh.vertices, 3)
    results = []
    for block in (1, 7, 32, 64):
        for half in (0, sweepouts._HALF_BLOCK_FL):
            monkeypatch.setattr(sweepouts, "_SUP_BLOCK", block)
            monkeypatch.setattr(sweepouts, "_HALF_BLOCK_FL", half)
            results.append((
                [_sampled_sup(mesh, columns, size, 105, [2, size])
                 for size in (2, 9, 16)],
                harmonic_width_series(mesh, lengths=(2, 5, 9), seed=4),
                eigenfunction_width_series(mesh, lengths=(2, 4, 7), seed=4)))
    assert all(r == results[0] for r in results[1:])


def test_blocks_halve_once_faces_times_size_passes_the_bound(monkeypatch):
    mesh = MESHES["sphere"]
    columns = real_harmonic_basis(mesh.vertices, 4)
    seen = []

    def record(mesh, fields, level, kernel=sweepouts._level_set_lengths):
        seen.append(len(fields))
        return kernel(mesh, fields, level)

    monkeypatch.setattr(sweepouts, "_level_set_lengths", record)
    blocks = {}
    for size in (16, 25):
        assert (len(mesh.faces) * size > _HALF_BLOCK_FL) == (size == 25)
        seen.clear()
        _sampled_sup(mesh, columns, size, 100, [0, size])
        blocks[size] = list(seen)
    assert blocks == {16: [64, 36], 25: [32, 32, 32, 4]}
