"""The exact-sign engine against the per-row loops it replaced.

`rad_norm_values` and the adjointness pairing evaluate half of the exact
sign rows and mirror the rest; the references below enumerate every row,
as the code did before, and the results must agree bit for bit.  S >= 13
spans several 4,096-row chunks, and the pairing is run on grids that cut
its rows into chunks too.  The norm is also run with chunks cut into row
sub-blocks.
"""

import numpy as np
import pytest

from walshlab.lattice import (
    MC_SAMPLE_LIMIT,
    LatticeFunction,
    _mc_samples,
    _sign_averaged_pairing,
    _sign_chunks,
    rad_norm_values,
)


def all_signs(count):
    rows = np.arange(1 << count, dtype=np.int64)
    return 1.0 - 2.0 * ((rows[:, None] >> np.arange(count)) & 1)


def reference_lattice_norm(coords, q):
    if q == np.inf:
        return np.abs(coords).max(axis=2)
    return (np.abs(coords) ** q).sum(axis=2) ** (1.0 / q)


def reference_rad_norm_values(components, p, mode="exact", seed=None):
    stacked = np.stack([g.values for g in components])
    q = components[0].q
    if mode == "exact":
        signs = all_signs(stacked.shape[0])
    else:
        samples = int(mode.split(":", 1)[1])
        rng = np.random.default_rng(seed)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=(samples, stacked.shape[0])).astype(float)
    acc = np.zeros(stacked.shape[1])
    for start in range(0, signs.shape[0], 1 << 12):
        chunk = signs[start : start + (1 << 12)]
        sums = np.einsum("ks,scd->kcd", chunk, stacked)
        acc += (reference_lattice_norm(sums, q) ** p).sum(axis=0)
    return (acc / signs.shape[0]) ** (1.0 / p)


def reference_pairing(tf, gs):
    count = len(tf)
    signs = all_signs(count)
    lhs = 0.0
    for row in signs:
        tsum = sum(float(row[s]) * tf[s].values for s in range(count))
        gsum = sum(float(row[s]) * gs[s].values for s in range(count))
        lhs += float((tsum * gsum).sum(axis=1).mean())
    return lhs / signs.shape[0]


def components(count, resolution, dim, q, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((count, 1 << resolution, dim))
    return [LatticeFunction(resolution, v, q) for v in values]


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("q", [2.0, 3.0, np.inf])
@pytest.mark.parametrize("count", range(1, 17))
def test_rad_norm_values_matches_every_row(count, q, p):
    comps = components(count, 2, 3, q, seed=count)
    got = rad_norm_values(comps, p)
    assert got.tobytes() == reference_rad_norm_values(comps, p).tobytes()


@pytest.mark.parametrize("samples", [1, 7, 4096, 5000])
def test_rad_norm_values_mc_unchanged(samples):
    comps = components(6, 3, 2, 3.0, seed=samples)
    mode = f"mc:{samples}"
    got = rad_norm_values(comps, 4.0, mode, seed=[3, samples, 2])
    want = reference_rad_norm_values(comps, 4.0, mode, seed=[3, samples, 2])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [7, 1000, 4096])
@pytest.mark.parametrize("count", [1, 3, 7, 12])
def test_mc_sample_drawn_per_chunk_is_the_one_shot_sample(count, rows):
    # numpy fills integers(0, 2) from one 32-bit draw per entry and keeps a
    # buffered half-word in the generator, so chunked draws continue the
    # stream; the chunked sample must be the one-shot sample, row for row
    samples = 9000
    seed = [5, count, rows]
    whole = np.random.default_rng(seed).integers(0, 2, size=(samples, count))
    rng = np.random.default_rng(seed)
    chunks = [
        rng.integers(0, 2, size=(min(rows, samples - start), count))
        for start in range(0, samples, rows)
    ]
    assert np.concatenate(chunks).tobytes() == whole.tobytes()
    partials, total = _sign_chunks(
        count, f"mc:{samples}", seed, lambda signs: signs, lambda vals: vals, rows
    )
    assert total == samples
    assert np.concatenate(partials).tobytes() == (1.0 - 2.0 * whole).tobytes()


def test_mc_sample_count_is_capped():
    assert _mc_samples(f"mc:{MC_SAMPLE_LIMIT}") == MC_SAMPLE_LIMIT
    assert _mc_samples("mc:100000000") == 100_000_000
    with pytest.raises(ValueError, match="more than the limit"):
        _mc_samples(f"mc:{MC_SAMPLE_LIMIT + 1}")


# (resolution, dim, counts): 16 floats per component take 4,096-row chunks,
# so counts 13-14 span several; 512 floats take 128-row chunks from count 8.
@pytest.mark.parametrize(
    "resolution, dim, counts", [(3, 2, range(1, 15)), (7, 4, range(1, 12))]
)
def test_pairing_matches_every_row(resolution, dim, counts):
    for count in counts:
        tf = components(count, resolution, dim, 2.0, seed=count)
        gs = components(count, resolution, dim, 2.0, seed=100 + count)
        got = _sign_averaged_pairing(tf, gs)
        want = reference_pairing(tf, gs)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), count


@pytest.mark.parametrize("rows", [1, 7, 64, 256])
@pytest.mark.parametrize("count", [9, 12, 13])
def test_rad_norm_values_in_row_sub_blocks(monkeypatch, count, rows):
    # a budget of `rows` rows of signed sums cuts every chunk into sub-blocks
    import walshlab.lattice as lattice

    comps = components(count, 3, 3, 3.0, seed=200 + count)
    monkeypatch.setattr(lattice, "_SIGN_SUM_BUDGET", rows * comps[0].values.size)
    got = rad_norm_values(comps, 4.0)
    assert got.tobytes() == reference_rad_norm_values(comps, 4.0).tobytes()


def test_rad_norm_values_sub_blocks_at_the_default_budget():
    # 4,096-row chunks of 512 floats a row outgrow 2**20 floats
    comps = components(13, 6, 8, 2.0, seed=13)
    got = rad_norm_values(comps, 2.0)
    assert got.tobytes() == reference_rad_norm_values(comps, 2.0).tobytes()
