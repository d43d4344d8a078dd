"""The exact-sign engine against the per-row loops it replaced.

`rad_norm_values` and the adjointness pairing evaluate half of the exact
sign rows and mirror the rest; the references below enumerate every row,
as the code did before, and the results must agree bit for bit.  S >= 13
spans several 4,096-row chunks, and the pairing is run on grids that cut
its rows into chunks too.  The norm is also run with chunks cut into row
sub-blocks.  Its kernel `rad_norm_stack` is run on the strided views of
chunk stacks that the campaigns pass it, and must give the same bits.
"""

import numpy as np
import pytest

from walshlab.lattice import (
    MC_SAMPLE_LIMIT,
    LatticeFunction,
    _mc_samples,
    _sign_averaged_pairings,
    _sign_chunks,
    _stacked,
    rad_norm_stack,
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


def runner_views(values):
    """An (S, cells, d) stack as the campaigns pass it to `rad_norm_stack`:
    one trial of a (cells, T, S, d) stack through `swapaxes` (`weak11`), and
    a [:, :, k] slice of an (S, cells, T, d) stack (`vector`).  The other
    trials are NaN, so a kernel that reads past its view cannot pass."""
    count, cells, dim = values.shape
    weak = np.full((cells, 3, count, dim), np.nan)
    weak[:, 1] = values.swapaxes(0, 1)
    vector = np.full((count, cells, 3, dim), np.nan)
    vector[:, :, 1] = values
    return weak[:, 1].swapaxes(0, 1), vector[:, :, 1]


def assert_kernel_on_views(comps, p, mode="exact", seed=None):
    """`rad_norm_stack` on each of the `runner_views` keeps the bits of
    `rad_norm_values` on the components."""
    want = rad_norm_values(comps, p, mode, seed)
    for view in runner_views(np.stack([g.values for g in comps])):
        got = rad_norm_stack(view, comps[0].q, p, mode, seed)
        assert got.tobytes() == want.tobytes()


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
    assert_kernel_on_views(comps, 4.0, mode, seed=[3, samples, 2])


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
        got = _sign_averaged_pairings(_stacked(tf)[:, None], _stacked(gs)[:, None])[0]
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
    assert_kernel_on_views(comps, 4.0)


def test_rad_norm_values_sub_blocks_at_the_default_budget():
    # 4,096-row chunks of 512 floats a row outgrow 2**20 floats
    comps = components(13, 6, 8, 2.0, seed=13)
    got = rad_norm_values(comps, 2.0)
    assert got.tobytes() == reference_rad_norm_values(comps, 2.0).tobytes()


# ---------------------------------------------------------------------------
# the doubling builder, the coordinate fold and the budget's cell blocks


def signed_components(count, resolution, dim, seed):
    """(S, cells, d) values with exact zeros, -0.0 and +-1 among the normals."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((count, 1 << resolution, dim))
    pick = rng.integers(0, 6, size=values.shape)
    values[pick == 0] = 0.0
    values[pick == 1] = -0.0
    values[pick == 2] = np.sign(values[pick == 2])
    return values


def engine_blocks(count, floats):
    """The exact row blocks `rad_norm_values` sums at once for components of
    `floats` floats: a lone chunk's first half, or the first, a middle and
    the last evaluated 4,096-row chunk, cut to the budget's power of two."""
    from walshlab.lattice import _SIGN_CHUNK, _SIGN_SUM_BUDGET

    total = 1 << count
    if total <= _SIGN_CHUNK:
        starts, size = [0], total // 2
    else:
        half = total // _SIGN_CHUNK // 2
        starts = sorted({0, half // 2, half - 1})
        starts, size = [c * _SIGN_CHUNK for c in starts], _SIGN_CHUNK
    fit = max(1, _SIGN_SUM_BUDGET // floats)
    size = min(size, 1 << (fit.bit_length() - 1))
    return [range(start, start + size) for start in starts]


@pytest.mark.parametrize("resolution", [0, 2, 6])
@pytest.mark.parametrize("count", range(1, 17))
def test_sign_sums_by_doubling_match_einsum(count, resolution):
    from walshlab.lattice import _exact_sign_block, _exact_sign_sums

    for dim in (1, 3, 7, 8, 9, 17):
        values = signed_components(count, resolution, dim, seed=count * 100 + dim)
        coords = np.ascontiguousarray(values.transpose(0, 2, 1))  # (S, d, cells)
        for rows in engine_blocks(count, values[0].size):
            signs = _exact_sign_block(count, rows.start, rows.stop)
            got = _exact_sign_sums(coords, rows).transpose(1, 2, 0)  # (rows, cells, d)
            # one sum per component, in order: the loop the pairing ran
            loop = np.zeros(got.shape)
            for s in range(count):
                loop += signs[:, s, None, None] * values[s]
            assert got.tobytes() == loop.tobytes(), (dim, rows)
            if values[0].size > 1:  # einsum dots a lone float in another order
                want = np.einsum("ks,scd->kcd", signs, values)
                assert np.abs(got).tobytes() == np.abs(want).tobytes(), (dim, rows)


def test_fold_is_numpys_contiguous_sum():
    from walshlab.lattice import _fold

    rng = np.random.default_rng(11)
    for dim in range(1, 141):
        scale = rng.choice([1e-8, 1.0, 1e8], size=(37, dim))
        x = rng.standard_normal((37, dim)) * scale
        for values in (x, np.abs(x)):
            want = values.sum(axis=-1)  # a C-contiguous array: pairwise along rows
            got = _fold(np.ascontiguousarray(values.T), np.empty(37))
            assert got.tobytes() == want.tobytes(), dim


@pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 16, 17, 130])
def test_lattice_norm_keeps_the_bits_of_a_contiguous_sum(dim):
    from walshlab.lattice import lattice_norm

    coords = np.random.default_rng(dim).standard_normal((5, 6, dim))
    for q in (1.0, 2.0, 3.0, np.inf):
        want = (
            np.abs(coords).max(axis=2) if q == np.inf
            else (np.abs(coords) ** q).sum(axis=2) ** (1.0 / q)
        )
        assert lattice_norm(coords, q, axis=2).tobytes() == want.tobytes()
        assert lattice_norm(coords, q).tobytes() == want.tobytes()


def reference_norms_with_redo(coords, q):
    """The lattice norm along axis 2 as the sign-sum norm took it before the
    fold: numpy's sum, and cells out of float range redone by their largest
    coordinate."""
    norms = (np.abs(coords) ** q).sum(axis=2)
    flat = norms.reshape(-1)
    redo = np.flatnonzero(~(flat >= np.finfo(float).tiny) | (flat == np.inf))
    norms **= 1.0 / q
    x = np.abs(coords.reshape(-1, coords.shape[2])[redo])
    top = x.max(axis=1)
    keep = (0 < top) & (top < np.inf)
    x = x[keep] / top[keep, None]
    flat[redo[keep]] = top[keep] * (x**q).sum(axis=1) ** (1.0 / q)
    return norms


def reference_rad_norm_values_with_redo(components, p):
    """Every exact sign row at once, with both redo steps (at most 12
    components, one chunk)."""
    stacked = np.stack([g.values for g in components])
    q = components[0].q
    signs = all_signs(stacked.shape[0])

    def norms(part):
        with np.errstate(over="ignore"):
            return reference_norms_with_redo(np.einsum("ks,scd->kcd", signs, part), q)

    with np.errstate(over="ignore"):
        means = (norms(stacked) ** p).sum(axis=0) / len(signs)
    out = means ** (1.0 / p)
    redo = np.flatnonzero(np.isinf(means) | (means < np.finfo(float).tiny))
    redo = redo[stacked[:, redo].any(axis=(0, 2))]
    if redo.size:
        part = norms(stacked[:, redo])
        top = part.max(axis=0)
        keep = (0 < top) & (top < np.inf)
        scaled = np.ascontiguousarray(part[:, keep]) / top[keep]  # rows sum in sequence
        mean = (scaled**p).sum(axis=0) / len(signs)
        out[redo[keep]] = top[keep] * mean ** (1.0 / p)
    return out


@pytest.mark.parametrize("q", [2.0, 3.0, 200.0])
@pytest.mark.parametrize("dim", [8, 9])
@pytest.mark.parametrize("count", [1, 4, 9])
def test_rad_norm_values_fold_coordinates_and_redo_cells(count, dim, q):
    # from 8 coordinates on the fold is pairwise; cell 1 overflows its
    # q-th and p-th powers, cell 2 underflows them, cell 3 is zero
    values = np.random.default_rng(count + dim).standard_normal((count, 8, dim))
    values[:, 1] *= 1e300
    values[:, 2] *= 1e-300
    values[:, 3] = 0.0
    comps = [LatticeFunction(3, v, q) for v in values]
    for p in (2.0, 4.0, 300.0):
        got = rad_norm_values(comps, p)
        assert got.tobytes() == reference_rad_norm_values_with_redo(comps, p).tobytes()
        assert np.isfinite(got).all() and got[3] == 0.0 and got[1] > 1e299
        assert_kernel_on_views(comps, p)


@pytest.mark.parametrize("mode", ["exact", "mc:300"])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("budget", [1, 2, 5, "row"])
def test_rad_norm_values_in_cell_blocks(monkeypatch, budget, dim, mode):
    # a budget below one row of signed sums cuts the cells into blocks too
    import walshlab.lattice as lattice

    comps = components(6, 4, dim, 3.0, seed=300 + dim)
    if budget == "row":
        budget = comps[0].values.size - 1
    monkeypatch.setattr(lattice, "_SIGN_SUM_BUDGET", budget)
    got = rad_norm_values(comps, 4.0, mode, seed=[7, dim])
    want = reference_rad_norm_values(comps, 4.0, mode, seed=[7, dim])
    assert got.tobytes() == want.tobytes()
    assert_kernel_on_views(comps, 4.0, mode, seed=[7, dim])
