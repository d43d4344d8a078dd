"""The level-bitmask route of the campaigns against the verified `decompose`.

The runners hold each interval [a, b) as its endpoints and take its left
levels from the identity (~a & (2**k_m - 1)) << 1, with k_m =
bit_length(a ^ b) - 1 (`intervals.left_level_masks`), and its anchor is a
itself; the segment transform adds level 0 as bit 0.  The engine expands
the set bits of each mask into the kept index blocks
(`operators._mask_ranges`).  Here both are
pinned to the pieces `decompose` constructs, and the public functions that
take levels or decompositions are checked to refuse what they refused
before: a level above the grid's resolution with `ResolutionError`, a
negative level with a plain `ValueError`.
"""

import numpy as np
import pytest

from walshlab.dyadic import IntInterval, delta_block
from walshlab.experiments import random_function, random_lattice_function
from walshlab.intervals import decompose, family_decompose, left_level_masks
from walshlab.lattice import segment_transform, segment_transform_adjoint
from walshlab.operators import _mask_ranges, block_sum, block_sum_family, block_sum_stack
from walshlab.walsh import DyadicFunction, ResolutionError


def _decomposed_masks(lo, hi):
    """Anchors and left-level bitmasks of the decompositions of [lo, hi)."""
    anchors, masks = [], []
    for a, b in zip(lo.tolist(), hi.tolist()):
        dec = decompose(a, b)
        anchors.append(dec.anchor)
        masks.append(sum(1 << j for j in dec.left_levels))
    return anchors, masks


def test_left_masks_match_decompose_up_to_2_pow_9():
    # every 0 <= a < b <= 2**9: 131,328 intervals
    lo, hi = np.triu_indices((1 << 9) + 1, 1)
    assert lo.size == 131_328
    anchors, masks = _decomposed_masks(lo, hi)
    assert anchors == lo.tolist()
    assert left_level_masks(lo, hi).tolist() == masks


def test_left_masks_match_decompose_on_random_intervals_up_to_2_pow_20():
    rng = np.random.default_rng(2020)
    ends = np.sort(rng.integers(0, (1 << 20) + 1, size=(10_500, 2)), axis=1)
    lo, hi = ends[ends[:, 0] < ends[:, 1]][:10_000].T
    assert lo.size == 10_000
    anchors, masks = _decomposed_masks(lo, hi)
    assert anchors == lo.tolist()
    assert left_level_masks(lo, hi).tolist() == masks


def test_empty_rows_have_no_levels():
    # the scalar runner pads a shorter probe family with rows lo == hi
    lo = np.array([0, 5, 1 << 20])
    assert left_level_masks(lo, lo).tolist() == [0, 0, 0]


@pytest.mark.parametrize("segment", [False, True])
@pytest.mark.parametrize("resolution", [0, 1, 4, 7])
def test_mask_ranges_are_the_blocks_of_the_levels(resolution, segment):
    # the kept ranges the engine expands from the masks, with bit 0 added for
    # the segment transform, are the level blocks of the decompositions
    lo, hi = np.triu_indices((1 << resolution) + 1, 1)
    masks = left_level_masks(lo, hi) | int(segment)
    column, starts, stops = _mask_ranges(masks, resolution)
    got = [[] for _ in masks]
    for c, a, b in zip(column.tolist(), starts.tolist(), stops.tolist()):
        got[c].append((a, b))
    for ranges, a, b in zip(got, lo.tolist(), hi.tolist()):
        levels = ((0,) if segment else ()) + decompose(a, b).left_levels
        assert ranges == [(delta_block(j).lo, delta_block(j).hi) for j in levels], (a, b)


def test_block_sum_refuses_levels_at_its_boundary():
    f = random_function(0, 4, "gaussian-cells")
    with pytest.raises(ResolutionError, match="^level 5 exceeds resolution 4$"):
        block_sum(f, 3, [1, 5])
    with pytest.raises(ValueError, match="^block level must be nonnegative, got -1$") as err:
        block_sum(f, 3, [2, -1])
    assert type(err.value) is ValueError
    # levels are checked in the order given
    with pytest.raises(ResolutionError):
        block_sum(f, 3, [7, -1])
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        block_sum(f, -1, [1])
    with pytest.raises(ResolutionError, match="^index 16 is not resolved"):
        block_sum(f, 16, [1])
    # a level given twice is kept once
    assert block_sum(f, 3, [2, 2, 1]).values.tobytes() == block_sum(f, 3, {1, 2}).values.tobytes()


def test_block_sum_stack_refuses_unresolved_anchors_and_masks():
    values = random_function(3, 4, "gaussian-cells").values[:, None]  # (16, 1)
    alone = block_sum(DyadicFunction(4, values[:, 0]), 15, [1, 2, 3, 4]).values
    assert block_sum_stack(values, [[15]], [[0b11110]]).tobytes() == alone.tobytes()
    for anchors, masks in [([[16]], [[2]]), ([[-1]], [[2]]), ([[3]], [[1 << 5]]), ([[3]], [[-2]])]:
        with pytest.raises(ResolutionError):
            block_sum_stack(values, anchors, masks)


def test_decomposition_fronts_refuse_an_unresolved_family():
    # [8, 32) has anchor 8 and left levels 1, 2, 3 and 5: at N = 4 its
    # anchor is resolved, its level 5 is not
    decs = family_decompose([IntInterval(8, 32)])
    f = random_function(1, 4, "gaussian-cells")
    g = random_lattice_function(2, 4, 2, 2.0, "gaussian-cells")
    assert max(decs[0].left_levels) > 4
    with pytest.raises(ResolutionError, match="^level 5 exceeds resolution 4$"):
        block_sum_family(f, decs)
    with pytest.raises(ResolutionError):
        segment_transform(g, decs)
    with pytest.raises(ResolutionError):
        segment_transform_adjoint([g], decs)
