import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from walshlab.dyadic import IntInterval, MAX_INDEX, delta_block, translate_block
from walshlab.intervals import decompose

indices = st.integers(min_value=0, max_value=(1 << 12) - 1)


def test_check_index_rejects_out_of_range():
    for bad in (-1, MAX_INDEX):
        with pytest.raises(ValueError, match="a "):
            translate_block(bad, 0)
        with pytest.raises(ValueError, match="a "):
            decompose(bad, MAX_INDEX)


def test_delta_block_examples():
    assert delta_block(0).to_set() == {0}
    assert delta_block(1).to_set() == {1}
    assert delta_block(3).to_set() == {4, 5, 6, 7}


@given(st.integers(min_value=0, max_value=12))
def test_delta_blocks_tile(K):
    union = set()
    for k in range(K + 1):
        blk = delta_block(k).to_set()
        assert not union & blk
        union |= blk
    assert union == set(range(1 << K))


@given(indices)
def test_block_level_inverts(n):
    # the block of n is its bit length, as the basis sweep assumes
    blk = delta_block(n.bit_length())
    assert blk.lo <= n < blk.hi


def test_translate_set_examples():
    # translation by a carries each block onto one interval
    assert translate_block(0, 2) == IntInterval(2, 4)
    assert translate_block(1, 2) == IntInterval(2, 4)
    # 6 ^ {0, 1, 2, 3} = {6, 7, 4, 5}, block by block
    assert [translate_block(6, k) for k in (0, 1, 2)] == [
        IntInterval(6, 7), IntInterval(7, 8), IntInterval(4, 6)
    ]


@given(indices, st.integers(min_value=0, max_value=12))
def test_translate_is_bijective_on_blocks(a, k):
    # translating the image back by a recovers the block, element for element
    image = translate_block(a, k)
    assert image.size == delta_block(k).size
    assert {a ^ x for x in image.to_set()} == delta_block(k).to_set()


@given(indices, st.integers(min_value=0, max_value=12))
def test_translate_block_matches_elementwise(a, k):
    expected = {a ^ s for s in delta_block(k).to_set()}
    assert translate_block(a, k).to_set() == expected


def test_interval_validation():
    with pytest.raises(ValueError):
        IntInterval(3, 3)
    with pytest.raises(ValueError):
        IntInterval(5, 4)
    with pytest.raises(ValueError):
        IntInterval(-1, 4)
    iv = IntInterval(2, 5)
    assert iv.size == 3
    assert iv.to_set() == {2, 3, 4}
    assert iv.overlaps(IntInterval(4, 9))
    assert not iv.overlaps(IntInterval(5, 9))


def test_interval_refusals_keep_their_messages():
    with pytest.raises(ValueError, match=r"^empty interval \[3, 3\)$"):
        IntInterval(3, 3)
    with pytest.raises(ValueError, match="^lo must be nonnegative, got -1$"):
        IntInterval(-1, 4)
    with pytest.raises(ValueError, match=f"^hi {MAX_INDEX + 1} exceeds the 32-bit limit$"):
        IntInterval(0, MAX_INDEX + 1)
    assert IntInterval(0, MAX_INDEX).size == MAX_INDEX


def test_slotted_interval_keeps_value_semantics():
    iv = IntInterval(2, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        iv.lo = 3
    assert not hasattr(iv, "__dict__")
    for twin in (pickle.loads(pickle.dumps(iv)), copy.deepcopy(iv), copy.copy(iv)):
        assert type(twin) is IntInterval
        assert twin == iv and hash(twin) == hash(iv)
    assert iv != (2, 5)
    assert {iv, IntInterval(2, 5)} == {iv}
