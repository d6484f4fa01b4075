"""Unit + property tests for segmentation/TSO/zero-copy reassembly (§4.3-4.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    FAKE_TCPIP_HEADER_BYTES,
    JUMBO_MTU_MAX,
    JUMBO_MTU_VRIO,
    SKB_MAX_FRAGMENTS,
    STANDARD_MTU,
    TSO_MAX_BYTES,
    VRIO_HEADER_BYTES,
    ReassemblyBuffer,
    ReassemblyError,
    Segment,
    fragment_count,
    pages_for_fragment,
    reassembly_is_zero_copy,
    segment_sizes,
)


def test_segment_sizes_exact_multiple():
    assert segment_sizes(3000, 1500) == [1500, 1500]


def test_segment_sizes_with_remainder():
    assert segment_sizes(3001, 1500) == [1500, 1500, 1]


def test_segment_sizes_small_message_single_fragment():
    assert segment_sizes(64, 1500) == [64]


def test_segment_sizes_rejects_nonpositive():
    with pytest.raises(ValueError):
        segment_sizes(0, 1500)
    with pytest.raises(ValueError):
        segment_sizes(100, 0)


@given(st.integers(min_value=1, max_value=TSO_MAX_BYTES),
       st.integers(min_value=1, max_value=JUMBO_MTU_MAX))
def test_segment_sizes_conserve_bytes(message, mtu):
    sizes = segment_sizes(message, mtu)
    assert sum(sizes) == message
    assert all(0 < s <= mtu for s in sizes)
    # All but the last fragment are full MTU.
    assert all(s == mtu for s in sizes[:-1])


def test_pages_for_fragment():
    assert pages_for_fragment(4096) == 1
    assert pages_for_fragment(4097) == 2
    assert pages_for_fragment(8100, header_bytes=92) == 2


def test_paper_zero_copy_arithmetic_mtu_8100():
    """§4.4: 64KB at MTU 8100 -> 9 fragments, 8x2 pages + 1x1 page = 17."""
    sizes = segment_sizes(TSO_MAX_BYTES, JUMBO_MTU_VRIO)
    assert len(sizes) == 9
    assert sizes[-1] == TSO_MAX_BYTES - 8 * 8100 == 736
    pages = sum(pages_for_fragment(s) for s in sizes)
    assert pages == SKB_MAX_FRAGMENTS
    assert reassembly_is_zero_copy(TSO_MAX_BYTES, JUMBO_MTU_VRIO)


def test_max_jumbo_mtu_violates_zero_copy():
    """MTU 9000 makes 64KB messages exceed the 17-fragment SKB limit."""
    assert not reassembly_is_zero_copy(TSO_MAX_BYTES, JUMBO_MTU_MAX)


def test_zero_copy_false_beyond_tso_limit():
    assert not reassembly_is_zero_copy(TSO_MAX_BYTES + 1, JUMBO_MTU_VRIO)


@given(st.integers(min_value=1, max_value=TSO_MAX_BYTES))
@settings(max_examples=50)
def test_all_tso_messages_zero_copy_at_paper_mtu(message):
    """The paper chose MTU=8100 precisely so EVERY <=64KB message is
    zero-copy reassemblable."""
    assert reassembly_is_zero_copy(message, JUMBO_MTU_VRIO)


# -- closed forms against their list-based definitions ------------------

# The channel MTU, its per-fragment payload budget once the vRIO and fake
# TCP/IP headers are inside it (8044), the standard and maximum jumbo
# MTUs, and the degenerate one-byte MTU.
CHANNEL_HEADER_BYTES = VRIO_HEADER_BYTES + FAKE_TCPIP_HEADER_BYTES
EQUIVALENCE_MTUS = (1, STANDARD_MTU, JUMBO_MTU_VRIO - CHANNEL_HEADER_BYTES,
                    JUMBO_MTU_VRIO, JUMBO_MTU_MAX)
EQUIVALENCE_HEADER_BYTES = (0, CHANNEL_HEADER_BYTES)
EQUIVALENCE_LIMIT = 3 * TSO_MAX_BYTES


def boundary_sizes():
    """Every size in 1..3×TSO_MAX_BYTES within one byte of a multiple of
    an equivalence MTU above 1 or of TSO_MAX_BYTES.  Every byte count is
    a multiple of the one-byte MTU, which is checked on this grid too."""
    steps = [mtu for mtu in EQUIVALENCE_MTUS if mtu > 1] + [TSO_MAX_BYTES]
    sizes = {1, 2}
    for step in steps:
        for multiple in range(step, EQUIVALENCE_LIMIT + 1, step):
            sizes.update((multiple - 1, multiple, multiple + 1))
    return sorted(size for size in sizes if 1 <= size <= EQUIVALENCE_LIMIT)


BOUNDARY_SIZES = boundary_sizes()


def zero_copy_by_page_sum(message_bytes, mtu, header_bytes):
    """reassembly_is_zero_copy's definition: the pages of every fragment
    segment_sizes() makes, summed against the SKB limit."""
    if message_bytes > TSO_MAX_BYTES:
        return False
    pages = sum(pages_for_fragment(size, header_bytes)
                for size in segment_sizes(message_bytes, mtu))
    return pages <= SKB_MAX_FRAGMENTS


@pytest.mark.parametrize("mtu", EQUIVALENCE_MTUS)
def test_fragment_count_is_len_of_segment_sizes(mtu):
    for size in BOUNDARY_SIZES:
        assert fragment_count(size, mtu) == len(segment_sizes(size, mtu)), (
            size, mtu)


@pytest.mark.parametrize("header_bytes", EQUIVALENCE_HEADER_BYTES)
@pytest.mark.parametrize("mtu", EQUIVALENCE_MTUS)
def test_zero_copy_closed_form_matches_page_sum(mtu, header_bytes):
    for size in BOUNDARY_SIZES:
        assert (reassembly_is_zero_copy(size, mtu, header_bytes)
                == zero_copy_by_page_sum(size, mtu, header_bytes)), (
            size, mtu, header_bytes)


@given(st.integers(min_value=1, max_value=EQUIVALENCE_LIMIT),
       st.integers(min_value=1, max_value=JUMBO_MTU_MAX),
       st.sampled_from(EQUIVALENCE_HEADER_BYTES))
@settings(max_examples=200)
def test_closed_forms_match_lists_property(message, mtu, header_bytes):
    assert fragment_count(message, mtu) == len(segment_sizes(message, mtu))
    assert (reassembly_is_zero_copy(message, mtu, header_bytes)
            == zero_copy_by_page_sum(message, mtu, header_bytes))


@pytest.mark.parametrize("message, mtu",
                         [(0, 1500), (-5, 1500), (100, 0), (100, -5), (0, 0)])
def test_closed_forms_reject_nonpositive_like_segment_sizes(message, mtu):
    with pytest.raises(ValueError) as expected:
        segment_sizes(message, mtu)
    for closed_form in (fragment_count, reassembly_is_zero_copy):
        with pytest.raises(ValueError) as raised:
            closed_form(message, mtu)
        assert str(raised.value) == str(expected.value)


def make_segments(message_id, message_bytes, mtu):
    sizes = segment_sizes(message_bytes, mtu)
    return [Segment(message_id=message_id, index=i, count=len(sizes),
                    payload_bytes=s, message_bytes=message_bytes)
            for i, s in enumerate(sizes)]


def test_reassembly_in_order():
    buf = ReassemblyBuffer(mtu=JUMBO_MTU_VRIO)
    segs = make_segments(1, 20000, JUMBO_MTU_VRIO)
    results = [buf.add(s) for s in segs]
    assert results[:-1] == [None, None]
    done = results[-1]
    assert done["message_bytes"] == 20000
    assert done["zero_copy"] is True
    assert buf.pending == 0


def test_reassembly_out_of_order():
    buf = ReassemblyBuffer(mtu=STANDARD_MTU)
    segs = make_segments(9, 4000, STANDARD_MTU)
    assert buf.add(segs[2]) is None
    assert buf.add(segs[0]) is None
    done = buf.add(segs[1])
    assert done is not None
    assert done["message_bytes"] == 4000


def test_reassembly_duplicate_fragment_idempotent():
    buf = ReassemblyBuffer(mtu=STANDARD_MTU)
    segs = make_segments(2, 3000, STANDARD_MTU)
    assert buf.add(segs[0]) is None
    assert buf.add(segs[0]) is None  # duplicate ignored
    done = buf.add(segs[1])
    assert done is not None
    assert buf.completed_messages == 1


def test_reassembly_interleaved_messages():
    buf = ReassemblyBuffer(mtu=STANDARD_MTU)
    a = make_segments(1, 3000, STANDARD_MTU)
    b = make_segments(2, 3000, STANDARD_MTU)
    assert buf.add(a[0]) is None
    assert buf.add(b[0]) is None
    assert buf.pending == 2
    assert buf.add(b[1])["message_id"] == 2
    assert buf.add(a[1])["message_id"] == 1


def test_reassembly_bad_index_raises():
    buf = ReassemblyBuffer()
    with pytest.raises(ReassemblyError):
        buf.add(Segment(message_id=1, index=5, count=3,
                        payload_bytes=10, message_bytes=30))


def test_reassembly_inconsistent_count_raises():
    buf = ReassemblyBuffer()
    buf.add(Segment(message_id=1, index=0, count=3,
                    payload_bytes=10, message_bytes=30))
    with pytest.raises(ReassemblyError):
        buf.add(Segment(message_id=1, index=1, count=4,
                        payload_bytes=10, message_bytes=40))


def test_reassembly_size_mismatch_raises():
    buf = ReassemblyBuffer()
    buf.add(Segment(message_id=1, index=0, count=2,
                    payload_bytes=10, message_bytes=100))
    with pytest.raises(ReassemblyError):
        buf.add(Segment(message_id=1, index=1, count=2,
                        payload_bytes=10, message_bytes=100))


def test_reassembly_drop_partial_message():
    buf = ReassemblyBuffer(mtu=STANDARD_MTU)
    segs = make_segments(5, 3000, STANDARD_MTU)
    buf.add(segs[0])
    buf.drop_message(5)
    assert buf.pending == 0
    # A fresh retransmission of the whole message still completes.
    for s in make_segments(5, 3000, STANDARD_MTU)[:-1]:
        assert buf.add(s) is None
    assert buf.add(segs[-1]) is not None


@given(st.integers(min_value=1, max_value=TSO_MAX_BYTES),
       st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_reassembly_any_arrival_order_completes(message_bytes, rng):
    buf = ReassemblyBuffer(mtu=JUMBO_MTU_VRIO)
    segs = make_segments(1, message_bytes, JUMBO_MTU_VRIO)
    rng.shuffle(segs)
    done = None
    for seg in segs:
        result = buf.add(seg)
        if result is not None:
            assert done is None, "completed twice"
            done = result
    assert done is not None
    assert done["message_bytes"] == message_bytes
    assert done["zero_copy"] is True
