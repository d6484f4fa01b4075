"""Unit tests for the vRIO transport driver helpers (§4.3-§4.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iomodels import message_wire_bytes
from repro.iomodels.costs import DEFAULT_COSTS
from repro.iomodels.vrio import (
    chunk_fragments,
    chunk_sizes,
    chunk_wire_payload_bytes,
    transport_rx_cycles,
    transport_tx_cycles,
)
from repro.net import (
    ETHERNET_HEADER_BYTES,
    FAKE_TCPIP_HEADER_BYTES,
    JUMBO_MTU_MAX,
    JUMBO_MTU_VRIO,
    TSO_MAX_BYTES,
    VRIO_HEADER_BYTES,
    segment_sizes,
)
from tests.test_net_segmentation import (
    BOUNDARY_SIZES,
    EQUIVALENCE_LIMIT,
    EQUIVALENCE_MTUS,
)


def test_small_message_single_chunk():
    assert chunk_sizes(64) == [64]


def test_tso_limit_single_chunk():
    assert chunk_sizes(TSO_MAX_BYTES) == [TSO_MAX_BYTES]


def test_large_block_io_multiple_chunks():
    sizes = chunk_sizes(TSO_MAX_BYTES * 2 + 100)
    assert sizes == [TSO_MAX_BYTES, TSO_MAX_BYTES, 100]


def test_chunk_fragments_includes_headers():
    # 8044 payload + 16 vRIO + 40 fake-TCP = 8100 = exactly one MTU.
    assert chunk_fragments(8044, JUMBO_MTU_VRIO) == 1
    assert chunk_fragments(8045, JUMBO_MTU_VRIO) == 2


def test_64kb_chunk_is_nine_fragments():
    """The paper's §4.4 arithmetic: a 64 KB message -> 9 TSO fragments."""
    assert chunk_fragments(TSO_MAX_BYTES, JUMBO_MTU_VRIO) == 9


def test_wire_payload_accounts_all_headers():
    chunk = 100
    expected = (chunk + VRIO_HEADER_BYTES + 1 * FAKE_TCPIP_HEADER_BYTES
                + 0 * ETHERNET_HEADER_BYTES)
    assert chunk_wire_payload_bytes(chunk, JUMBO_MTU_VRIO) == expected


def test_wire_payload_multi_fragment():
    chunk = TSO_MAX_BYTES
    frags = 9
    expected = (chunk + VRIO_HEADER_BYTES + frags * FAKE_TCPIP_HEADER_BYTES
                + (frags - 1) * ETHERNET_HEADER_BYTES)
    assert chunk_wire_payload_bytes(chunk, JUMBO_MTU_VRIO) == expected


@given(st.integers(min_value=1, max_value=4 * TSO_MAX_BYTES))
@settings(max_examples=60)
def test_chunking_conserves_bytes(message):
    assert sum(chunk_sizes(message)) == message
    assert all(0 < c <= TSO_MAX_BYTES for c in chunk_sizes(message))


def test_tx_cycles_per_chunk_not_per_fragment():
    """TSO offloads segmentation: transmitting a big chunk costs the same
    CPU as a small one (the NIC slices it)."""
    small = transport_tx_cycles(DEFAULT_COSTS, 64)
    big = transport_tx_cycles(DEFAULT_COSTS, TSO_MAX_BYTES)
    assert small == big


def test_rx_cycles_scale_with_fragments():
    """Reassembly is software (§4.3): receive cost grows with fragments."""
    small = transport_rx_cycles(DEFAULT_COSTS, 64)
    big = transport_rx_cycles(DEFAULT_COSTS, TSO_MAX_BYTES)
    assert big > small
    expected_delta = 8 * DEFAULT_COSTS.vrio_transport_per_frag_cycles
    assert big - small == expected_delta


def test_standard_mtu_needs_more_fragments_than_jumbo():
    assert (chunk_fragments(TSO_MAX_BYTES, 1500)
            > chunk_fragments(TSO_MAX_BYTES, JUMBO_MTU_VRIO))


# -- closed forms against their list-based definitions ------------------

def wire_bytes_by_list(size_bytes, mtu):
    """message_wire_bytes' definition: one extra Ethernet header per
    fragment segment_sizes() makes beyond the first."""
    fragments = len(segment_sizes(size_bytes, mtu))
    return size_bytes + (fragments - 1) * ETHERNET_HEADER_BYTES


def chunk_fragments_by_list(chunk_bytes, mtu):
    """chunk_fragments' definition: the fragments of the chunk plus its
    vRIO and fake TCP/IP headers."""
    return len(segment_sizes(
        chunk_bytes + VRIO_HEADER_BYTES + FAKE_TCPIP_HEADER_BYTES, mtu))


@pytest.mark.parametrize("mtu", EQUIVALENCE_MTUS)
def test_wire_geometry_matches_list_definitions(mtu):
    for size in BOUNDARY_SIZES:
        assert message_wire_bytes(size, mtu) == wire_bytes_by_list(size, mtu)
        assert (chunk_fragments(size, mtu)
                == chunk_fragments_by_list(size, mtu)), (size, mtu)


@given(st.integers(min_value=1, max_value=EQUIVALENCE_LIMIT),
       st.integers(min_value=1, max_value=JUMBO_MTU_MAX))
@settings(max_examples=200)
def test_wire_geometry_matches_list_definitions_property(size, mtu):
    assert message_wire_bytes(size, mtu) == wire_bytes_by_list(size, mtu)
    assert chunk_fragments(size, mtu) == chunk_fragments_by_list(size, mtu)


# chunk_fragments adds the 56 header bytes before segmenting, so its
# message size is non-positive only from -56 bytes down.
@pytest.mark.parametrize("closed_form, by_list, size, mtu", [
    (message_wire_bytes, wire_bytes_by_list, 0, 1500),
    (message_wire_bytes, wire_bytes_by_list, -5, 1500),
    (message_wire_bytes, wire_bytes_by_list, 100, 0),
    (message_wire_bytes, wire_bytes_by_list, 100, -5),
    (chunk_fragments, chunk_fragments_by_list, -56, 8100),
    (chunk_fragments, chunk_fragments_by_list, -60, 8100),
    (chunk_fragments, chunk_fragments_by_list, 100, 0),
    (chunk_fragments, chunk_fragments_by_list, 100, -5),
])
def test_wire_geometry_rejects_nonpositive_like_lists(closed_form, by_list,
                                                      size, mtu):
    with pytest.raises(ValueError) as expected:
        by_list(size, mtu)
    with pytest.raises(ValueError) as raised:
        closed_form(size, mtu)
    assert str(raised.value) == str(expected.value)
