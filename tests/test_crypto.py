import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustagg import crypto, wire
from robustagg.errors import ConfigError, ProtocolViolation

from helpers import oracle_ack, oracle_xor

ack_bytes = st.binary(min_size=wire.ACK_LEN, max_size=wire.ACK_LEN)


@given(st.lists(ack_bytes, max_size=6))
def test_xor_acks_matches_bytewise_oracle(acks):
    assert crypto.xor_acks(acks) == oracle_xor(acks)


@given(ack_bytes, ack_bytes, ack_bytes)
def test_xor_acks_is_an_abelian_group(a, b, c):
    x = crypto.xor_acks
    assert x([a, b]) == x([b, a])
    assert x([x([a, b]), c]) == x([a, x([b, c])])
    assert x([a, crypto.ZERO_ACK]) == a
    assert x([a, a]) == crypto.ZERO_ACK


def test_xor_acks_rejects_wrong_width():
    with pytest.raises(ProtocolViolation):
        crypto.xor_acks([b"\x00" * 15])


@given(st.binary(min_size=1, max_size=32), st.binary(max_size=16))
def test_node_ack_matches_independent_construction(key, nonce):
    assert crypto.node_ack(key, nonce) == oracle_ack(key, nonce)


def test_mac_is_deterministic_and_key_separated():
    assert crypto.mac(b"k1", b"m") == crypto.mac(b"k1", b"m")
    assert crypto.mac(b"k1", b"m") != crypto.mac(b"k2", b"m")
    assert crypto.mac(b"k1", b"m") != crypto.mac(b"k1", b"n")
    assert len(crypto.mac(b"k", b"m")) == wire.ACK_LEN


class TestKeyStore:
    def test_keys_are_distinct_and_stable(self):
        ks = crypto.KeyStore(b"seed")
        ks.register_node([1, 2])
        ks.register_edge([(1, 2), (0, 1)])
        assert ks.bs_key(1) != ks.bs_key(2)
        assert ks.link_key(1, 2) == ks.link_key(2, 1)
        assert ks.link_key(1, 2) != ks.link_key(0, 1)
        ks2 = crypto.KeyStore(b"seed")
        ks2.register_node([1])
        assert ks2.bs_key(1) == ks.bs_key(1)

    def test_edge_key_is_the_same_in_either_orientation(self):
        flipped, ordered = crypto.KeyStore(b"seed"), crypto.KeyStore(b"seed")
        flipped.register_edge([(5, 3)])
        ordered.register_edge([(3, 5)])
        master = crypto.mac_long(b"\x00" * crypto.KEY_LEN, b"master" + b"seed")
        want = crypto.mac_long(master, b"link" + wire.u16(3) + wire.u16(5))
        assert flipped.link_key(3, 5) == ordered.link_key(3, 5) == want
        assert flipped.link_key(5, 3) == want

    def test_different_seeds_give_different_keys(self):
        a, b = crypto.KeyStore(b"a"), crypto.KeyStore(b"b")
        a.register_node([1])
        b.register_node([1])
        assert a.bs_key(1) != b.bs_key(1)

    def test_unknown_lookups_raise(self):
        ks = crypto.KeyStore(b"seed")
        with pytest.raises(ConfigError):
            ks.bs_key(7)
        with pytest.raises(ConfigError):
            ks.link_key(1, 2)

    def test_bs_id_cannot_be_a_sensor(self):
        ks = crypto.KeyStore(b"seed")
        with pytest.raises(ConfigError):
            ks.register_node([crypto.BS_ID])
        with pytest.raises(ConfigError):
            ks.register_node([1, crypto.BS_ID, 2])

    def test_a_later_registration_keeps_the_keys_already_read(self):
        ks = crypto.KeyStore(b"seed")
        ks.register_node([1])
        ks.register_edge([(2, 1)])
        bs, link = ks.bs_key(1), ks.link_key(1, 2)
        ks.register_node([2, 1])
        ks.register_edge([(1, 2), (2, 3)])
        assert (ks.bs_key(1), ks.link_key(2, 1)) == (bs, link)
        assert ks.bs_key(2) != bs and ks.link_key(3, 2) != link

    def test_unregistered_ids_raise_next_to_registered_ones(self):
        ks = crypto.KeyStore(b"seed")
        ks.register_node([1])
        ks.register_edge([(1, 2)])
        ks.bs_key(1)
        ks.link_key(2, 1)
        with pytest.raises(ConfigError):
            ks.bs_key(2)
        with pytest.raises(ConfigError):
            ks.link_key(1, 3)
        with pytest.raises(ConfigError):
            ks.register_node([crypto.BS_ID])
        with pytest.raises(ConfigError):
            ks.bs_key(crypto.BS_ID)

    @given(
        st.binary(max_size=8),
        st.lists(st.integers(1, 0xFFFF), min_size=1, max_size=6, unique=True),
        st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)), max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_keys_read_lazily_equal_the_eager_derivation(self, seed, nodes, edges, rnd):
        master = crypto.mac_long(b"\x00" * crypto.KEY_LEN, b"master" + seed)

        def eager_bs(v):
            return crypto.mac_long(master, b"bs" + wire.u16(v))

        def eager_link(a, b):
            lo, hi = min(a, b), max(a, b)
            return crypto.mac_long(master, b"link" + wire.u16(lo) + wire.u16(hi))

        ks = crypto.KeyStore(seed)
        ks.register_node(nodes)
        ks.register_edge(edges)
        # Every key twice, in either orientation, in a drawn order.
        reads = [("bs", (v,)) for v in nodes] + [("link", e) for e in edges]
        reads += [("link", (b, a)) for a, b in edges] + reads
        rnd.shuffle(reads)
        for kind, ids in reads:
            if kind == "bs":
                assert ks.bs_key(*ids) == eager_bs(*ids)
            else:
                assert ks.link_key(*ids) == eager_link(*ids)
