"""Handshake and frame-encryption behavior, including tamper and
replay handling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmesh.errors import HandshakeError, ProtocolError, ReplayError
from bdmesh.securelink import (
    FRAME_HEADER_LEN,
    FRAME_TAG_LEN,
    HANDSHAKE_LEN,
    REPLAY_WINDOW,
    FrameCipher,
    HandshakeInitiator,
    HandshakeResponder,
    Identity,
    frame_plain,
    is_handshake,
    split_plain,
)


def run_handshake(rng=None):
    rng = rng or random.Random(1)
    ida, idb = Identity.generate(rng), Identity.generate(rng)
    init = HandshakeInitiator(ida, idb.public_bytes, rng=rng)
    resp = HandshakeResponder(idb, ida.public_bytes, rng=rng)
    m1 = init.message1()
    m2 = resp.consume_message1(m1)
    keys_a = init.consume_message2(m2)
    return ida, idb, keys_a, resp.keys, m1, m2


class TestHandshake:
    def test_both_sides_derive_mirrored_keys(self):
        _, _, ka, kb, _, _ = run_handshake()
        assert ka.channel_id == kb.channel_id
        assert len(ka.channel_id) == 8
        assert ka.send_key == kb.recv_key
        assert ka.recv_key == kb.send_key
        assert ka.send_key != ka.recv_key

    def test_identities_exchanged(self):
        ida, idb, ka, kb, _, _ = run_handshake()
        assert ka.peer_identity == idb.public_bytes
        assert kb.peer_identity == ida.public_bytes

    def test_messages_have_fixed_length_and_magic(self):
        _, _, _, _, m1, m2 = run_handshake()
        assert len(m1) == len(m2) == HANDSHAKE_LEN
        assert is_handshake(m1) and is_handshake(m2)
        assert not is_handshake(b"BDHP" + m1[4:])

    def test_fresh_ephemerals_per_session(self):
        _, _, ka1, _, _, _ = run_handshake(rng=random.Random(10))
        _, _, ka2, _, _, _ = run_handshake(rng=random.Random(11))
        assert ka1.send_key != ka2.send_key
        assert ka1.channel_id != ka2.channel_id

    def test_wrong_expected_identity_rejected(self):
        rng = random.Random(2)
        ida, idb, mallory = (Identity.generate(rng) for _ in range(3))
        init = HandshakeInitiator(ida, mallory.public_bytes, rng=rng)
        resp = HandshakeResponder(idb, ida.public_bytes, rng=rng)
        m2 = resp.consume_message1(init.message1())
        with pytest.raises(HandshakeError, match="identity"):
            init.consume_message2(m2)

    def test_responder_can_pin_initiator(self):
        rng = random.Random(3)
        ida, idb, mallory = (Identity.generate(rng) for _ in range(3))
        init = HandshakeInitiator(mallory, idb.public_bytes, rng=rng)
        resp = HandshakeResponder(idb, expected_peer=ida.public_bytes, rng=rng)
        with pytest.raises(HandshakeError, match="identity"):
            resp.consume_message1(init.message1())

    def test_tampered_signature_rejected(self):
        rng = random.Random(4)
        ida, idb = Identity.generate(rng), Identity.generate(rng)
        init = HandshakeInitiator(ida, idb.public_bytes, rng=rng)
        m1 = bytearray(init.message1())
        m1[-1] ^= 0x01
        with pytest.raises(HandshakeError, match="signature"):
            HandshakeResponder(idb, ida.public_bytes, rng=rng).consume_message1(bytes(m1))

    def test_swapped_ephemeral_rejected(self):
        # An attacker substituting the ephemeral key breaks the signature.
        rng = random.Random(5)
        ida, idb = Identity.generate(rng), Identity.generate(rng)
        init = HandshakeInitiator(ida, idb.public_bytes, rng=rng)
        m1 = bytearray(init.message1())
        m1[40] ^= 0xFF  # inside eph_pub
        with pytest.raises(HandshakeError, match="signature"):
            HandshakeResponder(idb, ida.public_bytes, rng=rng).consume_message1(bytes(m1))

    def test_bad_suite_version_type_and_length(self):
        rng = random.Random(6)
        ida, idb = Identity.generate(rng), Identity.generate(rng)
        m1 = HandshakeInitiator(ida, idb.public_bytes, rng=rng).message1()
        resp = lambda: HandshakeResponder(idb, ida.public_bytes, rng=rng)
        with pytest.raises(HandshakeError, match="bytes"):
            resp().consume_message1(m1 + b"x")
        bad_version = m1[:4] + b"\x07" + m1[5:]
        with pytest.raises(HandshakeError, match="version"):
            resp().consume_message1(bad_version)
        bad_type = m1[:5] + b"\x02" + m1[6:]
        with pytest.raises(HandshakeError, match="type"):
            resp().consume_message1(bad_type)
        bad_suite = m1[:6] + b"\x42" + m1[7:]
        with pytest.raises(HandshakeError, match="suite"):
            resp().consume_message1(bad_suite)

    def test_reply_before_init_rejected(self):
        rng = random.Random(7)
        ida, idb = Identity.generate(rng), Identity.generate(rng)
        init = HandshakeInitiator(ida, idb.public_bytes, rng=rng)
        with pytest.raises(HandshakeError):
            init.consume_message2(b"\x00" * HANDSHAKE_LEN)

    def test_identity_from_seed_is_stable(self):
        seed = bytes(range(32))
        assert Identity.from_seed(seed).public_bytes == Identity.from_seed(seed).public_bytes


def cipher_pair():
    _, _, ka, kb, _, _ = run_handshake(rng=random.Random(8))
    return FrameCipher(ka), FrameCipher(kb)


class TestFrameCipher:
    def test_round_trip(self):
        a, b = cipher_pair()
        frame = a.seal(b"hello overlay")
        assert frame[:8] == a.channel_id
        assert len(frame) == FRAME_HEADER_LEN + 13 + FRAME_TAG_LEN
        assert b.open(frame) == b"hello overlay"

    def test_counters_increase(self):
        a, b = cipher_pair()
        f1, f2 = a.seal(b"one"), a.seal(b"two")
        assert int.from_bytes(f1[8:16], "big") == 1
        assert int.from_bytes(f2[8:16], "big") == 2
        assert b.open(f1) == b"one" and b.open(f2) == b"two"

    def test_ciphertext_hides_plaintext(self):
        a, _ = cipher_pair()
        frame = a.seal(b"plaintext-marker/visible")
        assert b"plaintext-marker" not in frame

    def test_duplicate_frame_rejected_as_replay(self):
        a, b = cipher_pair()
        frame = a.seal(b"x")
        b.open(frame)
        with pytest.raises(ReplayError, match="replay"):
            b.open(frame)

    def test_out_of_order_within_window_accepted(self):
        a, b = cipher_pair()
        frames = [a.seal(bytes([i])) for i in range(5)]
        b.open(frames[4])
        b.open(frames[1])  # counter 2 while highest is 5
        with pytest.raises(ReplayError, match="replay"):
            b.open(frames[1])

    def test_frame_older_than_window_rejected_distinctly(self):
        a, b = cipher_pair()
        first = a.seal(b"first")
        for i in range(80):
            b.open(a.seal(b"x%d" % i))
        with pytest.raises(ReplayError, match="window"):
            b.open(first)

    def test_tampered_frame_rejected_without_window_damage(self):
        a, b = cipher_pair()
        b.open(a.seal(b"one"))
        good = a.seal(b"two")
        bad = bytearray(good)
        bad[-1] ^= 0x01
        with pytest.raises(ProtocolError, match="authentication"):
            b.open(bytes(bad))
        assert b.open(good) == b"two"  # the failed forgery must not burn counter 2

    def test_forged_future_counter_does_not_advance_window(self):
        a, b = cipher_pair()
        f1 = a.seal(b"one")
        forged = bytearray(a.seal(b"two"))
        forged[8:16] = (1000).to_bytes(8, "big")
        with pytest.raises(ProtocolError):
            b.open(bytes(forged))
        assert b.open(f1) == b"one"  # highest must still be 0

    def test_wrong_channel_and_short_frames(self):
        a, b = cipher_pair()
        frame = a.seal(b"x")
        with pytest.raises(ProtocolError, match="channel"):
            b.open(b"\x00" * 8 + frame[8:])
        with pytest.raises(ProtocolError, match="short"):
            b.open(frame[:20])

    def test_directions_are_independent(self):
        a, b = cipher_pair()
        assert b.open(a.seal(b"a to b")) == b"a to b"
        assert a.open(b.seal(b"b to a")) == b"b to a"
        # A frame sealed by a cannot be opened by a (different key).
        with pytest.raises(ProtocolError):
            a.open(a.seal(b"loopback"))


# Frames to open, each as (step, forged): its counter is the last one plus
# step, kept in [0, 2^64 - 1], a step of up to 3 windows back or ahead or
# a jump of up to 2^16 or up to 2^63; forged flips a bit of its tag.
FRAME_STEPS = st.lists(st.tuples(
    st.one_of(st.integers(-3 * REPLAY_WINDOW, 3 * REPLAY_WINDOW),
              st.integers(3 * REPLAY_WINDOW, 1 << 16),
              st.integers(1 << 16, 1 << 63)),
    st.booleans()), max_size=150)
MAX_COUNTER = (1 << 64) - 1


class TestReplayWindowModel:
    """FrameCipher.open against the anti-replay rule of RFC 4303 §3.4.3,
    kept as the set of counters accepted so far: a frame is rejected as a
    replay (ReplayError) when its counter is 0, was accepted before or
    lies REPLAY_WINDOW or more below the highest accepted counter; else
    a forged tag is rejected (ProtocolError) without moving the window;
    else it is accepted.  Any order of counters must get the model's
    verdict."""

    @given(steps=FRAME_STEPS)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_verdict_matches_the_model(self, steps):
        a, b = cipher_pair()
        seen, highest, counter = set(), 0, 0
        for step, forged in steps:
            counter = min(max(0, counter + step), MAX_COUNTER)
            a._send_counter = counter - 1  # seal the next frame under this counter
            frame = a.seal(b"%d" % counter)
            if forged:
                frame = frame[:-1] + bytes([frame[-1] ^ 1])
            if counter == 0 or counter in seen or counter <= highest - REPLAY_WINDOW:
                want = ReplayError
            elif forged:
                want = ProtocolError
            else:
                want = None
                seen.add(counter)
                highest = max(highest, counter)
            try:
                b.open(frame)
                got = None
            except (ReplayError, ProtocolError) as e:
                got = type(e)
            assert got is want, (counter, forged, highest)

    def test_the_last_counter_opens_at_once(self):
        # The window shift stops at REPLAY_WINDOW: a jump to the last counter
        # costs what a jump of one window does, and leaves only itself seen.
        a, b = cipher_pair()
        b.open(a.seal(b"first"))
        a._send_counter = MAX_COUNTER - 1
        assert b.open(a.seal(b"last")) == b"last"
        assert (b._highest, b._window) == (MAX_COUNTER, 1)

    def test_each_edge_of_the_window(self):
        a, b = cipher_pair()
        frames = {}
        for counter in range(1, 2 * REPLAY_WINDOW + 1):
            frames[counter] = a.seal(b"x")
        b.open(frames[2 * REPLAY_WINDOW])
        b.open(frames[REPLAY_WINDOW + 1])  # the oldest counter inside the window
        with pytest.raises(ReplayError, match="window"):
            b.open(frames[REPLAY_WINDOW])  # one below it
        with pytest.raises(ReplayError, match="replay"):
            b.open(frames[REPLAY_WINDOW + 1])


class TestPlainFraming:
    def test_round_trip(self):
        framed = frame_plain(b"hello")
        assert framed == b"\x00\x05hello"
        assert split_plain(framed) == b"hello"

    def test_empty_payload(self):
        assert split_plain(frame_plain(b"")) == b""

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            split_plain(b"\x00\x05hi")
        with pytest.raises(ProtocolError):
            split_plain(b"\x00")

    def test_oversize_rejected(self):
        with pytest.raises(ProtocolError):
            frame_plain(b"x" * 65536)
