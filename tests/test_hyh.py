import dataclasses
import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyhlab import curve as cv
from hyhlab import fixtures, hyh, paramcheck
from hyhlab.hyh import PAPER, STRICT, SchemeConfig, SigncryptedText
from hyhlab.numtheory import mod_inverse

from conftest import COMPOSITE_N, N_EQ_Q, TOY16


@pytest.fixture(scope="module")
def keys16(paper16):
    rng = random.Random(99)
    alice = hyh.keypair_from_secret(paper16, rng.randrange(1, paper16.params.n))
    bob = hyh.keypair_from_secret(paper16, rng.randrange(1, paper16.params.n))
    return alice, bob


class TestConfig:
    def test_rejects_unknown_mode(self, toy16):
        with pytest.raises(ValueError):
            SchemeConfig(params=toy16, mode="lenient")

    def test_widths(self, paper16):
        assert paper16.scalar_width == 2   # n = 16381 < 2^16
        assert paper16.field_width == 2


class TestGen:
    def test_forced_unit_secret_gives_base_point(self, paper16):
        kp = hyh.keypair_from_secret(paper16, 1)
        assert kp.U == paper16.params.G

    def test_seeds_diverge(self, paper16):
        d1 = hyh.gen(paper16, rng_seed=1).d
        d2 = hyh.gen(paper16, rng_seed=2).d
        assert d1 != d2

    def test_strict_requires_valid_params(self):
        bad = fixtures.load(COMPOSITE_N)
        config = SchemeConfig(params=bad, mode=STRICT)
        with pytest.raises(hyh.Refused, match="domain parameters failed: "):
            hyh.gen(config, rng_seed=1)

    def test_secret_must_be_in_range(self, paper16):
        with pytest.raises(ValueError):
            hyh.keypair_from_secret(paper16, 0)
        with pytest.raises(ValueError):
            hyh.keypair_from_secret(paper16, paper16.params.n)


class TestHashToScalar:
    def test_range_and_determinism(self, paper16):
        n = paper16.params.n
        for m in (b"", b"a", b"xyz" * 100):
            v = hyh.hash_to_scalar(paper16, m)
            assert 0 <= v < n
            assert v == hyh.hash_to_scalar(paper16, m)

    def test_empty_message_mod_seven(self, f23_n7):
        config = SchemeConfig(params=f23_n7, mode=PAPER)
        expected = int(hashlib.sha256(b"").hexdigest(), 16) % 7
        assert expected == 1
        assert hyh.hash_to_scalar(config, b"") == 1


class TestKeystream:
    def test_zero_key_is_zero_stream(self, paper16):
        assert hyh.keystream(paper16, 0, 10) == bytes(10)

    def test_exact_width_is_the_encoding(self, paper16):
        x = 0x1234
        assert hyh.keystream(paper16, x, 2) == b"\x12\x34"

    def test_prefix_property(self, paper16):
        x = 40001
        long = hyh.keystream(paper16, x, 100)
        for lng in (1, 2, 3, 50, 99):
            assert hyh.keystream(paper16, x, lng) == long[:lng]

    def test_rejects_empty(self, paper16):
        with pytest.raises(ValueError):
            hyh.keystream(paper16, 1, 0)


# lengths around multiples of 64 KiB, where an integer-chunk XOR would split
_CHUNK = 1 << 16
_XOR_LENGTHS = st.one_of(
    st.integers(0, 64),
    st.sampled_from([m * _CHUNK + d for m in (1, 2) for d in (-1, 0, 1)]),
    st.integers(0, 3 * _CHUNK),
)


@settings(max_examples=40, deadline=None)
@given(len_a=_XOR_LENGTHS, len_b=_XOR_LENGTHS, seed=st.integers(0, 2**32))
@example(len_a=0, len_b=0, seed=0)
@example(len_a=0, len_b=5, seed=0)
@example(len_a=_CHUNK + 1, len_b=_CHUNK - 1, seed=1)
@example(len_a=2 * _CHUNK + 1, len_b=2 * _CHUNK, seed=2)
def test_xor_bytes_matches_bytewise_reference(len_a, len_b, seed):
    rng = random.Random(seed)
    a, b = rng.randbytes(len_a), rng.randbytes(len_b)
    assert hyh.xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))


_BYTE_PATH_FIXTURES = [fixtures.F23_N7, TOY16, fixtures.SECP160R1]


def _edge_lengths(width):
    """Lengths at and around the block, the keystream chunk (whole blocks)
    and 64 KiB, up to 3*_CHUNK + 1."""
    step = _CHUNK // width * width
    around = [1, width - 1, width, width + 1, 2 * width + 1]
    for m in (1, 2, 3):
        around += [m * step - 1, m * step, m * step + 1, m * _CHUNK - 1, m * _CHUNK]
    return sorted({n for n in around if 1 <= n <= 3 * _CHUNK + 1} | {3 * _CHUNK + 1})


class TestXorKeystream:
    """xor_keystream against the definition, xor_bytes over keystream, on a
    1-byte field (f23_n7), a 2-byte one (toy16) and a 20-byte one
    (secp160r1)."""

    @pytest.mark.parametrize("name", _BYTE_PATH_FIXTURES)
    def test_edges(self, name):
        config = SchemeConfig(params=fixtures.load(name))
        for x_k in (0, config.params.q - 1):
            for length in _edge_lengths(config.field_width):
                data = random.Random(length).randbytes(length)
                expected = hyh.xor_bytes(data, hyh.keystream(config, x_k, length))
                assert hyh.xor_keystream(config, x_k, data) == expected, length

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), name=st.sampled_from(_BYTE_PATH_FIXTURES))
    def test_random(self, data, name):
        config = SchemeConfig(params=fixtures.load(name))
        q = config.params.q
        x_k = data.draw(st.one_of(st.sampled_from([0, q - 1]), st.integers(0, q - 1)))
        length = data.draw(st.one_of(st.integers(1, 64),
                                     st.integers(1, 3 * _CHUNK + 1)))
        message = random.Random(data.draw(st.integers(0, 2**32))).randbytes(length)
        assert (hyh.xor_keystream(config, x_k, message)
                == hyh.xor_bytes(message, hyh.keystream(config, x_k, length)))

    def test_rejects_empty_like_keystream(self, paper16):
        with pytest.raises(ValueError):
            hyh.xor_keystream(paper16, 1, b"")

    @pytest.mark.parametrize("name", _BYTE_PATH_FIXTURES)
    def test_zero_key_bytes_skip_their_lanes(self, name):
        # x_K = 1 and 256^(w-1) leave every lane but one alone; the third
        # value is q - 1 with its middle byte zeroed
        config = SchemeConfig(params=fixtures.load(name))
        w, q = config.field_width, config.params.q
        middle = (q - 1) & ~(0xFF << 8 * (w // 2))
        for x_k in (1, 256 ** (w - 1), middle):
            key = hyh.encode_field(config, x_k)
            assert w == 1 or 0 in key and any(key), key.hex()
            for length in _edge_lengths(w):
                data = random.Random(length).randbytes(length)
                out = hyh.xor_keystream(config, x_k, data)
                expected = hyh.xor_bytes(data, hyh.keystream(config, x_k, length))
                assert type(out) is bytes and out == expected, length


def test_xor_table_is_xor_with_its_byte():
    for k in range(256):
        table = hyh._xor_table(k)
        assert [table[b] for b in range(256)] == [b ^ k for b in range(256)], k


class TestMessageHash:
    """One hash state over M gives what hash_to_scalar and message_tag
    give, each of which reads M again."""

    @pytest.mark.parametrize("name", _BYTE_PATH_FIXTURES)
    def test_matches_the_definitions(self, name):
        config = SchemeConfig(params=fixtures.load(name))
        n, w = config.params.n, config.scalar_width
        for m in (b"", b"m", bytes(range(256)) * 40):
            e, state = hyh._hash_message(config, m)
            assert e == hyh.hash_to_scalar(config, m)
            # each tag copies the state, so one state serves every s
            for s in (0, 1, n - 1, n, 256 ** w - 1, 256 ** w, 256 ** w + 5):
                assert hyh._tag(config, state, s) == hyh.message_tag(config, m, s)
            assert hyh._hash_message(config, m)[1].digest() == state.digest()

    def test_unencodable_s_has_no_tag_and_is_rejected(self, paper16, keys16):
        alice, bob = keys16
        m = b"s out of range"
        _, state = hyh._hash_message(paper16, m)
        wide = 256 ** paper16.scalar_width
        assert hyh._tag(paper16, state, wide) is None
        sct = hyh.signcrypt(paper16, alice.d, bob.U, m, rng_seed=4)
        trace = hyh.unsigncrypt_trace(paper16, bob.d, alice.U,
                                      dataclasses.replace(sct, s=wide + sct.s))
        assert (trace.rejected_at, trace.tag_ok, trace.message) == ("tag", False, None)


class TestBytePath:
    """A round trip reads M as few times as the scheme allows and still
    gives the triple of the definitions."""

    @pytest.mark.parametrize("mode", [PAPER, STRICT])
    def test_mebibyte_matches_the_reference(self, reference_signcrypt, mode):
        config = SchemeConfig(params=fixtures.load(fixtures.SECP160R1), mode=mode)
        alice = hyh.keypair_from_secret(config, 1234567)
        bob = hyh.keypair_from_secret(config, 7654321)
        m = random.Random(8).randbytes(1 << 20)
        r = 0x1F2E3D4C5B6A79881726354453627180
        sct = hyh.signcrypt(config, alice.d, bob.U, m, forced_r=r)
        assert sct == reference_signcrypt(config, alice.d, bob.U, m, r)
        assert hyh.unsigncrypt(config, bob.d, alice.U, sct) == m

    @pytest.mark.parametrize("mode", [PAPER, STRICT])
    def test_each_side_hashes_the_message_once(self, monkeypatch, paper16,
                                               keys16, mode):
        config = dataclasses.replace(paper16, mode=mode)
        alice, bob = keys16
        fed = []
        real_sha256 = hashlib.sha256

        class Counting:
            def __init__(self, state):
                self.state = state

            def update(self, data):
                fed.append(len(data))
                self.state.update(data)

            def copy(self):
                return Counting(self.state.copy())

            def digest(self):
                return self.state.digest()

        def sha256(data=b""):
            fed.append(len(data))
            return Counting(real_sha256(data))

        monkeypatch.setattr(hyh.hashlib, "sha256", sha256)
        size = 100_000
        m = bytes(size)
        sct = hyh.signcrypt(config, alice.d, bob.U, m, rng_seed=6)
        assert hyh.unsigncrypt(config, bob.d, alice.U, sct) == m
        assert 2 * size <= sum(fed) <= 2 * size + 256


class TestSigncrypt:
    def test_round_trip(self, paper16, keys16):
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"hello bob", rng_seed=1)
        assert hyh.unsigncrypt(paper16, bob.d, alice.U, sct) == b"hello bob"

    def test_ciphertext_length(self, paper16, keys16):
        alice, bob = keys16
        for size in (1, 31, 32, 33, 100):
            sct = hyh.signcrypt(paper16, alice.d, bob.U, bytes(size), rng_seed=size)
            assert len(sct.C) == size + 32

    def test_deterministic_given_r(self, paper16, keys16):
        alice, bob = keys16
        a = hyh.signcrypt(paper16, alice.d, bob.U, b"fixed", forced_r=1234)
        b = hyh.signcrypt(paper16, alice.d, bob.U, b"fixed", forced_r=1234)
        assert a == b

    def test_rejects_empty_message(self, paper16, keys16):
        alice, bob = keys16
        with pytest.raises(ValueError):
            hyh.signcrypt(paper16, alice.d, bob.U, b"", rng_seed=1)

    @pytest.mark.parametrize("mode", [PAPER, STRICT])
    def test_rejects_sender_secret_out_of_range(self, toy16, keys16, mode):
        _, bob = keys16
        config = SchemeConfig(params=toy16, mode=mode)
        for d_a in (0, toy16.n, -1):
            with pytest.raises(ValueError, match="sender secret out of range"):
                hyh.signcrypt(config, d_a, bob.U, b"x", rng_seed=1)

    def test_paper_mode_accepts_off_curve_recipient(self, paper16, keys16):
        alice, _ = keys16
        off = (5, 6)
        assert not cv.is_on_curve(paper16.params, off)
        sct = hyh.signcrypt(paper16, alice.d, off, b"routed badly", rng_seed=3)
        assert len(sct.C) == len(b"routed badly") + 32

    def test_strict_mode_rejects_off_curve_recipient(self, strict16, keys16):
        alice, _ = keys16
        with pytest.raises(hyh.Refused, match="recipient key failed validation"):
            hyh.signcrypt(strict16, alice.d, (5, 6), b"x", rng_seed=3)

    def test_strict_mode_rejects_identity_recipient(self, strict16, keys16):
        alice, _ = keys16
        with pytest.raises(hyh.Refused, match="recipient key failed validation"):
            hyh.signcrypt(strict16, alice.d, None, b"x", rng_seed=3)

    def test_degenerate_recipient_exhausts_rng(self, paper16, keys16):
        # paper mode computes with U_B = O; every K is O, so sampling never
        # terminates and the resample cap fires
        alice, _ = keys16
        with pytest.raises(ValueError, match="no usable ephemeral scalar"):
            hyh.signcrypt(paper16, alice.d, None, b"x", rng_seed=3)

    def test_large_message_round_trip(self, paper16, keys16):
        alice, bob = keys16
        message = bytes(range(256)) * 16  # 4096 bytes
        sct = hyh.signcrypt(paper16, alice.d, bob.U, message, rng_seed=2)
        assert len(sct.C) == 4096 + 32
        assert hyh.unsigncrypt(paper16, bob.d, alice.U, sct) == message

    def test_tiny_group_resampling(self, f23_n7):
        # n = 7 forces frequent x_R = 0 mod n and s = 0 resamples
        config = SchemeConfig(params=f23_n7, mode=PAPER)
        alice = hyh.keypair_from_secret(config, 3)
        bob = hyh.keypair_from_secret(config, 5)
        for seed in range(10):
            sct = hyh.signcrypt(config, alice.d, bob.U, b"tiny", rng_seed=seed)
            assert hyh.unsigncrypt(config, bob.d, alice.U, sct) == b"tiny"


class TestSigncryptUnderOneR:
    def test_texts_share_r_and_each_is_signcrypt_under_it(self, paper16, keys16):
        alice, bob = keys16
        messages = (b"first", b"second, a longer one", b"3")
        r, texts = hyh.signcrypt_under_one_r(paper16, alice.d, bob.U, messages,
                                             rng_seed=4)
        assert len(texts) == 3 and len({sct.R for sct in texts}) == 1
        for m, sct in zip(messages, texts):
            assert hyh.unsigncrypt(paper16, bob.d, alice.U, sct) == m
            assert sct == hyh.signcrypt(paper16, alice.d, bob.U, m, forced_r=r)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_message_is_signcrypt(self, paper16, keys16, seed):
        alice, bob = keys16
        r, (sct,) = hyh.signcrypt_under_one_r(paper16, alice.d, bob.U, (b"one",),
                                              rng_seed=seed)
        assert sct == hyh.signcrypt(paper16, alice.d, bob.U, b"one", rng_seed=seed)
        assert sct.R == cv.scalar_mul(paper16.params, r, paper16.params.G)

    def test_draws_the_first_r_that_signcrypts_every_message(self, f23_n7):
        # n = 7: "first" signcrypts to s = 0 under r = 2 and 5, "second"
        # under r = 1 and 6. The reference tries each r drawn from the seed
        # on every message, one signcrypt at a time.
        config = SchemeConfig(params=f23_n7, mode=PAPER)
        alice = hyh.keypair_from_secret(config, 3)
        bob = hyh.keypair_from_secret(config, 5)
        messages = (b"first", b"second")
        redrawn = 0
        for seed in range(20):
            rng = random.Random(seed)
            for draws in range(1, 257):
                r = rng.randrange(1, f23_n7.n)
                try:
                    expected = [hyh.signcrypt(config, alice.d, bob.U, m, forced_r=r)
                                for m in messages]
                    break
                except ValueError:
                    continue
            redrawn += draws > 1
            assert hyh.signcrypt_under_one_r(config, alice.d, bob.U, messages,
                                             rng_seed=seed) == (r, expected)
        assert redrawn

    def test_empty_message_is_refused_before_any_draw(self, paper16, keys16):
        alice, bob = keys16
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="message must be non-empty"):
            hyh.signcrypt_under_one_r(paper16, alice.d, bob.U, (b"ok", b""),
                                      rng_seed=rng)
        assert rng.getstate() == state


class TestAlgebraicIdentities:
    def test_session_key_agreement(self, paper16, keys16):
        alice, bob = keys16
        params = paper16.params
        for r in (2, 77, 4099):
            sct = hyh.signcrypt(paper16, alice.d, bob.U, b"m", forced_r=r)
            assert cv.scalar_mul(params, r, bob.U) == \
                cv.scalar_mul(params, bob.d, sct.R)

    def test_signature_recovery_identity(self, paper16, keys16):
        alice, bob = keys16
        n = paper16.params.n
        message = b"the recovery formula is the signing formula read backwards"
        for r in (3, 500, 9001):
            sct = hyh.signcrypt(paper16, alice.d, bob.U, message, forced_r=r)
            x_r = sct.R[0] % n
            h = hyh.hash_to_scalar(paper16, message)
            assert (r * sct.s - h) * mod_inverse(x_r, n) % n == alice.d


class TestUnsigncrypt:
    def test_tag_flip_rejected(self, paper16, keys16):
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"payload", rng_seed=8)
        tampered = SigncryptedText(
            R=sct.R, C=sct.C[:-1] + bytes([sct.C[-1] ^ 1]), s=sct.s)
        assert hyh.unsigncrypt(paper16, bob.d, alice.U, tampered) is None

    def test_message_flip_rejected(self, paper16, keys16):
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"payload", rng_seed=8)
        tampered = SigncryptedText(
            R=sct.R, C=bytes([sct.C[0] ^ 1]) + sct.C[1:], s=sct.s)
        assert hyh.unsigncrypt(paper16, bob.d, alice.U, tampered) is None

    def test_short_ciphertext_rejected(self, paper16, keys16):
        alice, bob = keys16
        assert hyh.unsigncrypt(paper16, bob.d, alice.U,
                               SigncryptedText(R=None, C=b"short", s=1)) is None

    def test_strict_rejects_identity_ephemeral_before_decrypting(
            self, strict16, keys16):
        alice, bob = keys16
        sct = SigncryptedText(R=None, C=bytes(40), s=1)
        trace = hyh.unsigncrypt_trace(strict16, bob.d, alice.U, sct)
        assert trace.message is None and trace.session_key_x is None
        assert trace.rejected_at == "ephemeral_point"

    def test_strict_rejects_off_curve_ephemeral(self, strict16, keys16):
        alice, bob = keys16
        sct = SigncryptedText(R=(5, 6), C=bytes(40), s=1)
        trace = hyh.unsigncrypt_trace(strict16, bob.d, alice.U, sct)
        assert trace.rejected_at == "ephemeral_point"

    def test_strict_rejects_small_order_ephemeral(self, strict16, keys16):
        alice, bob = keys16
        params = strict16.params
        group_order = params.h * params.n
        W = cv.find_point_of_order(params, 2, group_order)
        assert cv.is_on_curve(params, W)
        sct = SigncryptedText(R=W, C=bytes(40), s=1)
        trace = hyh.unsigncrypt_trace(strict16, bob.d, alice.U, sct)
        assert trace.rejected_at == "ephemeral_point"

    @pytest.mark.parametrize("mode", [PAPER, STRICT])
    def test_secret_equal_to_n_gives_identity_shared_point(self, toy16, keys16,
                                                           mode):
        # no range check stops a key file from carrying d_B = n; then
        # K = n*R = O for every honest R
        config = SchemeConfig(params=toy16, mode=mode)
        alice, bob = keys16
        sct = hyh.signcrypt(config, alice.d, bob.U, b"payload", rng_seed=8)
        trace = hyh.unsigncrypt_trace(config, toy16.n, alice.U, sct)
        assert trace.message is None
        if mode == STRICT:
            assert trace.rejected_at == "shared_point_identity"
            assert trace.session_key_x is None
        else:
            assert trace.session_key_x == 0
            assert trace.rejected_at == "tag"

    def test_paper_mode_decrypts_identity_ephemeral(self, paper16, keys16):
        alice, bob = keys16
        body = b"visible through the zero keystream"
        sct = SigncryptedText(R=None, C=body + bytes(32), s=1)
        trace = hyh.unsigncrypt_trace(paper16, bob.d, alice.U, sct)
        assert trace.session_key_x == 0
        assert trace.message_region == body

    @pytest.mark.parametrize("mode", [PAPER, STRICT])
    @pytest.mark.parametrize("s", [-1, 256 ** 2, 16 ** 61 - 1],
                             ids=["negative", "one_past_width", "61_hex_digits"])
    def test_unencodable_s_rejected(self, toy16, keys16, mode, s):
        # toy16 scalars are 2 bytes wide; no tag H(M || s) exists for these
        config = SchemeConfig(params=toy16, mode=mode)
        alice, bob = keys16
        honest = hyh.signcrypt(config, alice.d, bob.U, b"payload", rng_seed=8)
        sct = SigncryptedText(R=honest.R, C=honest.C, s=s)
        trace = hyh.unsigncrypt_trace(config, bob.d, alice.U, sct)
        assert trace.message is None and trace.rejected_at == "tag"
        assert hyh.unsigncrypt(config, bob.d, alice.U, sct) is None
        assert not hyh.public_verify(config, alice.U, b"payload", sct.R, s)


class TestPublicVerify:
    def test_honest_triple_verifies(self, paper16, keys16):
        alice, bob = keys16
        m = b"publicly verifiable"
        sct = hyh.signcrypt(paper16, alice.d, bob.U, m, rng_seed=11)
        assert hyh.public_verify(paper16, alice.U, m, sct.R, sct.s)

    def test_wrong_message_fails(self, paper16, keys16):
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"original", rng_seed=11)
        assert not hyh.public_verify(paper16, alice.U, b"other", sct.R, sct.s)

    def test_shifted_signature_fails(self, paper16, keys16):
        alice, bob = keys16
        m = b"original"
        sct = hyh.signcrypt(paper16, alice.d, bob.U, m, rng_seed=11)
        assert not hyh.public_verify(paper16, alice.U, m, sct.R,
                                     (sct.s + 1) % paper16.params.n)

    @pytest.mark.parametrize("mode, accepted", [(PAPER, True), (STRICT, False)])
    def test_s_plus_n_accepted_only_by_paper(self, good_params, mode, accepted):
        config = SchemeConfig(params=good_params, mode=mode)
        alice = hyh.keypair_from_secret(config, 1234)
        bob = hyh.keypair_from_secret(config, 5678)
        m = b"malleable"
        sct = hyh.signcrypt(config, alice.d, bob.U, m, rng_seed=3)
        assert hyh.public_verify(config, alice.U, m, sct.R, sct.s)
        assert hyh.public_verify(config, alice.U, m, sct.R,
                                 sct.s + good_params.n) is accepted

    @pytest.mark.parametrize("mode, accepted", [(PAPER, True), (STRICT, False)])
    def test_zero_s_accepted_only_by_paper(self, good_params, mode, accepted):
        # R = O and H(M) = 0 mod n make both sides O, whatever s is; strict
        # mode refuses R = O before it reaches the equation
        config = SchemeConfig(params=good_params, mode=mode)
        alice = hyh.keypair_from_secret(config, 1234)
        m = next(m for m in (b"zero-%d" % i for i in range(1 << 20))
                 if hyh.hash_to_scalar(config, m) == 0)
        assert hyh.public_verify(config, alice.U, m, None, 1) is accepted
        assert hyh.public_verify(config, alice.U, m, None, 0) is accepted


    @pytest.mark.parametrize("mode", [PAPER, STRICT])
    def test_unreduced_small_order_ephemeral_rejected(self, good_params, mode):
        # R is the order-3 point W of b' = b + 1 with q added to its x; the
        # affine law compares raw coordinates, so R + 2R once hit a chord
        # with denominator 0 and raised a not-invertible ValueError
        W = (657345, 967893)
        R = (W[0] + good_params.q, W[1])
        config = SchemeConfig(params=good_params, mode=mode)
        alice = hyh.keypair_from_secret(config, 1234)
        bob = hyh.keypair_from_secret(config, 5678)
        assert hyh.public_verify(config, alice.U, b"m", R, 3) is False
        sct = SigncryptedText(R=R, C=bytes(40), s=3)
        assert hyh.unsigncrypt(config, bob.d, alice.U, sct) is None


def _literal_verify(config, u_a, e, R, s):
    """The paper's s*R == e*G + x_R*U_A with every multiple from
    ``scalar_mul``, under ``_verify_equation``'s other rules: an s with no
    fixed-width encoding fails, strict mode refuses an s outside [1, n-1]
    and a U_A that fails ``peer_point_failures``."""
    params = config.params
    n = params.n
    if not 0 <= s < 256 ** config.scalar_width:
        return False
    if config.mode == STRICT and not 1 <= s < n or hyh.peer_point_failures(config, u_a):
        return False
    return cv.scalar_mul(params, s, R) == cv.point_add(
        params, cv.scalar_mul(params, e, params.G),
        cv.scalar_mul(params, hyh.x_coord(R) % n, u_a))


class TestVerifyEquation:
    """``_verify_equation`` checks R == (e/s)*G + (x_R/s)*U_A on a curve of
    prime order that validates (here secp160r1) and the literal s*R == e*G
    + x_R*U_A elsewhere: toy16 and params_good have h != 1, n_eq_q fails
    validation, and toy16 with h = 1 claimed fails it too. Either way it
    must accept exactly what the literal equation accepts."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(),
           name=st.sampled_from([fixtures.SECP160R1, TOY16, fixtures.GOOD,
                                 N_EQ_Q, "toy16_h1"]),
           mode=st.sampled_from([PAPER, STRICT]),
           tampered=st.sampled_from([None, "R", "U_A", "s"]))
    def test_matches_the_literal_equation(self, data, name, mode, tampered):
        if name == "toy16_h1":
            params = dataclasses.replace(fixtures.load(TOY16), h=1)
        else:
            params = fixtures.load(name)
        config = SchemeConfig(params=params, mode=mode)
        n, q = params.n, params.q
        d_a, r = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
        e = data.draw(st.integers(0, n - 1))
        u_a = cv.scalar_mul(params, d_a, params.G)
        R = cv.scalar_mul(params, r, params.G)
        s = mod_inverse(r, n) * (e + R[0] % n * d_a) % n
        if tampered in ("R", "U_A"):
            # of order dividing #E/n: a point of the curve off <G>, or O
            T = cv.scalar_mul(params, n, cv.random_point(params, random.Random(r)))
        if tampered == "R":
            R = data.draw(st.sampled_from(
                [(R[0], (R[1] + 1) % q), (R[0] + q, R[1]), None, (R[0], -R[1] % q),
                 cv.point_add(params, R, T)]))
        elif tampered == "U_A":
            u_a = data.draw(st.sampled_from(
                [(u_a[0], (u_a[1] + 1) % q), None, params.G, cv.point_add(params, u_a, T)]))
        elif tampered == "s":
            top = 256 ** config.scalar_width
            s = data.draw(st.one_of(
                st.sampled_from([0, n, top]),
                st.builds(lambda k: s + k * n, st.integers(1, top // n + 1)),
                st.integers(top, 2 * top)))
        assert hyh._verify_equation(config, u_a, e, R, s) == _literal_verify(
            config, u_a, e, R, s)

    @pytest.mark.parametrize("h", [4, 1])
    def test_point_off_the_group_keeps_the_paper_equation(self, toy16, toy16_order_2, h):
        # R = r*G + T, T of order 2, passes validate_public_key but lies
        # off <G>. With s even, s*R = s*r*G, so the paper's equation holds
        # where R == (e/s)*G + (x_R/s)*U_A does not. toy16 with h = 1
        # claimed fails validation, so the claim must not switch the form
        params = dataclasses.replace(toy16, h=h)
        config = SchemeConfig(params=params)
        n, d_a, r, e = params.n, 1234, 4321, 77
        u_a = cv.scalar_mul(params, d_a, params.G)
        R = cv.point_add(params, cv.scalar_mul(params, r, params.G), toy16_order_2[0])
        assert not cv.validate_public_key(params, R)
        s = mod_inverse(r, n) * (e + R[0] % n * d_a) % n
        s += n * (s % 2)
        assert _literal_verify(config, u_a, e, R, s)
        assert hyh._verify_equation(config, u_a, e, R, s)

    @pytest.mark.parametrize("case", ["s_zero", "s_n", "unreduced_R", "order_2_U_A"])
    def test_paper_accepts_off_the_prime_order_form(self, case):
        # secp160r1 takes the <G> form only for a valid R and U_A and an s
        # prime to n. Each case fails one of those and passes the paper's
        # equation, which the <G> form would not compute or would reject
        params = fixtures.load(fixtures.SECP160R1)
        config = SchemeConfig(params=params)
        n, q, G = params.n, params.q, params.G
        d_a, r, e = 1234, 4321, 77
        R = cv.scalar_mul(params, r, G)
        u_a = cv.scalar_mul(params, d_a, G)
        if case in ("s_zero", "s_n"):
            # Q = e*G + x_R*U_A = O = n*R
            e = -R[0] * d_a % n
            s = 0 if case == "s_zero" else n
        elif case == "unreduced_R":
            R = (R[0] + q, R[1])
            s = mod_inverse(r, n) * (e + R[0] % n * d_a) % n
        else:
            # (x, 0) has order 2 on its own curve, so with x_R even x_R*U_A
            # = O and s = e/r; with x_R/s odd, (x_R/s)*U_A is not O
            u_a = (G[0], 0)
            for r in range(1, 64):
                R = cv.scalar_mul(params, r, G)
                s = mod_inverse(r, n) * e % n
                if R[0] % n % 2 == 0 and R[0] % n * mod_inverse(s, n) % n % 2:
                    break
            else:
                raise AssertionError("no such r")
        assert _literal_verify(config, u_a, e, R, s)
        assert hyh._verify_equation(config, u_a, e, R, s)


class TestUnreducedKey:
    """U = (W.x + q, W.y), W the order-3 point of b' = b + 1 on params_good.
    A comb table built from U itself with the affine law, which compares
    raw coordinates, once hit a chord with denominator 0."""

    W = (657345, 967893)

    def test_public_verify_rejects_it_as_sender_key(self, good_params):
        config = SchemeConfig(params=good_params)
        U = (self.W[0] + good_params.q, self.W[1])
        alice = hyh.keypair_from_secret(config, 1234)
        bob = hyh.keypair_from_secret(config, 5678)
        sct = hyh.signcrypt(config, alice.d, bob.U, b"m", rng_seed=3)
        assert hyh.public_verify(config, U, b"m", sct.R, sct.s) is False

    def test_signcrypt_to_it_as_recipient_key(self, good_params):
        config = SchemeConfig(params=good_params)
        U = (self.W[0] + good_params.q, self.W[1])
        sct = hyh.signcrypt(config, 1234, U, b"to an unreduced key", rng_seed=7)
        # recorded with scalar_mul in place of the comb
        assert hyh.sct_to_dict(sct) == {
            "Rx": "a6d69", "Ry": "3efef", "s": "285",
            "C": "7e68e16b69e17f69b36f63b46962a52a6ca473b906938f9556efd2bc"
                 "6255b06110cd6f4edd7dd4bf7bc717b97fdc677f9d7e52",
        }


class TestOrderCheck:
    """Strict mode skips n*P only for h = 1 params that validate."""

    @pytest.mark.parametrize("mode, name", [
        (PAPER, fixtures.SECP160R1), (STRICT, fixtures.SECP160R1),
        (STRICT, TOY16)])
    def test_scalar_mul_calls_per_round_trip(self, monkeypatch, mode, name):
        # G and the keys go through the comb: r*G and r*U_B in signcrypt.
        # A point used once goes to scalar_mul: d_B*R in unsigncrypt, and
        # n*P for the order checks that only toy16 (h = 4) still makes, of
        # U_B, R and U_A. secp160r1 then verifies R == (e/s)*G + (x_R/s)*U_A
        # from the comb; toy16 checks s*R == e*G + x_R*U_A
        params = fixtures.load(name)
        assert paramcheck.validate_domain_params(params).overall
        config = SchemeConfig(params=params, mode=mode)
        alice = hyh.keypair_from_secret(config, 1234)
        bob = hyh.keypair_from_secret(config, 5678)
        calls = []

        def counting(path, real):
            def mul(params_, k, P):
                calls.append((path, k, P))
                return real(params_, k, P)
            return mul

        monkeypatch.setattr(hyh, "fixed_base_mul", counting("comb", hyh.fixed_base_mul))
        monkeypatch.setattr(hyh, "scalar_mul", counting("once", hyh.scalar_mul))

        def order_check(P):
            return [("once", params.n, P)] if params.h != 1 else []

        r = 4321
        sct = hyh.signcrypt(config, alice.d, bob.U, b"counted", forced_r=r)
        assert calls == order_check(bob.U) + [("comb", r, params.G), ("comb", r, bob.U)]
        calls.clear()
        assert hyh.unsigncrypt(config, bob.d, alice.U, sct) == b"counted"
        e = hyh.hash_to_scalar(config, b"counted")
        n, x_r = params.n, sct.R[0] % params.n
        if params.h == 1:
            w = mod_inverse(sct.s, n)
            verify = [("comb", e * w % n, params.G), ("comb", x_r * w % n, alice.U)]
        else:
            verify = [("once", sct.s, sct.R), ("comb", e, params.G), ("comb", x_r, alice.U)]
        assert calls == (order_check(sct.R) + [("once", bob.d, sct.R)]
                         + order_check(alice.U) + verify)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_false_h1_claim_keeps_the_check(self, toy16, toy16_order_2, index):
        # toy16 has h = 4; with h = 1 claimed the params fail validation, so
        # each of its three points of order 2 must still be refused
        lying = dataclasses.replace(toy16, h=1)
        assert not paramcheck.validate_domain_params(lying).overall
        config = SchemeConfig(params=lying, mode=STRICT)
        assert len(toy16_order_2) == 3
        W = toy16_order_2[index]
        assert cv.is_on_curve(lying, W)
        bob = hyh.keypair_from_secret(config, 5678)
        sct = SigncryptedText(R=W, C=bytes(40), s=1)
        trace = hyh.unsigncrypt_trace(config, bob.d, bob.U, sct)
        assert trace.rejected_at == "ephemeral_point"
        with pytest.raises(hyh.Refused, match="recipient key failed validation"):
            hyh.signcrypt(config, 1234, W, b"m", rng_seed=2)


class TestCombTables:
    """The comb tables a round trip needs: a key's table is built by its
    first message, a message's R gets none, as ``scalar_mul`` multiplies
    it, and the tables of G and of the keys stay cached however many peer
    keys and ephemerals come and go."""

    def test_key_tables_built_on_first_use(self, good_params):
        config = SchemeConfig(params=good_params)
        cv._comb_table.cache_clear()
        alice = hyh.keypair_from_secret(config, 1234)
        bob = hyh.keypair_from_secret(config, 5678)
        assert cv._comb_table.cache_info().misses == 1   # G
        for seed in (1, 2):
            sct = hyh.signcrypt(config, alice.d, bob.U, b"m", rng_seed=seed)
            assert hyh.unsigncrypt(config, bob.d, alice.U, sct) == b"m"
            # the first message builds U_B's and U_A's tables; params_good
            # (h = 96) multiplies R by scalar_mul, for d_B*R and s*R alike
            info = cv._comb_table.cache_info()
            assert (info.misses, info.currsize) == (3, 3)

    def test_peer_keys_do_not_evict_g(self, good_params):
        # every message multiplies G, so the LRU cache drops older peer
        # keys first: 40 peers through 16 entries build 40 tables, not more
        config = SchemeConfig(params=good_params)
        cv._comb_table.cache_clear()
        alice = hyh.keypair_from_secret(config, 1234)
        for d in range(2, 42):
            U = cv.scalar_mul(good_params, d, good_params.G)
            hyh.signcrypt(config, alice.d, U, b"m", rng_seed=d)
        assert cv._comb_table.cache_info().misses == 1 + 40

    @pytest.mark.parametrize("mode", [PAPER, STRICT])
    def test_fresh_ephemerals_do_not_evict_keys(self, good_params, mode):
        # every round trip multiplies G, U_A and U_B from their tables and
        # R by scalar_mul (n*R in strict mode too), so 40 fresh R's build
        # no table and the keys' are never rebuilt
        config = SchemeConfig(params=good_params, mode=mode)
        cv._comb_table.cache_clear()
        alice = hyh.keypair_from_secret(config, 1234)
        bob = hyh.keypair_from_secret(config, 5678)
        ephemerals = set()
        for seed in range(40):
            sct = hyh.signcrypt(config, alice.d, bob.U, b"m", rng_seed=seed)
            assert hyh.unsigncrypt(config, bob.d, alice.U, sct) == b"m"
            ephemerals.add(sct.R)
        assert len(ephemerals) == 40
        info = cv._comb_table.cache_info()
        assert (info.misses, info.currsize) == (3, 3)
        # the three entries are G's, U_A's and U_B's, each of min(9, d)
        # blocks: reading them back builds nothing
        v = min(cv._COMB_BLOCKS, cv._comb_row_bits(good_params))
        for P in (good_params.G, alice.U, bob.U):
            assert len(cv._comb_table(good_params, P)) == v
        assert cv._comb_table.cache_info().misses == 3

    def test_multiplication_of_g_makes_three_doublings(self, monkeypatch):
        # at secp160r1 (d = 27, nine blocks of e = 3 bits) G's first
        # multiplication builds its table, 53 powers of e doublings each,
        # and then makes 3 doublings, as does every later one
        params = fixtures.load(fixtures.SECP160R1)
        config = SchemeConfig(params=params)
        cv._comb_table.cache_clear()
        double = cv._jacobian_double
        calls = []

        def counted(*args):
            calls.append(args)
            return double(*args)

        monkeypatch.setattr(cv, "_jacobian_double", counted)

        def doublings(d):
            calls.clear()
            hyh.keypair_from_secret(config, d)
            return len(calls)

        rng = random.Random(3)
        scalars = [rng.randrange(1, params.n) for _ in range(8)]
        assert doublings(scalars[0]) == (6 * 9 - 1) * 3 + 3
        assert len(cv._comb_table(params, params.G)) == cv._COMB_BLOCKS
        assert [doublings(d) for d in scalars[1:]] == [3] * 7

    def test_replayed_ephemerals_take_no_table(self, good_params):
        # 16 messages replayed, so each R is multiplied again and again
        # (d_B*R, and s*R where the literal equation runs). Every such
        # multiplication goes to scalar_mul, so no R takes a cache entry,
        # however often it comes round
        config = SchemeConfig(params=good_params)
        cv._comb_table.cache_clear()
        alice = hyh.keypair_from_secret(config, 1234)
        bob = hyh.keypair_from_secret(config, 5678)
        for _ in range(4):
            for seed in range(16):
                sct = hyh.signcrypt(config, alice.d, bob.U, b"m", rng_seed=seed)
                assert hyh.unsigncrypt(config, bob.d, alice.U, sct) == b"m"
        info = cv._comb_table.cache_info()
        assert (info.misses, info.currsize) == (3, 3)


class TestSenderKeyCheck:
    """Strict mode refuses a sender key U_A that is not a valid point of
    order n; paper mode verifies against whatever U_A it is handed. Each
    U_A has order 1 or 2 on its own curve, so a triple made without any
    secret passes the paper's equation."""

    @pytest.mark.parametrize("case", ["identity", "off_curve", "order_2"])
    @pytest.mark.parametrize("mode", [PAPER, STRICT])
    def test_refused_only_by_strict(self, small_order_sender_keys,
                                    keyless_forgery, mode, case):
        params, u_a, order = small_order_sender_keys[case]
        config = SchemeConfig(params=params, mode=mode)
        bob = hyh.keypair_from_secret(config, 5678)
        m = b"signed by nobody"
        sct = keyless_forgery(config, u_a, order, bob.U, m)
        trace = hyh.unsigncrypt_trace(config, bob.d, u_a, sct)
        assert trace.tag_ok
        if mode == PAPER:
            assert hyh.public_verify(config, u_a, m, sct.R, sct.s)
            assert trace.message == m
        else:
            assert not hyh.public_verify(config, u_a, m, sct.R, sct.s)
            assert trace.rejected_at == "signature"
            assert hyh.unsigncrypt(config, bob.d, u_a, sct) is None


class TestHostileEphemeral:
    """Paper-mode unsigncryption of an R that no honest sender makes: the
    session key and the verdict are those of scalar_mul, whatever path the
    library takes. Each C is encrypted under the key scalar_mul gives, so
    a wrong session key would show as a failed tag."""

    @pytest.mark.parametrize("case", ["off_curve", "order_3", "unreduced",
                                      "identity"])
    def test_matches_scalar_mul(self, good_params, case):
        params = good_params
        W = (657345, 967893)   # order 3 on b' = b + 1
        R = {"off_curve": (123456, 654321), "order_3": W,
             "unreduced": (W[0] + params.q, W[1]), "identity": None}[case]
        config = SchemeConfig(params=params)
        alice = hyh.keypair_from_secret(config, 1234)
        bob = hyh.keypair_from_secret(config, 5678)
        m = b"hostile"
        h = hyh.hash_to_scalar(config, m)
        x_k = hyh.x_coord(cv.scalar_mul(params, bob.d, R))
        for s in (3, params.n - 1, 256 ** config.scalar_width - 1):
            plain = m + hyh.message_tag(config, m, s)
            C = hyh.xor_bytes(plain, hyh.keystream(config, x_k, len(plain)))
            signature_ok = cv.scalar_mul(params, s, R) == cv.point_add(
                params, cv.scalar_mul(params, h, params.G),
                cv.scalar_mul(params, hyh.x_coord(R) % params.n, alice.U))
            trace = hyh.unsigncrypt_trace(config, bob.d, alice.U,
                                          SigncryptedText(R=R, C=C, s=s))
            assert trace.session_key_x == x_k and trace.tag_ok
            assert (trace.message == m) is signature_ok
            assert trace.rejected_at == (None if signature_ok else "signature")


class TestWireFormat:
    def test_round_trip(self, paper16, keys16):
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"serialize me", rng_seed=13)
        obj = hyh.sct_to_dict(sct)
        assert set(obj) == {"Rx", "Ry", "C", "s"}
        assert hyh.sct_from_dict(obj) == sct

    def test_identity_point_encoding(self):
        sct = SigncryptedText(R=None, C=bytes(33), s=5)
        obj = hyh.sct_to_dict(sct)
        assert obj["Ry"] == "inf"
        assert hyh.sct_from_dict(obj).R is None


@settings(max_examples=50, deadline=None)
@given(data=st.data(), message=st.binary(min_size=1, max_size=512))
def test_round_trip_property(data, message):
    params = fixtures.load(TOY16)
    mode = data.draw(st.sampled_from([PAPER, STRICT]))
    config = SchemeConfig(params=params, mode=mode)
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    rng = random.Random(seed)
    alice = hyh.keypair_from_secret(config, rng.randrange(1, params.n))
    bob = hyh.keypair_from_secret(config, rng.randrange(1, params.n))
    sct = hyh.signcrypt(config, alice.d, bob.U, message, rng_seed=rng)
    assert hyh.unsigncrypt(config, bob.d, alice.U, sct) == message
