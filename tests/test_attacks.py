import random

import pytest

from hyhlab import attacks, cli, curve as cv, fixtures, hyh
from hyhlab.hyh import PAPER, STRICT, SchemeConfig, SigncryptedText

from conftest import COMPOSITE_N, TOY16


@pytest.fixture(scope="module")
def keys16(paper16):
    rng = random.Random(42)
    alice = hyh.keypair_from_secret(paper16, rng.randrange(1, paper16.params.n))
    bob = hyh.keypair_from_secret(paper16, rng.randrange(1, paper16.params.n))
    return alice, bob


@pytest.fixture(scope="module")
def composite_n_text():
    """On params_composite_n, n = 2*10909, so an even x_R or s has no
    inverse mod n. Returns text(even), which gives (config, alice, bob,
    message, r, sct) for the first r from 1 up whose triple makes
    even(x_R mod n, s) true; Alice's secret is odd, so s is even for some
    r."""
    config = SchemeConfig(params=fixtures.load(COMPOSITE_N))
    n = config.params.n
    alice = hyh.keypair_from_secret(config, 1235)
    bob = hyh.keypair_from_secret(config, 5678)
    message = b"sent under a composite n"

    def text(even):
        for r in range(1, n):
            try:
                sct = hyh.signcrypt(config, alice.d, bob.U, message, forced_r=r)
            except ValueError:  # degenerate r
                continue
            if even(hyh.x_coord(sct.R) % n, sct.s):
                return config, alice, bob, message, r, sct
    return text


class TestRecoverSenderKey:
    def test_many_honest_instances(self, paper16):
        rng = random.Random(7)
        n = paper16.params.n
        for _ in range(20):
            alice = hyh.keypair_from_secret(paper16, rng.randrange(1, n))
            bob = hyh.keypair_from_secret(paper16, rng.randrange(1, n))
            message = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
            r = rng.randrange(1, n)
            sct = hyh.signcrypt(paper16, alice.d, bob.U, message, forced_r=r)
            report = attacks.recover_sender_key(paper16, alice.U, bob.U, sct, r)
            assert report.success
            assert int(report.recovered_secrets["d_A"], 16) == alice.d
            assert bytes.fromhex(report.recovered_secrets["M"]) == message

    def test_unit_secret(self, paper16, keys16):
        _, bob = keys16
        alice = hyh.keypair_from_secret(paper16, 1)
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"m", forced_r=99)
        report = attacks.recover_sender_key(paper16, alice.U, bob.U, sct, 99)
        assert report.success
        assert int(report.recovered_secrets["d_A"], 16) == 1

    def test_wrong_ephemeral_rejected(self, paper16, keys16):
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"m", forced_r=99)
        with pytest.raises(ValueError, match=r"r\*G does not match the transmitted R"):
            attacks.recover_sender_key(paper16, alice.U, bob.U, sct, 98)

    def test_success_self_verifies(self, paper16, keys16):
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"check", forced_r=1234)
        report = attacks.recover_sender_key(paper16, alice.U, bob.U, sct, 1234)
        d = int(report.recovered_secrets["d_A"], 16)
        assert cv.scalar_mul(paper16.params, d, paper16.params.G) == alice.U

    def test_wrong_sender_key_reported(self, paper16, keys16):
        # the one solution of the congruence does not give the claimed U_A
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"m", forced_r=99)
        report = attacks.recover_sender_key(paper16, bob.U, bob.U, sct, 99)
        assert not report.success and report.recovered_secrets == {}
        assert report.transcript[-1]["event"] == "no_candidate"

    def test_even_x_r_under_composite_n(self, composite_n_text):
        # x_R*d_A = r*s - H(M) mod n has two solutions; the one giving U_A wins
        config, alice, bob, message, r, sct = composite_n_text(
            lambda x_r, s: x_r % 2 == 0)
        report = attacks.recover_sender_key(config, alice.U, bob.U, sct, r)
        assert report.success
        assert int(report.recovered_secrets["d_A"], 16) == alice.d
        assert bytes.fromhex(report.recovered_secrets["M"]) == message

    def test_unsolvable_congruence_reported(self, composite_n_text):
        # with x_R even and r odd, s + 1 makes r*s - H(M) odd: no solution
        config, alice, bob, _, r, sct = composite_n_text(lambda x_r, s: x_r % 2 == 0)
        bumped = SigncryptedText(R=sct.R, C=sct.C, s=sct.s + 1)
        report = attacks.recover_sender_key(config, alice.U, bob.U, bumped, r)
        assert not report.success
        assert report.transcript[-1] == {
            "event": "no_candidate", "x_r": f"{hyh.x_coord(sct.R) % config.params.n:x}"}


class TestNonceReuseRecover:
    def test_identical_messages_cancel(self, paper16, keys16):
        alice, bob = keys16
        m = b"same text both times"
        c1 = hyh.signcrypt(paper16, alice.d, bob.U, m, forced_r=321).C
        c2 = hyh.signcrypt(paper16, alice.d, bob.U, m, forced_r=321).C
        assert bytes(a ^ b for a, b in zip(c1, c2)) == bytes(len(c1))

    def test_recovers_second_message(self, paper16, keys16):
        alice, bob = keys16
        rng = random.Random(5)
        for _ in range(10):
            size = rng.randrange(1, 80)
            m1 = bytes(rng.randrange(256) for _ in range(size))
            m2 = bytes(rng.randrange(256) for _ in range(size))
            r = rng.randrange(1, paper16.params.n)
            sct1 = hyh.signcrypt(paper16, alice.d, bob.U, m1, forced_r=r)
            sct2 = hyh.signcrypt(paper16, alice.d, bob.U, m2, forced_r=r)
            report = attacks.nonce_reuse_recover(paper16, sct1, sct2, m1)
            assert report.success
            assert bytes.fromhex(report.recovered_secrets["M2"]) == m2

    def test_xor_structure(self, paper16, keys16):
        # C1 xor C2 == (M1 xor M2) || (tag1 xor tag2): the keystream cancels
        alice, bob = keys16
        m1, m2 = b"message number one..", b"message number two.."
        sct1 = hyh.signcrypt(paper16, alice.d, bob.U, m1, forced_r=777)
        sct2 = hyh.signcrypt(paper16, alice.d, bob.U, m2, forced_r=777)
        xored = bytes(a ^ b for a, b in zip(sct1.C, sct2.C))
        m_xor = bytes(a ^ b for a, b in zip(m1, m2))
        tag1 = hyh.hash_bytes(paper16, m1 + hyh.encode_scalar(paper16, sct1.s))
        tag2 = hyh.hash_bytes(paper16, m2 + hyh.encode_scalar(paper16, sct2.s))
        tag_xor = bytes(a ^ b for a, b in zip(tag1, tag2))
        assert xored == m_xor + tag_xor
        report = attacks.nonce_reuse_recover(paper16, sct1, sct2, m1)
        assert report.recovered_secrets["tag_xor"] == tag_xor.hex()

    def test_involution(self, paper16, keys16):
        alice, bob = keys16
        m1, m2 = b"forward direction ok", b"backward direction o"
        sct1 = hyh.signcrypt(paper16, alice.d, bob.U, m1, forced_r=555)
        sct2 = hyh.signcrypt(paper16, alice.d, bob.U, m2, forced_r=555)
        report = attacks.nonce_reuse_recover(paper16, sct1, sct2, m1)
        recovered = bytes.fromhex(report.recovered_secrets["M2"])
        back = attacks.nonce_reuse_recover(paper16, sct2, sct1, recovered)
        assert back.success
        assert back.recovered_secrets["M2"] == m1.hex()

    @pytest.mark.parametrize("flip", [None, 0, 19])
    def test_judged_from_public_data(self, paper16, keys16, flip):
        # the tags under the public s values decide: an exact M1 lands, and
        # M1 with one byte flipped recovers an M2 whose tag does not fit
        alice, bob = keys16
        m1, m2 = b"known plaintext, 20B", b"secret plaintext 20B"
        sct1 = hyh.signcrypt(paper16, alice.d, bob.U, m1, forced_r=4321)
        sct2 = hyh.signcrypt(paper16, alice.d, bob.U, m2, forced_r=4321)
        known = bytearray(m1)
        if flip is not None:
            known[flip] ^= 1
        report = attacks.nonce_reuse_recover(paper16, sct1, sct2, bytes(known))
        [event] = report.transcript
        assert event["event"] == "xor_recovery"
        assert report.success is event["tag_matches"] is (flip is None)
        assert (bytes.fromhex(event["recovered"]) == m2) is (flip is None)
        assert bool(report.recovered_secrets) is (flip is None)

    def test_fresh_ephemerals_fail(self, paper16, keys16):
        alice, bob = keys16
        m1, m2 = b"first of two, 18 B.", b"second of two, 18 B"
        sct1 = hyh.signcrypt(paper16, alice.d, bob.U, m1, forced_r=1001)
        sct2 = hyh.signcrypt(paper16, alice.d, bob.U, m2, forced_r=1002)
        report = attacks.nonce_reuse_recover(paper16, sct1, sct2, m1)
        assert not report.success
        assert report.transcript[0]["tag_matches"] is False
        assert report.recovered_secrets == {}


class TestConfirmationOracle:
    def test_honest_session_key_matches(self, paper16, keys16):
        alice, bob = keys16
        r = 1000
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"ping", forced_r=r)
        oracle = attacks.ConfirmationOracle(bob.d, paper16)
        message, z = oracle.query(sct.R)
        assert message == attacks.CONFIRMATION_MESSAGE
        # the legitimate sender derives the same MAC key from r * U_B
        x_k = hyh.x_coord(cv.scalar_mul(paper16.params, r, bob.U))
        assert z == attacks.confirmation_mac(paper16, x_k, message)

    def test_identity_point_keys_mac_with_zero(self, paper16, keys16):
        _, bob = keys16
        oracle = attacks.ConfirmationOracle(bob.d, paper16)
        message, z = oracle.query(None)
        assert z == attacks.confirmation_mac(paper16, 0, message)

    def test_answers_a_65th_query(self, paper16, keys16):
        # the invalid-curve scan sends at most 64 queries; the oracle sets no
        # budget of its own and answers a 65th as it answered the first
        _, bob = keys16
        oracle = attacks.ConfirmationOracle(bob.d, paper16)
        replies = [oracle.query(None) for _ in range(65)]
        assert oracle.queries == 65
        assert replies[64] == replies[0] == (
            attacks.CONFIRMATION_MESSAGE,
            attacks.confirmation_mac(paper16, 0, attacks.CONFIRMATION_MESSAGE))

    def test_strict_oracle_rejects_invalid_points(self, strict16):
        bob = hyh.keypair_from_secret(strict16, 1234)
        oracle = attacks.ConfirmationOracle(bob.d, strict16)
        with pytest.raises(hyh.Refused,
                           match="incoming ephemeral point failed validation"):
            oracle.query((5, 6))

    @pytest.mark.parametrize("kind", ["identity", "off_curve", "order_2"])
    def test_refuses_what_strict_unsigncrypt_refuses(self, f23_n7, kind):
        # params_f23_n7 has 28 points and n = 7, so a point of order 2 lies
        # on the curve yet outside the prime-order subgroup
        W = {
            "identity": None,
            "off_curve": (5, 6),
            "order_2": cv.find_point_of_order(f23_n7, 2, f23_n7.h * f23_n7.n),
        }[kind]
        assert (kind == "order_2") == (W is not None and cv.is_on_curve(f23_n7, W))
        sct = SigncryptedText(R=W, C=bytes(40), s=1)
        for mode in (PAPER, STRICT):
            config = SchemeConfig(params=f23_n7, mode=mode)
            alice = hyh.keypair_from_secret(config, 5)
            bob = hyh.keypair_from_secret(config, 3)
            trace = hyh.unsigncrypt_trace(config, bob.d, alice.U, sct)
            oracle = attacks.ConfirmationOracle(bob.d, config)
            if mode == PAPER:
                assert trace.session_key_x is not None
                oracle.query(W)
            else:
                assert trace.rejected_at == "ephemeral_point"
                with pytest.raises(hyh.Refused,
                                   match="incoming ephemeral point failed validation"):
                    oracle.query(W)


class TestInvalidCurveAttack:
    def test_full_key_recovery(self, paper16, keys16):
        _, bob = keys16
        oracle = attacks.ConfirmationOracle(bob.d, paper16)
        report = attacks.invalid_curve_attack(paper16, bob.U, oracle)
        assert report.success
        assert int(report.recovered_secrets["d_B"], 16) == bob.d

    def test_curves_depend_on_the_params_alone(self, paper16):
        # victims staged from two seeds are sent the same invalid curves
        keys, events = [], []
        for seed in (1, 2):
            bob = hyh.gen(paper16, rng_seed=seed)
            oracle = attacks.ConfirmationOracle(bob.d, paper16)
            report = attacks.invalid_curve_attack(paper16, bob.U, oracle)
            assert int(report.recovered_secrets["d_B"], 16) == bob.d
            keys.append(bob.d)
            events.append(_curves(report))
        assert keys[0] != keys[1] and events[0] == events[1]

    def test_query_count_equals_curve_count(self, paper16, keys16):
        _, bob = keys16
        oracle = attacks.ConfirmationOracle(bob.d, paper16)
        report = attacks.invalid_curve_attack(paper16, bob.U, oracle)
        assert report.oracle_queries == len(_curves(report)) == 3

    def test_residues_and_trial_bounds(self, good_params):
        config = SchemeConfig(params=good_params)
        bob = hyh.keypair_from_secret(config, 5678)
        oracle = attacks.ConfirmationOracle(bob.d, config)
        # params_good's search sends three curves through the CRT
        report = attacks.invalid_curve_attack(config, bob.U, oracle)
        found = [e for e in report.transcript if e["event"] == "residue_found"]
        assert [e["order"] for e in found] == [3, 631, 197]
        product = 1
        for entry in found:
            g, j, trials = entry["order"], entry["value"], entry["mac_trials"]
            assert trials <= g // 2 + 1 + g % 2
            assert (j * j - bob.d * bob.d) % g == 0
            product *= g
        assert product > good_params.n
        assert report.success
        assert int(report.recovered_secrets["d_B"], 16) == bob.d

    @pytest.mark.parametrize("name, orders", [
        (fixtures.GOOD, [3, 631, 197]),
        (TOY16, [2, 911, 10847]),
    ])
    def test_one_curve_counted_per_query(self, counted_curves, name, orders):
        # a curve is counted only when the attack asks for the next point,
        # so a strict victim, refused at query 1, costs one count
        params = fixtures.load(name)
        for mode in (PAPER, STRICT):
            config = SchemeConfig(params=params, mode=mode)
            bob = hyh.keypair_from_secret(config, 5678)
            counted_curves.clear()
            report = attacks.invalid_curve_attack(
                config, bob.U, attacks.ConfirmationOracle(bob.d, config))
            if mode == PAPER:
                assert report.success
                assert [order for order, _ in _curves(report)] == orders
                assert int(_curves(report)[-1][1], 16) == counted_curves[-1]
            else:
                assert not report.success and report.oracle_queries == 1
                assert len(counted_curves) == 1
                assert [e["event"] for e in report.transcript] == [
                    "oracle_rejected", "blocked"]
                assert report.transcript[0]["b"] == f"{counted_curves[0]:x}"

    def test_strict_victim_blocks_at_first_query(self, toy16, keys16):
        strict = SchemeConfig(params=toy16, mode=STRICT)
        bob = hyh.keypair_from_secret(strict, 7777)
        oracle = attacks.ConfirmationOracle(bob.d, strict)
        report = attacks.invalid_curve_attack(strict, bob.U, oracle)
        assert not report.success
        assert report.oracle_queries == 1
        assert any(e["event"] == "oracle_rejected" for e in report.transcript)

    def test_garbage_mac_oracle_detected(self, paper16, keys16):
        _, bob = keys16

        class BrokenOracle(attacks.ConfirmationOracle):
            def query(self, W):
                message, z = super().query(W)
                return message, bytes(len(z))  # never a real MAC

        oracle = BrokenOracle(bob.d, paper16)
        report = attacks.invalid_curve_attack(paper16, bob.U, oracle)
        assert report.success is False
        assert report.oracle_queries == 1
        last = report.transcript[-1]
        assert last["event"] == "residue_not_found"
        assert (last["order"], last["b"]) == (2, "781f")
        assert last["mac_trials"] == last["order"] // 2 + 1 + last["order"] % 2
        assert report.recovered_secrets == {}

    def test_wrong_victim_oracle_detected(self, paper16, keys16):
        # residues extracted from one key can never recombine into another:
        # the CRT candidates all fail the public-key verification
        alice, bob = keys16
        oracle = attacks.ConfirmationOracle(alice.d, paper16)
        report = attacks.invalid_curve_attack(paper16, bob.U, oracle)
        assert report.success is False
        last = report.transcript[-1]
        assert last["event"] == "no_candidate"
        assert last["curves"] == len(_curves(report)) == report.oracle_queries
        assert not any(e["event"] in ("crt_recombined", "blocked")
                       for e in report.transcript)
        assert report.recovered_secrets == {}

    def test_not_staged_at_secp160r1(self):
        # no invalid curve can be counted at q ~ 2^160: the attack reports
        # that and sends nothing, instead of raising SearchBudgetExceeded
        config = SchemeConfig(params=fixtures.load(fixtures.SECP160R1))
        bob = hyh.keypair_from_secret(config, 5678)
        oracle = attacks.ConfirmationOracle(bob.d, config)
        report = attacks.invalid_curve_attack(config, bob.U, oracle)
        assert report.success is False and report.oracle_queries == 0
        [event] = report.transcript
        assert event["event"] == "not_staged"
        assert event["reason"].endswith(f"exceeds counting bound {cv.DEFAULT_COUNT_BOUND}")


class TestToyCA:
    def test_paper_ca_binds_someone_elses_key(self, paper16, keys16):
        alice, _ = keys16
        assert attacks.ca_issue(paper16, "Mallory", alice.U) is None

    def test_paper_ca_binds_off_curve_point(self, paper16):
        assert attacks.ca_issue(paper16, "Mallory", (5, 6)) is None

    def test_strict_ca_rejects_off_curve_point(self, strict16):
        with pytest.raises(hyh.Refused, match="public key failed validation"):
            attacks.ca_issue(strict16, "Mallory", (5, 6))

    def test_strict_ca_refuses_small_order_key(self, toy16, strict16):
        # W has order 2 (toy16 has h = 4) and passes validate_public_key;
        # the CA and strict signcrypt both refuse it for its order
        W = cv.find_point_of_order(toy16, 2, toy16.h * toy16.n)
        assert cv.validate_public_key(toy16, W) == ()
        with pytest.raises(hyh.Refused,
                           match=r"public key failed validation \(order\)"):
            attacks.ca_issue(strict16, "mallory", W)
        with pytest.raises(hyh.Refused,
                           match=r"recipient key failed validation \(order\)"):
            hyh.signcrypt(strict16, 1, W, b"to mallory")

    def test_strict_ca_requires_possession_proof(self, strict16, keys16):
        alice, _ = keys16
        with pytest.raises(hyh.Refused, match="no valid proof of possession"):
            attacks.ca_issue(strict16, "Mallory", alice.U)
        # proof under the wrong identity also fails
        proof = attacks.make_possession_proof(strict16, alice, "Alice")
        with pytest.raises(hyh.Refused, match="no valid proof of possession"):
            attacks.ca_issue(strict16, "Mallory", alice.U, possession_proof=proof)

    def test_proof_is_bound_to_the_key(self, strict16, keys16):
        # the request names no key: public_verify under the key binds it
        alice, bob = keys16
        proof = attacks.make_possession_proof(strict16, alice, "Alice")
        with pytest.raises(hyh.Refused, match="no valid proof of possession"):
            attacks.ca_issue(strict16, "Alice", bob.U, possession_proof=proof)

    def test_strict_ca_accepts_genuine_applicant(self, strict16, keys16):
        alice, _ = keys16
        proof = attacks.make_possession_proof(strict16, alice, "Alice")
        assert hyh.public_verify(strict16, alice.U, b"possess\0Alice", *proof)
        assert attacks.ca_issue(strict16, "Alice", alice.U,
                                possession_proof=proof) is None

    def test_out_of_range_proof_scalar_refused(self, strict16, keys16):
        alice, _ = keys16
        R, s = attacks.make_possession_proof(strict16, alice, "Alice")
        for wrong in (s + strict16.params.n, 0):
            with pytest.raises(hyh.Refused, match="no valid proof of possession"):
                attacks.ca_issue(strict16, "Alice", alice.U,
                                 possession_proof=(R, wrong))

    def test_unreduced_proof_point_refused(self, f23_n7):
        # R = (132, 248) reduces to (17, 18), off the curve, and the paper's
        # equation holds for it with s = 9; strict refuses R and s alike
        body = b"possess\0Mallory"
        proof = ((132, 248), 9)
        paper = SchemeConfig(params=f23_n7, mode=PAPER)
        key = hyh.keypair_from_secret(paper, 3).U
        assert hyh.public_verify(paper, key, body, *proof)
        with pytest.raises(hyh.Refused, match="no valid proof of possession"):
            attacks.ca_issue(SchemeConfig(params=f23_n7, mode=STRICT), "Mallory", key,
                             possession_proof=proof)

    def test_proof_point_with_x_equal_to_q_refused(self, f23):
        # x = q is the first x outside [0, q). G = (0, 1) has the twin (q, 1),
        # and s = H(body) + (q mod n)*d satisfies s*G == H(body)*G + x_R*U
        # for x_R = q: the paper's equation accepts the twin
        d = 5
        body = b"possess\0Mallory"
        paper = SchemeConfig(params=f23, mode=PAPER)
        U = cv.scalar_mul(f23, d, f23.G)
        proof = ((f23.q, 1), (hyh.hash_to_scalar(paper, body) + f23.q * d) % f23.n)
        assert hyh.public_verify(paper, U, body, *proof)
        with pytest.raises(hyh.Refused, match="no valid proof of possession"):
            attacks.ca_issue(SchemeConfig(params=f23, mode=STRICT), "Mallory", U,
                             possession_proof=proof)


class TestUksScenario:
    def test_views_diverge(self, paper16, keys16):
        alice, bob = keys16
        report = attacks.uks_scenario(paper16, alice, bob, random.Random(2))
        assert report.success
        assert report.recovered_secrets == {
            "M_as_seen_by_bob": attacks.UKS_MESSAGE.hex()}
        bob_view = next(e for e in report.transcript
                        if e["event"] == "bob_unsigncrypted")
        assert bob_view["believed_sender"] == "Mallory"
        alice_view = next(e for e in report.transcript if e["event"] == "alice_sent")
        assert alice_view["believed_recipient"] == "Bob"

    def test_strict_ca_blocks(self, strict16, keys16):
        alice, bob = keys16
        report = attacks.uks_scenario(strict16, alice, bob, random.Random(2))
        assert not report.success
        assert any(e["event"] == "certification_blocked" for e in report.transcript)

    def test_strict_ca_blocks_invalid_key(self, strict16, keys16):
        # a key that fails validation is blocked at the CA like a missing
        # proof, and reported, not raised
        _, bob = keys16
        off_curve = hyh.KeyPair(d=1, U=(5, 6))
        report = attacks.uks_scenario(strict16, off_curve, bob, random.Random(2))
        assert not report.success
        assert report.transcript == [{
            "event": "certification_blocked", "identity": "Mallory",
            "reason": "public key failed validation (c)"}]


class TestBreakForwardSecrecy:
    def test_recorded_traffic_falls_to_key_leak(self, paper16, keys16):
        alice, bob = keys16
        rng = random.Random(31)
        for _ in range(10):
            message = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
            r = rng.randrange(1, paper16.params.n)
            sct = hyh.signcrypt(paper16, alice.d, bob.U, message, forced_r=r)
            report = attacks.break_forward_secrecy(paper16, alice.d, bob.U,
                                                   sct, message)
            assert report.success
            assert int(report.recovered_secrets["r"], 16) == r

    def test_even_s_under_composite_n(self, composite_n_text):
        # s*r = H(M) + x_R*d_A mod n has two solutions; the one giving R wins
        config, alice, bob, message, r, sct = composite_n_text(lambda x_r, s: s % 2 == 0)
        report = attacks.break_forward_secrecy(config, alice.d, bob.U, sct, message)
        assert report.success
        assert int(report.recovered_secrets["r"], 16) == r

    def test_s_equal_to_n_leaves_r_free(self, paper16, keys16):
        # R = O and H(M) = 0 mod n: s*r = H(M) + x_R*d_A holds for every r,
        # and r = 0 gives R and the zero keystream, but nothing was recovered
        alice, bob = keys16
        n = paper16.params.n
        message = attacks._zero_hash_message(n)
        sct = SigncryptedText(R=None, C=message + bytes(hyh.TAG_LEN), s=n)
        with pytest.raises(ValueError, match="recovered r does not regenerate R"):
            attacks.break_forward_secrecy(paper16, alice.d, bob.U, sct, message)

    def test_wrong_message_detected(self, paper16, keys16):
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"actual", rng_seed=9)
        with pytest.raises(ValueError, match="recovered r does not regenerate R"):
            attacks.break_forward_secrecy(paper16, alice.d, bob.U, sct, b"guess")

    def test_recovered_r_closes_the_loop(self, paper16, keys16):
        # the two formulas are inverses: r from d_A, then d_A from r
        alice, bob = keys16
        message = b"loop closure"
        sct = hyh.signcrypt(paper16, alice.d, bob.U, message, rng_seed=17)
        fs = attacks.break_forward_secrecy(paper16, alice.d, bob.U, sct, message)
        r = int(fs.recovered_secrets["r"], 16)
        back = attacks.recover_sender_key(paper16, alice.U, bob.U, sct, r)
        assert back.success
        assert int(back.recovered_secrets["d_A"], 16) == alice.d


def _event(report: attacks.AttackReport, name: str) -> dict:
    return next(e for e in report.transcript if e["event"] == name)


def _curves(report: attacks.AttackReport) -> list[tuple[int, str]]:
    """(order, b) of each invalid curve whose residue was found."""
    return [(e["order"], e["b"]) for e in report.transcript
            if e["event"] == "residue_found"]


class TestDegenerateKeyDemo:
    def test_modes_diverge(self, paper16, strict16, keys16):
        paper = attacks.degenerate_key_demo(paper16, *keys16)
        assert paper.success
        paper_event = _event(paper, "identity_ephemeral")
        assert paper_event["plaintext_read_back_verbatim"]
        assert paper_event["session_key_x"] == 0
        strict = attacks.degenerate_key_demo(strict16, *keys16)
        assert not strict.success
        strict_event = _event(strict, "identity_ephemeral")
        assert not strict_event["decrypt_attempted"]
        assert strict_event["rejected_at"] == "ephemeral_point"

    def test_keyless_forgery_fully_accepted(self, paper16, strict16, keys16):
        paper = attacks.degenerate_key_demo(paper16, *keys16)
        assert _event(paper, "keyless_forgery")["accepted"]
        assert "forged_M" in paper.recovered_secrets
        strict = attacks.degenerate_key_demo(strict16, *keys16)
        assert not _event(strict, "keyless_forgery")["accepted"]

    def test_forged_message_is_searched_once(self, good_params):
        # the search depends on n alone, so the keys two seeds stage in two
        # modes share it
        attacks._zero_hash_message.cache_clear()
        configs = [SchemeConfig(params=good_params, mode=m) for m in (PAPER, STRICT)]
        reports = [attacks.degenerate_key_demo(c, *cli._stage(c, seed)[1:])
                   for seed in (5, 11) for c in configs]
        info = attacks._zero_hash_message.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        counter = 0
        while hyh.hash_to_scalar(configs[0], b"forged-%d" % counter):
            counter += 1
        expected = (b"forged-%d" % counter).hex()
        assert [_event(r, "keyless_forgery")["message"] for r in reports] == [expected] * 4
        assert [r.success for r in reports] == [True, False] * 2

    def test_small_order_point_same_collapse(self, paper16):
        # an order-2 ephemeral point and an even recipient key also give K = O
        params = paper16.params
        W = None
        for step in range(1, 50):
            b2 = (params.b + step) % params.q
            if (4 * params.a**3 + 27 * b2 * b2) % params.q == 0:
                continue
            cand = cv.CurveParams(q=params.q, a=params.a, b=b2, G=None, n=1, h=1)
            group_order = cv.count_points(cand)
            if group_order % 2 == 0:
                W = cv.find_point_of_order(cand, 2, group_order)
                break
        assert W is not None and W[1] == 0
        bob = hyh.keypair_from_secret(paper16, 2468)  # even secret
        assert cv.scalar_mul(params, bob.d, W) is None
        alice = hyh.keypair_from_secret(paper16, 3)
        sct = SigncryptedText(R=W, C=bytes(40), s=1)
        trace = hyh.unsigncrypt_trace(paper16, bob.d, alice.U, sct)
        assert trace.session_key_x == 0
