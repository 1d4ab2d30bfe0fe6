import random

import pytest

from hyhlab import attacks, curve as cv, hyh
from hyhlab.hyh import PAPER, STRICT, SchemeConfig, SigncryptedText


@pytest.fixture(scope="module")
def keys16(paper16):
    rng = random.Random(42)
    alice = hyh.keypair_from_secret(paper16, rng.randrange(1, paper16.params.n))
    bob = hyh.keypair_from_secret(paper16, rng.randrange(1, paper16.params.n))
    return alice, bob


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
        with pytest.raises(attacks.EphemeralMismatch):
            attacks.recover_sender_key(paper16, alice.U, bob.U, sct, 98)

    def test_success_self_verifies(self, paper16, keys16):
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"check", forced_r=1234)
        report = attacks.recover_sender_key(paper16, alice.U, bob.U, sct, 1234)
        d = int(report.recovered_secrets["d_A"], 16)
        assert cv.scalar_mul(paper16.params, d, paper16.params.G) == alice.U


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
        oracle = attacks.ConfirmationOracle(bob.d, paper16, b"pong")
        message, z = oracle.query(sct.R, sct.C, sct.s)
        # the legitimate sender derives the same MAC key from r * U_B
        x_k = hyh.x_coord(cv.scalar_mul(paper16.params, r, bob.U))
        assert z == attacks.confirmation_mac(paper16, x_k, message)

    def test_identity_point_keys_mac_with_zero(self, paper16, keys16):
        _, bob = keys16
        oracle = attacks.ConfirmationOracle(bob.d, paper16, b"pong")
        message, z = oracle.query(None, bytes(33), 1)
        assert z == attacks.confirmation_mac(paper16, 0, message)

    def test_query_budget(self, paper16, keys16):
        _, bob = keys16
        oracle = attacks.ConfirmationOracle(bob.d, paper16, b"x")
        assert attacks.QUERY_BUDGET == 64
        for _ in range(64):
            oracle.query(None, bytes(33), 1)
        with pytest.raises(attacks.QueryBudgetExceeded,
                           match="^budget of 64 queries spent$"):
            oracle.query(None, bytes(33), 1)
        assert oracle.queries == 64

    def test_strict_oracle_rejects_invalid_points(self, strict16):
        bob = hyh.keypair_from_secret(strict16, 1234)
        oracle = attacks.ConfirmationOracle(bob.d, strict16, b"x")
        with pytest.raises(attacks.OracleRejection):
            oracle.query((5, 6), bytes(33), 1)

    @pytest.mark.parametrize("kind", ["identity", "off_curve", "order_2"])
    def test_refuses_what_strict_unsigncrypt_refuses(self, f23_n7, kind):
        # params_f23_n7 has 28 points and n = 7, so a point of order 2 lies
        # on the curve yet outside the prime-order subgroup
        W = {
            "identity": None,
            "off_curve": (5, 6),
            "order_2": cv.find_point_of_order(f23_n7, 2, f23_n7.h * f23_n7.n,
                                              rng_seed=1),
        }[kind]
        assert (kind == "order_2") == (W is not None and cv.is_on_curve(f23_n7, W))
        sct = SigncryptedText(R=W, C=bytes(40), s=1)
        for mode in (PAPER, STRICT):
            config = SchemeConfig(params=f23_n7, mode=mode)
            alice = hyh.keypair_from_secret(config, 5)
            bob = hyh.keypair_from_secret(config, 3)
            trace = hyh.unsigncrypt_trace(config, bob.d, alice.U, sct)
            oracle = attacks.ConfirmationOracle(bob.d, config, b"x")
            if mode == PAPER:
                assert trace.session_key_x is not None
                oracle.query(W, sct.C, sct.s)
            else:
                assert trace.rejected_at == "ephemeral_point"
                with pytest.raises(attacks.OracleRejection):
                    oracle.query(W, sct.C, sct.s)


class TestInvalidCurveAttack:
    def test_full_key_recovery(self, paper16, keys16):
        _, bob = keys16
        oracle = attacks.ConfirmationOracle(bob.d, paper16, b"got it")
        report = attacks.invalid_curve_attack(paper16, bob.U, oracle, rng_seed=1)
        assert report.success
        assert int(report.recovered_secrets["d_B"], 16) == bob.d

    def test_query_count_equals_curve_count(self, paper16, keys16):
        _, bob = keys16
        oracle = attacks.ConfirmationOracle(bob.d, paper16, b"got it")
        report = attacks.invalid_curve_attack(paper16, bob.U, oracle, rng_seed=1)
        curves = next(e for e in report.transcript
                      if e["event"] == "invalid_curves_found")
        assert report.oracle_queries == len(curves["orders"])

    def test_residues_and_trial_bounds(self, good_params):
        config = SchemeConfig(params=good_params)
        bob = hyh.keypair_from_secret(config, 5678)
        oracle = attacks.ConfirmationOracle(bob.d, config, b"got it")
        # params_good's search at seed 7 sends three curves through the CRT
        report = attacks.invalid_curve_attack(config, bob.U, oracle, rng_seed=7)
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

    def test_spent_budget_reported(self, paper16, keys16):
        _, bob = keys16
        oracle = attacks.ConfirmationOracle(bob.d, paper16, b"got it")
        # two queries are left, and toy16's search needs three curves
        for _ in range(attacks.QUERY_BUDGET - 2):
            oracle.query(None, bytes(33), 1)
        report = attacks.invalid_curve_attack(paper16, bob.U, oracle, rng_seed=3)
        assert report.transcript[0]["orders"] == [2, 911, 10847]
        assert report.success is False and report.oracle_queries == 64
        events = [e["event"] for e in report.transcript]
        assert events == ["invalid_curves_found", "residue_found",
                          "residue_found", "budget_spent"]
        assert report.transcript[-1]["reason"] == "budget of 64 queries spent"

    def test_strict_victim_blocks_at_first_query(self, toy16, keys16):
        strict = SchemeConfig(params=toy16, mode=STRICT)
        bob = hyh.keypair_from_secret(strict, 7777)
        oracle = attacks.ConfirmationOracle(bob.d, strict, b"got it")
        report = attacks.invalid_curve_attack(strict, bob.U, oracle, rng_seed=1)
        assert not report.success
        assert report.oracle_queries == 1
        assert any(e["event"] == "oracle_rejected" for e in report.transcript)

    def test_garbage_mac_oracle_detected(self, paper16, keys16):
        _, bob = keys16

        class BrokenOracle(attacks.ConfirmationOracle):
            def query(self, W, C, s):
                message, z = super().query(W, C, s)
                return message, bytes(len(z))  # never a real MAC

        oracle = BrokenOracle(bob.d, paper16, b"got it")
        report = attacks.invalid_curve_attack(paper16, bob.U, oracle, rng_seed=1)
        assert report.success is False
        assert report.oracle_queries == 1
        last = report.transcript[-1]
        assert last["event"] == "residue_not_found"
        curves = report.transcript[0]
        assert last["order"] == curves["orders"][0]
        assert last["mac_trials"] == last["order"] // 2 + 1 + last["order"] % 2
        assert report.recovered_secrets == {}

    def test_wrong_victim_oracle_detected(self, paper16, keys16):
        # residues extracted from one key can never recombine into another:
        # the CRT candidates all fail the public-key verification
        alice, bob = keys16
        oracle = attacks.ConfirmationOracle(alice.d, paper16, b"got it")
        report = attacks.invalid_curve_attack(paper16, bob.U, oracle, rng_seed=1)
        assert report.success is False
        last = report.transcript[-1]
        assert last["event"] == "no_candidate"
        curves = report.transcript[0]
        assert last["curves"] == len(curves["orders"]) == report.oracle_queries
        assert not any(e["event"] in ("crt_recombined", "blocked")
                       for e in report.transcript)
        assert report.recovered_secrets == {}


class TestToyCA:
    def test_paper_ca_binds_someone_elses_key(self, paper16, keys16):
        alice, _ = keys16
        registry = attacks.CertRegistry(paper16, rng_seed=1)
        cert = attacks.ca_issue(registry, "Mallory", alice.U)
        assert cert.subject_identity == "Mallory"
        assert cert.public_key == alice.U
        assert attacks.cert_validate(registry, cert)

    def test_paper_ca_signs_off_curve_point(self, paper16):
        registry = attacks.CertRegistry(paper16, rng_seed=1)
        cert = attacks.ca_issue(registry, "Mallory", (5, 6))
        assert attacks.cert_validate(registry, cert)

    def test_strict_ca_rejects_off_curve_point(self, strict16):
        registry = attacks.CertRegistry(strict16, rng_seed=1)
        with pytest.raises(attacks.InvalidPublicKey):
            attacks.ca_issue(registry, "Mallory", (5, 6))

    def test_strict_ca_requires_possession_proof(self, strict16, keys16):
        alice, _ = keys16
        registry = attacks.CertRegistry(strict16, rng_seed=1)
        with pytest.raises(attacks.PossessionProofInvalid):
            attacks.ca_issue(registry, "Mallory", alice.U)
        # proof under the wrong identity also fails
        proof = attacks.make_possession_proof(strict16, alice, "Alice")
        with pytest.raises(attacks.PossessionProofInvalid):
            attacks.ca_issue(registry, "Mallory", alice.U, possession_proof=proof)

    def test_strict_ca_accepts_genuine_applicant(self, strict16, keys16):
        alice, _ = keys16
        registry = attacks.CertRegistry(strict16, rng_seed=1)
        proof = attacks.make_possession_proof(strict16, alice, "Alice")
        cert = attacks.ca_issue(registry, "Alice", alice.U, possession_proof=proof)
        assert attacks.cert_validate(registry, cert)

    def test_forged_signature_detected(self, paper16, keys16):
        alice, _ = keys16
        registry = attacks.CertRegistry(paper16, rng_seed=1)
        cert = attacks.ca_issue(registry, "Alice", alice.U)
        forged = attacks.Certificate(
            subject_identity="Eve", public_key=alice.U,
            ca_signature=cert.ca_signature)
        assert not attacks.cert_validate(registry, forged)

    def test_unreduced_proof_point_refused(self, f23_n7):
        # the proof's R = (132, 248) reduces to (17, 18), whose x is that of
        # c*U; point_add compared the unreduced x's and divided by zero
        config = SchemeConfig(params=f23_n7, mode=STRICT)
        registry = attacks.CertRegistry(config, rng_seed=1)
        key = hyh.keypair_from_secret(config, 3).U
        with pytest.raises(attacks.PossessionProofInvalid):
            attacks.ca_issue(registry, "Mallory", key,
                             possession_proof=bytes.fromhex("84f8cf"))


class _DrawLimit(random.Random):
    """A Random that fails the test past hyh._RESAMPLE_LIMIT draws, where an
    unbounded sampling loop would run forever."""

    draws = 0

    def randrange(self, *args):
        self.draws += 1
        assert self.draws <= hyh._RESAMPLE_LIMIT, "sampling loop never gave up"
        return super().randrange(*args)


def test_schnorr_sign_gives_up_on_a_degenerate_base_point():
    # G = (3, 0) has order 2 and n = 2, so k = 1 and R = G on every draw;
    # this message hashes to an odd c, so z = 1 + c*1 mod 2 is always 0
    config = SchemeConfig(params=cv.CurveParams(q=11, a=1, b=1, G=(3, 0), n=2, h=2))
    message = b"cert\0Alice\0" + attacks._point_bytes(config, config.params.G)
    assert hyh.hash_to_scalar(
        config, attacks._point_bytes(config, config.params.G) + message) == 1
    with pytest.raises(hyh.RngFailure):
        attacks.schnorr_sign(config, 1, message, _DrawLimit(0))


class TestUksScenario:
    def test_views_diverge(self, paper16, keys16):
        alice, bob = keys16
        report = attacks.uks_scenario(paper16, alice, bob, "Mallory",
                                      b"board minutes", rng_seed=2)
        assert report.success
        bob_view = next(e for e in report.transcript
                        if e["event"] == "bob_unsigncrypted")
        assert bob_view["believed_sender"] == "Mallory"
        alice_view = next(e for e in report.transcript if e["event"] == "alice_sent")
        assert alice_view["believed_recipient"] == "Bob"

    def test_strict_ca_blocks(self, strict16, keys16):
        alice, bob = keys16
        report = attacks.uks_scenario(strict16, alice, bob, "Mallory",
                                      b"board minutes", rng_seed=2)
        assert not report.success
        assert any(e["event"] == "certification_blocked" for e in report.transcript)


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

    def test_wrong_message_detected(self, paper16, keys16):
        alice, bob = keys16
        sct = hyh.signcrypt(paper16, alice.d, bob.U, b"actual", rng_seed=9)
        with pytest.raises(attacks.ConsistencyFailure):
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


class TestDegenerateKeyDemo:
    def test_modes_diverge(self, paper16, strict16):
        paper = attacks.degenerate_key_demo(paper16, rng_seed=4)
        assert paper.success
        paper_event = _event(paper, "identity_ephemeral")
        assert paper_event["plaintext_read_back_verbatim"]
        assert paper_event["session_key_x"] == 0
        strict = attacks.degenerate_key_demo(strict16, rng_seed=4)
        assert not strict.success
        strict_event = _event(strict, "identity_ephemeral")
        assert not strict_event["decrypt_attempted"]
        assert strict_event["rejected_at"] == "ephemeral_point"

    def test_keyless_forgery_fully_accepted(self, paper16, strict16):
        paper = attacks.degenerate_key_demo(paper16, rng_seed=4)
        assert _event(paper, "keyless_forgery")["accepted"]
        assert "forged_M" in paper.recovered_secrets
        strict = attacks.degenerate_key_demo(strict16, rng_seed=4)
        assert not _event(strict, "keyless_forgery")["accepted"]

    def test_forged_message_is_searched_once(self, good_params):
        attacks._zero_hash_message.cache_clear()
        seed = 11
        configs = [SchemeConfig(params=good_params, mode=m) for m in (PAPER, STRICT)]
        reports = [attacks.degenerate_key_demo(c, rng_seed=seed) for c in configs]
        info = attacks._zero_hash_message.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        counter = 0
        while hyh.hash_to_scalar(configs[0], b"forged-%d-%d" % (seed, counter)):
            counter += 1
        expected = (b"forged-%d-%d" % (seed, counter)).hex()
        assert [_event(r, "keyless_forgery")["message"] for r in reports] == [expected] * 2
        assert [r.success for r in reports] == [True, False]

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
                W = cv.find_point_of_order(cand, 2, group_order, rng_seed=1)
                break
        assert W is not None and W[1] == 0
        bob = hyh.keypair_from_secret(paper16, 2468)  # even secret
        assert cv.scalar_mul(params, bob.d, W) is None
        alice = hyh.keypair_from_secret(paper16, 3)
        sct = SigncryptedText(R=W, C=bytes(40), s=1)
        trace = hyh.unsigncrypt_trace(paper16, bob.d, alice.U, sct)
        assert trace.session_key_x == 0
