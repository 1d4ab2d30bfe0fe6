"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (visible with pytest -s or in the captured output of a failing run).

Criteria cover: honest round-trip correctness at two sizes, each attack
demonstrated end to end with its published cost bounds, the validator fixture
matrix, mode duality of the whole corpus, and agreement of the low-level
machinery with exhaustive enumeration oracles.
"""

import hashlib
import json
import random
import time

import pytest

from hyhlab import attacks, cli, curve as cv, fixtures, hyh, numtheory as nt
from hyhlab.hyh import PAPER, STRICT, SchemeConfig, SigncryptedText
from hyhlab.paramcheck import validate_domain_params


def verdict(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def paper20(good_params):
    return SchemeConfig(params=good_params, mode=PAPER)


def test_1_round_trip_correctness(paper20):
    t0 = time.monotonic()
    failures = 0
    rng = random.Random(1001)

    n = paper20.params.n
    for _ in range(1000):
        alice = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
        bob = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
        message = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 128)))
        sct = hyh.signcrypt(paper20, alice.d, bob.U, message, rng_seed=rng)
        if hyh.unsigncrypt(paper20, bob.d, alice.U, sct) != message:
            failures += 1

    big = SchemeConfig(params=fixtures.load(fixtures.SECP160R1), mode=PAPER)
    for _ in range(100):
        alice = hyh.keypair_from_secret(big, rng.randrange(1, big.params.n))
        bob = hyh.keypair_from_secret(big, rng.randrange(1, big.params.n))
        message = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 128)))
        sct = hyh.signcrypt(big, alice.d, bob.U, message, rng_seed=rng)
        if hyh.unsigncrypt(big, bob.d, alice.U, sct) != message:
            failures += 1

    elapsed = time.monotonic() - t0
    verdict(1, "round-trip correctness", failures == 0 and elapsed < 30,
            f"failures={failures} elapsed={elapsed:.1f}s")


def test_2_sender_key_recovery(paper20):
    rng = random.Random(1002)
    n = paper20.params.n
    ok = True
    worst = 0.0
    for _ in range(100):
        alice = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
        bob = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
        r = rng.randrange(1, n)
        sct = hyh.signcrypt(paper20, alice.d, bob.U, b"instance", forced_r=r)
        t0 = time.monotonic()
        report = attacks.recover_sender_key(paper20, alice.U, bob.U, sct, r)
        worst = max(worst, time.monotonic() - t0)
        recovered = int(report.recovered_secrets.get("d_A", "0"), 16)
        if not (report.success
                and cv.scalar_mul(paper20.params, recovered, paper20.params.G)
                == alice.U):
            ok = False
    verdict(2, "ephemeral leak recovers sender key", ok and worst < 1.0,
            f"100/100, worst instance {worst * 1000:.1f}ms")


def test_3_shared_nonce_xor_structure(paper20):
    rng = random.Random(1003)
    n = paper20.params.n
    ok = True
    for _ in range(100):
        alice = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
        bob = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
        size = rng.randrange(1, 96)
        m1 = bytes(rng.randrange(256) for _ in range(size))
        m2 = bytes(rng.randrange(256) for _ in range(size))
        r = rng.randrange(1, n)
        sct1 = hyh.signcrypt(paper20, alice.d, bob.U, m1, forced_r=r)
        sct2 = hyh.signcrypt(paper20, alice.d, bob.U, m2, forced_r=r)
        # independent expectation, straight from hashlib
        width = paper20.scalar_width
        tag1 = hashlib.sha256(m1 + sct1.s.to_bytes(width, "big")).digest()
        tag2 = hashlib.sha256(m2 + sct2.s.to_bytes(width, "big")).digest()
        expected = (bytes(a ^ b for a, b in zip(m1, m2))
                    + bytes(a ^ b for a, b in zip(tag1, tag2)))
        xored = bytes(a ^ b for a, b in zip(sct1.C, sct2.C))
        if xored != expected:
            ok = False
        report = attacks.nonce_reuse_recover(paper20, sct1, sct2, m1)
        if not (report.success
                and report.recovered_secrets["M2"] == m2.hex()
                and report.recovered_secrets["tag_xor"] == expected[size:].hex()):
            ok = False
    verdict(3, "shared nonce XOR structure", ok, "100/100 byte-exact")


def test_4_invalid_curve_key_recovery(paper20):
    t0 = time.monotonic()
    q = paper20.params.q
    assert (1 << 16) <= q <= (1 << 20)
    bob = hyh.keypair_from_secret(paper20, random.Random(1004).randrange(
        1, paper20.params.n))
    oracle = attacks.ConfirmationOracle(bob.d, paper20, b"received")
    report = attacks.invalid_curve_attack(paper20, bob.U, oracle, rng_seed=1004)
    elapsed = time.monotonic() - t0

    curves = next(e for e in report.transcript
                  if e["event"] == "invalid_curves_found")["orders"]
    found = [e for e in report.transcript if e["event"] == "residue_found"]
    bounds_ok = all(e["mac_trials"] <= e["order"] // 2 + 1 + e["order"] % 2
                    for e in found)
    residues_ok = all((e["value"] ** 2 - bob.d ** 2) % e["order"] == 0
                      for e in found)
    recovered = int(report.recovered_secrets.get("d_B", "0"), 16)
    verdict(4, "invalid-curve attack", (
        report.success and recovered == bob.d
        and report.oracle_queries == len(curves)
        and bounds_ok and residues_ok and elapsed < 300),
        f"queries={report.oracle_queries} orders={curves} "
        f"elapsed={elapsed:.1f}s")


def test_5_forward_secrecy_failure(paper20):
    rng = random.Random(1005)
    n = paper20.params.n
    ok = True
    for _ in range(100):
        alice = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
        bob = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
        message = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
        r = rng.randrange(1, n)
        sct = hyh.signcrypt(paper20, alice.d, bob.U, message, forced_r=r)
        report = attacks.break_forward_secrecy(paper20, alice.d, bob.U, sct,
                                               message)
        recovered_r = int(report.recovered_secrets.get("r", "0"), 16)
        if not (report.success and recovered_r == r
                and cv.scalar_mul(paper20.params, recovered_r, paper20.params.G)
                == sct.R
                and bytes.fromhex(report.recovered_secrets["M"]) == message):
            ok = False
    verdict(5, "forward secrecy broken by key leak", ok,
            "100/100 r recovered and ciphertext re-decrypted")


def test_6_unknown_key_share(paper20):
    rng = random.Random(1006)
    n = paper20.params.n
    alice = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
    bob = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
    report = attacks.uks_scenario(paper20, alice, bob, "Mallory",
                                  b"the figures", rng_seed=1006)
    bob_view = next(e for e in report.transcript
                    if e["event"] == "bob_unsigncrypted")
    alice_view = next(e for e in report.transcript if e["event"] == "alice_sent")
    strict20 = SchemeConfig(params=paper20.params, mode=STRICT)
    blocked = attacks.uks_scenario(strict20, alice, bob, "Mallory",
                                   b"the figures", rng_seed=1006)
    verdict(6, "unknown key-share", (
        report.success
        and bob_view["believed_sender"] == "Mallory"
        and alice_view["believed_recipient"] == "Bob"
        and not blocked.success),
        "views diverge; strict CA blocks issuance")


def test_7_validator_matrix_and_identity_ephemeral(paper20):
    good_report = validate_domain_params(paper20.params)
    matrix_ok = good_report.overall
    expected = {
        fixtures.COMPOSITE_N: ["n_prime"],
        fixtures.SMALL_N: ["n_above_4sqrt_q"],
        fixtures.MOV: ["mov_condition"],
        fixtures.N_EQ_Q: ["not_anomalous"],
        # a supersingular set with a usable subgroup always trips MOV too
        fixtures.SUPERSINGULAR: ["mov_condition", "not_supersingular"],
    }
    details = []
    for name, intended in expected.items():
        got = validate_domain_params(fixtures.load(name)).failed_names()
        if got != intended:
            matrix_ok = False
            details.append(f"{name}: {got}")

    rng = random.Random(1007)
    n = paper20.params.n
    alice = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
    bob = hyh.keypair_from_secret(paper20, rng.randrange(1, n))
    strict20 = SchemeConfig(params=paper20.params, mode=STRICT)
    message = b"zero keystream payload"
    s = rng.randrange(1, n)
    tag = hyh.hash_bytes(paper20, message + hyh.encode_scalar(paper20, s))
    sct = SigncryptedText(R=None, C=message + tag[:32], s=s)
    paper_trace = hyh.unsigncrypt_trace(paper20, bob.d, alice.U, sct)
    strict_trace = hyh.unsigncrypt_trace(strict20, bob.d, alice.U, sct)
    duality_ok = (paper_trace.message_region == message
                  and paper_trace.session_key_x == 0
                  and strict_trace.session_key_x is None
                  and strict_trace.message is None)
    # with a message hashing to 0 mod n, paper mode fully accepts R = O and
    # strict mode refuses it
    for config, accepted in ((paper20, True), (strict20, False)):
        forged = attacks.degenerate_key_demo(config, rng_seed=1007)
        forgery = next(e for e in forged.transcript
                       if e["event"] == "keyless_forgery")
        duality_ok = duality_ok and forgery["accepted"] is accepted

    verdict(7, "validator matrix and identity ephemeral duality",
            matrix_ok and duality_ok, "; ".join(details) or "all as intended")


def test_8_mode_duality_demo(good_params):
    summary1 = cli.run_demo_all(good_params, seed=42)
    summary2 = cli.run_demo_all(good_params, seed=42)
    as_json = json.dumps(summary1, sort_keys=True)
    verdict(8, "demo-all mode duality", (
        summary1["paper_successes"] == 6
        and summary1["strict_successes"] == 0
        and as_json == json.dumps(summary2, sort_keys=True)),
        f"paper={summary1['paper_successes']}/6 "
        f"strict={summary1['strict_successes']}/6 deterministic")


def test_9_enumeration_oracles(f23):
    # point census by raw double loop over the equation
    pts = [None] + [(x, y) for x in range(23) for y in range(23)
                    if (y * y - (x**3 + x + 1)) % 23 == 0]
    census_ok = len(pts) == 28 and cv.count_points(f23) == 28

    # the group is cyclic: index every point by its discrete log and check
    # the whole addition table against integer arithmetic mod 28
    base = (0, 1)
    index = {}
    acc = None
    for k in range(28):
        index[acc] = k
        acc = cv.point_add(f23, acc, base)
    table_ok = set(index) == set(pts)
    for P in pts:
        for Q in pts:
            if index[cv.point_add(f23, P, Q)] != (index[P] + index[Q]) % 28:
                table_ok = False

    # square roots against brute force square tables
    sqrt_ok = True
    primes = [p for p in range(3, 200) if nt.is_prime(p)]
    for start in range(201, 10000, 500):
        p = start if start % 2 else start + 1
        while not nt.is_prime(p):
            p += 2
        primes.append(p)
    primes = sorted(set(primes))
    for p in primes:
        roots = {}
        for y in range(p):
            roots.setdefault(y * y % p, []).append(y)
        for a in range(p):
            got = nt.sqrt_mod(a, p)
            want = min(roots[a]) if a in roots else None
            if got != want:
                sqrt_ok = False

    verdict(9, "enumeration oracles", census_ok and table_ok and sqrt_ok,
            f"28-point table exact; {len(primes)} primes below 10^4 "
            "match brute force")
