"""Executable attacks against the signcryption scheme.

Each attack takes the public artifacts an attacker would actually hold
(intercepted triples, certificates, oracle access) plus whatever leaked or
mis-generated secret the scenario assumes, and returns an AttackReport whose
``success`` flag is only set after the recovered secrets have been checked
against their public counterparts. Nothing here is simulated by peeking at
the victim's state: if the report says a private key was recovered, the key
was recomputed from the attacker's view and verified via d*G == U.

An attack that fails reports it: ``success`` stays False and the transcript
says where the attack stopped. An attack raises only when the inputs it is
handed contradict the public data, as a claimed r that does not give R or a
leaked key and plaintext that do not give R; either is a ``ValueError``.
"""

import functools
import hashlib
import hmac
import itertools
import math
import random
from dataclasses import dataclass, field

from . import hyh
from .curve import (
    CurveParams,
    Point,
    SearchBudgetExceeded,
    fixed_base_mul,
    invalid_curves,
    point_add,
)
from .hyh import (
    KeyPair,
    SchemeConfig,
    SigncryptedText,
    TAG_LEN,
    encode_field,
    hash_to_scalar,
    message_tag,
    open_ciphertext,
    x_coord,
    xor_bytes,
)
from .numtheory import crt_combine, solve_linear

MAX_SIGN_VECTOR_CURVES = 24
CONFIRMATION_MESSAGE = b"delivery confirmed"
MALLORY = "Mallory"
UKS_MESSAGE = b"quarterly figures attached"


@dataclass
class AttackReport:
    attack_name: str
    success: bool
    recovered_secrets: dict[str, str] = field(default_factory=dict)
    oracle_queries: int = 0
    transcript: list[dict] = field(default_factory=list)

    def log(self, event: str, **details):
        self.transcript.append({"event": event, **details})


def _solve_for(params: CurveParams, a: int, b: int, P: Point) -> int | None:
    """The x with a*x = b (mod n) and x*G == P, the unknown of a key formula,
    or None. An a = 0 (mod n) leaves x free, so it gives None, not a search
    of [0, n); an a with no inverse mod a composite n gives several x."""
    if a % params.n == 0:
        return None
    return next((x for x in solve_linear(a, b, params.n)
                 if fixed_base_mul(params, x, params.G) == P), None)


# --- finding 1: leaked ephemeral scalar ------------------------------------

def recover_sender_key(config: SchemeConfig, u_a: Point, u_b: Point,
                       sct: SigncryptedText, r: int) -> AttackReport:
    """Recover the sender's long-term key from one intercepted triple plus
    its ephemeral scalar: the d_A with x_R*d_A = r*s - H(M) mod n and
    d_A*G == U_A, or ``no_candidate`` if x_R = 0 mod n or none passes."""
    params = config.params
    report = AttackReport("recover_sender_key", success=False)
    if fixed_base_mul(params, r, params.G) != sct.R:
        raise ValueError("r*G does not match the transmitted R")
    x_k = x_coord(fixed_base_mul(params, r, u_b))
    message, tag = open_ciphertext(config, x_k, sct.C)
    report.log("decrypted", message=message.hex(),
               tag_matches=tag == message_tag(config, message, sct.s))
    x_r = x_coord(sct.R) % params.n
    e = hash_to_scalar(config, message)
    d_a = _solve_for(params, x_r, r * sct.s - e, u_a)
    if d_a is None:
        report.log("no_candidate", x_r=f"{x_r:x}")
        return report
    report.log("key_formula_applied", d_a=f"{d_a:x}")
    report.success = True
    report.recovered_secrets = {"d_A": f"{d_a:x}", "M": message.hex(), "x_K": f"{x_k:x}"}
    return report


# --- finding 2 / Eq-style XOR linearity -------------------------------------

def nonce_reuse_recover(config: SchemeConfig, sct1: SigncryptedText,
                        sct2: SigncryptedText, m1: bytes) -> AttackReport:
    """Given two triples signcrypted under the same ephemeral scalar and the
    first plaintext, strip the shared keystream: C1 XOR C2 = (M1 XOR M2) ||
    (tag1 XOR tag2), so M2 falls out with no key material at all. It is
    confirmed when H(M1 || s1) XOR H(M2 || s2), both s being public, gives
    the tag XOR."""
    report = AttackReport("nonce_reuse_recover", success=False)
    xored = xor_bytes(sct1.C, sct2.C)
    m2, tag_xor = xor_bytes(xored[:-TAG_LEN], m1), xored[-TAG_LEN:]
    tag1 = message_tag(config, m1, sct1.s)
    report.success = (tag1 is not None and
                      message_tag(config, m2, sct2.s) == xor_bytes(tag1, tag_xor))
    report.log("xor_recovery", recovered=m2.hex(), tag_matches=report.success)
    if report.success:
        report.recovered_secrets = {"M2": m2.hex(), "tag_xor": tag_xor.hex()}
    return report


# --- finding 5: invalid-curve key recovery ----------------------------------

def confirmation_mac(config: SchemeConfig, x_k: int, message: bytes) -> bytes:
    """Delivery-confirmation tag: HMAC keyed with the session key's
    x-coordinate in fixed-width encoding."""
    return hmac.new(encode_field(config, x_k), message, "sha256").digest()


class ConfirmationOracle:
    """A simulated recipient that acknowledges every delivery with a MAC.

    On each query the recipient takes the unsigncryption step that derives
    the shared point from the incoming ephemeral point W, the only part of a
    delivery that step reads, and returns ``CONFIRMATION_MESSAGE`` with its
    MAC under the session key: what an attacker sees of the reply. A
    strict-mode recipient refuses in that step exactly what
    ``hyh.unsigncrypt_trace`` refuses there, and ``query`` raises
    ``hyh.Refused``. It answers every query, and ``queries`` counts them.
    """

    def __init__(self, d_b: int, config: SchemeConfig):
        self._d_b = d_b
        self.config = config
        self.queries = 0

    def query(self, W: Point) -> tuple[bytes, bytes]:
        self.queries += 1
        K, refused = hyh.recipient_shared_point(self.config, self._d_b, W)
        if refused:
            raise hyh.Refused("incoming ephemeral point failed validation")
        z = confirmation_mac(self.config, x_coord(K), CONFIRMATION_MESSAGE)
        return CONFIRMATION_MESSAGE, z


def invalid_curve_attack(config: SchemeConfig, u_b: Point,
                         oracle: ConfirmationOracle) -> AttackReport:
    """Recover the recipient's long-term key via small-order points.

    For each curve sharing a with the real one but with a different b, a
    point W of small prime order g is sent in place of R. The victim's reply
    MAC is keyed by x(d_B * W), which takes at most ceil(g/2)+1 distinct
    values, so a short brute force yields d_B mod g up to sign. Residues from
    curves with pairwise coprime orders are then recombined: every sign
    assignment is pushed through the CRT until one candidate reproduces the
    victim's public key.

    Each point is sent as soon as its curve is found, one query per curve;
    the next curve is counted only after the reply, and none once the
    orders multiply past n. ``oracle_queries`` reports the count.

    The report reads failure when no invalid curve can be counted at this
    size (``not_staged``, nothing sent); when the oracle refuses a point
    (``blocked``); when its MAC matches no multiple of the point sent
    (``residue_not_found``); when the curves run out before their orders
    multiply past n (``not_staged``); or when no sign vector reproduces U_B
    (``no_candidate``), which includes more than ``MAX_SIGN_VECTOR_CURVES``
    curves, whose vectors are not tried.
    """
    params = config.params
    report = AttackReport("invalid_curve_attack", success=False)
    residues: list[tuple[tuple[int, ...], int]] = []  # (signed candidates, g)
    product = 1
    try:
        for hit in invalid_curves(params):
            curve = {"order": hit.n, "b": f"{hit.b:x}"}
            message, z = oracle.query(hit.G)
            values, trials = _brute_force_coset(config, hit, message, z)
            if not values:
                report.log("residue_not_found", **curve, mac_trials=trials)
                return report
            # d_B mod g is known only up to sign, as x(j*W) = x(-j*W); there
            # are two values when x(d_B*W) = 0, which the MAC cannot tell from
            # the lab's x(O) = 0
            residues.append((tuple(v * sign % hit.n for v in values
                                   for sign in (1, -1)), hit.n))
            product *= hit.n
            details = {"candidates": list(values)} if len(values) > 1 else {}
            report.log("residue_found", **curve, value=values[0],
                       mac_trials=trials, **details)
            if product > params.n:
                break
        else:
            report.log("not_staged", reason=f"product of small orders only reached "
                                            f"{product} when the curves ran out")
            return report
    except SearchBudgetExceeded as exc:
        report.log("not_staged", reason=str(exc))
        return report
    except hyh.Refused as exc:
        report.log("oracle_rejected", **curve, reason=str(exc))
        report.log("blocked", reason="recipient validates ephemeral points")
        return report
    finally:
        report.oracle_queries = oracle.queries

    d_b = _resolve_signs(params, residues, u_b)
    sign_vectors = math.prod(len(signed) for signed, _ in residues)
    if d_b is None:
        report.log("no_candidate", curves=len(residues),
                   sign_vectors_max=sign_vectors)
        return report
    report.log("crt_recombined", d_b=f"{d_b:x}", sign_vectors_max=sign_vectors)
    # _resolve_signs returns only a d_b with d_b*G == U_B
    report.success = True
    report.recovered_secrets = {"d_B": f"{d_b:x}", "residues": ",".join(
        f"{min(d_b % g, -d_b % g)}%{g}" for _, g in residues)}
    return report


def _brute_force_coset(config: SchemeConfig, hit: CurveParams,
                       message: bytes, z: bytes) -> tuple[tuple[int, ...], int]:
    """Scan j = 0 .. ceil(g/2) computing the MAC keyed by x(j*W); return the
    candidate residues and the MAC trials spent."""
    half = (hit.n + 1) // 2
    xs = enumerate(_coset_x(hit, half))
    for j, x in xs:
        if confirmation_mac(config, x, message) == z:
            # a match at j = 0 means x(d_B*W) = 0, which the j with
            # x(j*W) = 0, if there is one, fits as well
            also = [i for i, x_i in xs if x_i == 0] if j == 0 else []
            return (j, *also), j + 1
    return (), half + 1


def _coset_x(hit: CurveParams, half: int):
    """x(j*W) for j = 0 .. half, with the lab's x(O) = 0."""
    K: Point = None
    for _ in range(half + 1):
        yield x_coord(K)
        K = point_add(hit, K, hit.G)


def _resolve_signs(params: CurveParams, residues: list[tuple[tuple[int, ...], int]],
                   u_b: Point) -> int | None:
    """The d in [1, n-1] with d*G == U_B that a sign vector over the
    (signed candidates, g) pairs gives, or None."""
    if len(residues) > MAX_SIGN_VECTOR_CURVES:
        return None
    moduli = [g for _, g in residues]
    # a private key lies in [1, n-1]; d + n would pass the d*G check as well
    bound = min(math.prod(moduli), params.n)
    # the negation of every candidate is the candidate of the negated signs
    for choice in itertools.product(*(signed for signed, _ in residues)):
        d = crt_combine(list(zip(choice, moduli)))
        if 1 <= d < bound and fixed_base_mul(params, d, params.G) == u_b:
            return d
    return None


# --- toy certificate authority ----------------------------------------------

def _possession_body(identity: str) -> bytes:
    return b"possess\0" + identity.encode()


def make_possession_proof(config: SchemeConfig, keypair: KeyPair,
                          identity: str) -> tuple[Point, int]:
    """(R, s) of the request signcrypted to the applicant's own key: the
    scheme's signature on it, which anyone checks with ``hyh.public_verify``
    under the key, so the request need not carry the key."""
    sct = hyh.signcrypt(config, keypair.d, keypair.U,
                        _possession_body(identity), rng_seed=0)
    return sct.R, sct.s


def ca_issue(config: SchemeConfig, identity: str, public_key: Point,
             possession_proof: tuple[Point, int] | None = None) -> None:
    """Certify that public_key is identity's: return, or raise ``hyh.Refused``.

    A paper-mode CA -- the scheme's own operating model -- binds whatever it
    is handed: another party's key, an off-curve point, anything. A
    strict-mode CA raises ``hyh.Refused`` for a key that fails the check of
    every peer's point (``hyh.peer_point_failures``, which passes any key in
    paper mode), then for an applicant with no proof of possession (R, s)
    that ``hyh.public_verify`` accepts under that key. The CA is trusted
    and in memory, so a certificate is the pair its caller already holds."""
    failed = hyh.peer_point_failures(config, public_key)
    if failed:
        raise hyh.Refused(f"public key failed validation ({','.join(failed)})")
    if config.mode == hyh.STRICT and (
            possession_proof is None or not hyh.public_verify(
                config, public_key, _possession_body(identity), *possession_proof)):
        raise hyh.Refused(f"no valid proof of possession for {identity!r}")


# --- finding 6: unknown key-share -------------------------------------------

def uks_scenario(config: SchemeConfig, alice: KeyPair, bob: KeyPair,
                 rng: random.Random) -> AttackReport:
    """``MALLORY`` certifies Alice's public key under his own name and
    replays her traffic: Bob accepts ``UKS_MESSAGE`` as coming from Mallory
    while Alice believes she wrote to Bob. Works because the paper-mode CA
    never asks Mallory to prove he holds the private key for the key he
    registered; the strict-mode CA does, and refuses him."""
    report = AttackReport("uks_scenario", success=False)
    try:
        ca_issue(config, MALLORY, alice.U)
    except hyh.Refused as exc:
        report.log("certification_blocked", identity=MALLORY, reason=str(exc))
        return report
    report.log("certificate_issued", identity=MALLORY,
               bound_key="alice_public_key")

    try:
        sct = hyh.signcrypt(config, alice.d, bob.U, UKS_MESSAGE, rng_seed=rng)
    except ValueError as exc:  # no usable ephemeral scalar for Bob's key
        report.log("not_staged", reason=str(exc))
        return report
    report.log("alice_sent", sender="Alice", believed_recipient="Bob",
               ciphertext_len=len(sct.C))
    report.log("mallory_forwarded", claimed_sender=MALLORY)

    # Mallory's certified key is Alice's
    recovered = hyh.unsigncrypt(config, bob.d, alice.U, sct)
    report.log("bob_unsigncrypted", believed_sender=MALLORY,
               accepted=recovered is not None)

    report.success = recovered == UKS_MESSAGE
    if report.success:
        report.recovered_secrets = {"M_as_seen_by_bob": recovered.hex()}
        report.log("views_diverged", alice_thinks="Bob", bob_thinks=MALLORY)
    return report


# --- finding 9: no forward secrecy ------------------------------------------

def break_forward_secrecy(config: SchemeConfig, d_a: int, u_b: Point,
                          sct: SigncryptedText, message: bytes) -> AttackReport:
    """With the sender's long-term key and a known plaintext, the ephemeral
    scalar of a past session falls out as the r with s*r = H(M) + x_R*d_A
    mod n and r*G == R, and with it the session key of the ciphertext. No
    such r, or an s = 0 mod n, which leaves r free, is a ValueError."""
    params = config.params
    report = AttackReport("break_forward_secrecy", success=False)
    x_r = x_coord(sct.R) % params.n
    e = hash_to_scalar(config, message)
    r = _solve_for(params, sct.s, e + x_r * d_a, sct.R)
    if r is None:
        raise ValueError(
            "recovered r does not regenerate R; wrong message or sender key")
    report.log("ephemeral_recovered", r=f"{r:x}")
    x_k = x_coord(fixed_base_mul(params, r, u_b))
    redecrypted, _ = open_ciphertext(config, x_k, sct.C)
    report.log("session_redecrypted", matches=redecrypted == message)
    report.success = redecrypted == message
    if report.success:
        report.recovered_secrets = {"r": f"{r:x}", "x_K": f"{x_k:x}",
                                    "M": redecrypted.hex()}
    return report


# --- finding 8: identity point as session key -------------------------------

def degenerate_key_demo(config: SchemeConfig, alice: KeyPair,
                        bob: KeyPair) -> AttackReport:
    """Send Bob R = O, as from Alice, so his shared point is the identity
    and the keystream collapses to all zero bytes.

    A recipient that does not validate R 'decrypts' the ciphertext with the
    zero keystream; one that does rejects before touching it. If the group
    order is small enough, a message hashing to 0 mod n is also brute forced,
    and the triple built from it without any key at all must be accepted.
    Success means the plaintext read back verbatim and, when the forgery is
    attempted, that it was accepted. The keys and s = 1 never reach the
    report: R = O zeroes K and x_R*U_A, and strict mode refuses R first.
    """
    n = config.params.n
    report = AttackReport("degenerate_key_demo", success=False)
    message = b"weak key: the keystream below is all zeros"
    sct = SigncryptedText(R=None, C=message + message_tag(config, message, 1), s=1)
    trace = hyh.unsigncrypt_trace(config, bob.d, alice.U, sct)
    report.success = trace.session_key_x == 0 and trace.message_region == message
    report.log("identity_ephemeral", decrypt_attempted=trace.session_key_x is not None,
               rejected_at=trace.rejected_at,
               session_key_x=trace.session_key_x,
               plaintext_read_back_verbatim=report.success,
               tag_passed=trace.tag_ok)

    if n <= 1 << 21:  # the forgery needs ~n hash trials
        # R = O and H(M) = 0 mod n zero both sides of the verification equation
        plaintext = _zero_hash_message(n)
        forged = SigncryptedText(R=None, s=1,
                                 C=plaintext + message_tag(config, plaintext, 1))
        accepted = hyh.unsigncrypt(config, bob.d, alice.U, forged) == plaintext
        report.log("keyless_forgery", message=plaintext.hex(), accepted=accepted)
        report.success = report.success and accepted
        if report.success:
            report.recovered_secrets["forged_M"] = plaintext.hex()

    if trace.rejected_at == "ephemeral_point":
        report.log("blocked", reason="identity ephemeral point rejected")
    return report


@functools.lru_cache(maxsize=8)
def _zero_hash_message(n: int) -> bytes:
    """The first b"forged-<counter>" with H(M) = 0 mod n. Needs ~n hash
    trials, so it is found once per n and shared by every demo on that
    group; each trial copies the hash state of the common prefix."""
    prefix = b"forged-"
    base = hashlib.sha256(prefix)
    for counter in itertools.count():
        trial = base.copy()
        suffix = b"%d" % counter
        trial.update(suffix)
        if int.from_bytes(trial.digest(), "big") % n == 0:
            return prefix + suffix
