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
leaked key and plaintext that do not give R (a ``ValueError``), or when the
domain parameters admit no attack at all, as a composite n with no inverse
where the key formula needs one (``NotInvertible``).
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
    CurveTooLarge,
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
from .numtheory import crt_combine, mod_inverse

MAX_SIGN_VECTOR_CURVES = 24
QUERY_BUDGET = 64
CONFIRMATION_MESSAGE = b"delivery confirmed"
MALLORY = "Mallory"
UKS_MESSAGE = b"quarterly figures attached"


class QueryBudgetExceeded(RuntimeError):
    """Confirmation oracle refused: query budget spent."""


@dataclass
class AttackReport:
    attack_name: str
    success: bool
    recovered_secrets: dict[str, str] = field(default_factory=dict)
    oracle_queries: int = 0
    transcript: list[dict] = field(default_factory=list)

    def log(self, event: str, **details):
        self.transcript.append({"event": event, **details})


def _hex(v: int) -> str:
    return f"{v:x}"


# --- finding 1: leaked ephemeral scalar ------------------------------------

def recover_sender_key(config: SchemeConfig, u_a: Point, u_b: Point,
                       sct: SigncryptedText, r: int) -> AttackReport:
    """Recover the sender's long-term key from one intercepted triple plus
    its ephemeral scalar: d_A = x_R^-1 * (r*s - H(M)) mod n."""
    params = config.params
    n = params.n
    report = AttackReport("recover_sender_key", success=False)
    if fixed_base_mul(params, r, params.G) != sct.R:
        raise ValueError("r*G does not match the transmitted R")
    x_k = x_coord(fixed_base_mul(params, r, u_b))
    message, tag = open_ciphertext(config, x_k, sct.C)
    report.log("decrypted", message=message.hex(),
               tag_matches=tag == message_tag(config, message, sct.s))
    x_r = x_coord(sct.R) % n
    d_a = mod_inverse(x_r, n) * (r * sct.s - hash_to_scalar(config, message)) % n
    report.log("key_formula_applied", d_a=_hex(d_a))
    report.success = fixed_base_mul(params, d_a, params.G) == u_a
    if report.success:
        report.recovered_secrets = {
            "d_A": _hex(d_a), "M": message.hex(), "x_K": _hex(x_k),
        }
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
    ``hyh.Refused``. It answers at most ``QUERY_BUDGET`` queries.
    """

    def __init__(self, d_b: int, config: SchemeConfig):
        self._d_b = d_b
        self.config = config
        self.queries = 0

    def query(self, W: Point) -> tuple[bytes, bytes]:
        if self.queries >= QUERY_BUDGET:
            raise QueryBudgetExceeded(f"budget of {QUERY_BUDGET} queries spent")
        self.queries += 1
        K, refused = hyh.recipient_shared_point(self.config, self._d_b, W)
        if refused:
            raise hyh.Refused("incoming ephemeral point failed validation")
        z = confirmation_mac(self.config, x_coord(K), CONFIRMATION_MESSAGE)
        return CONFIRMATION_MESSAGE, z


@dataclass(frozen=True)
class Residue:
    """The victim's key modulo a small order, known only up to sign: the MAC
    depends on the shared point's x-coordinate alone, and x(j*W) = x(-j*W).
    It is one of ``values``; there are two when x(d_B*W) = 0, which the MAC
    cannot tell from the lab's x(O) = 0."""

    values: tuple[int, ...]
    modulus: int

    def signed(self) -> tuple[int, ...]:
        return tuple(v * sign % self.modulus
                     for v in self.values for sign in (1, -1))


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

    Each point is sent as soon as its curve is found; the next curve is
    counted only after the reply, and none once the orders multiply past n.

    The report reads failure when no invalid curve can be counted at this
    size (``not_staged``, nothing sent); when the oracle refuses a point or
    its budget is spent; when its MAC matches no multiple of the point sent
    (``residue_not_found``); when the curves run out before their orders
    multiply past n (``not_staged``); or when no sign vector reproduces U_B
    (``no_candidate``), which includes more than ``MAX_SIGN_VECTOR_CURVES``
    curves, whose vectors are not tried.
    """
    params = config.params
    report = AttackReport("invalid_curve_attack", success=False)
    residues: list[Residue] = []
    hits = invalid_curves(params)
    product = 1
    while product <= params.n:
        try:
            hit = next(hits)
        except StopIteration:
            report.log("not_staged", reason=f"product of small orders only reached "
                                            f"{product} when the curves ran out")
            return report
        except (CurveTooLarge, SearchBudgetExceeded) as exc:
            report.log("not_staged", reason=str(exc))
            return report
        curve = {"order": hit.n, "b": _hex(hit.b)}
        try:
            message, z = oracle.query(hit.G)
        except hyh.Refused as exc:
            report.log("oracle_rejected", **curve, reason=str(exc))
            report.log("blocked", reason="recipient validates ephemeral points")
            return report
        except QueryBudgetExceeded as exc:
            report.log("budget_spent", **curve, reason=str(exc))
            return report
        finally:
            report.oracle_queries = oracle.queries
        values, trials = _brute_force_coset(config, hit, message, z)
        if not values:
            report.log("residue_not_found", **curve, mac_trials=trials)
            return report
        residues.append(Residue(values=values, modulus=hit.n))
        product *= hit.n
        details = {"candidates": list(values)} if len(values) > 1 else {}
        report.log("residue_found", **curve, value=values[0],
                   mac_trials=trials, **details)

    d_b = _resolve_signs(params, residues, u_b)
    sign_vectors = math.prod(len(r.signed()) for r in residues)
    if d_b is None:
        report.log("no_candidate", curves=len(residues),
                   sign_vectors_max=sign_vectors)
        return report
    report.log("crt_recombined", d_b=_hex(d_b), sign_vectors_max=sign_vectors)
    # _resolve_signs returns only a d_b with d_b*G == U_B
    report.success = True
    report.recovered_secrets = {"d_B": _hex(d_b), "residues": ",".join(
        f"{min(d_b % r.modulus, -d_b % r.modulus)}%{r.modulus}" for r in residues)}
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


def _resolve_signs(params: CurveParams, residues: list[Residue],
                   u_b: Point) -> int | None:
    """The d in [1, n-1] with d*G == U_B that a sign vector gives, or None."""
    if len(residues) > MAX_SIGN_VECTOR_CURVES:
        return None
    # a private key lies in [1, n-1]; d + n would pass the d*G check as well
    bound = min(math.prod(r.modulus for r in residues), params.n)
    # the negation of every candidate is the candidate of the negated signs
    for choice in itertools.product(*(r.signed() for r in residues)):
        d = crt_combine([(v, r.modulus) for v, r in zip(choice, residues)])
        if 1 <= d < bound and fixed_base_mul(params, d, params.G) == u_b:
            return d
    return None


# --- toy certificate authority ----------------------------------------------

@dataclass(frozen=True)
class Certificate:
    subject_identity: str
    public_key: Point


def _point_bytes(config: SchemeConfig, P: Point) -> bytes:
    if P is None:
        return b"INF"
    return encode_field(config, P[0]) + encode_field(config, P[1])


def schnorr_sign(config: SchemeConfig, d: int, message: bytes,
                 rng: random.Random) -> bytes:
    """(R, z) with R = k*G, z = k + H(R || message)*d mod n. Raises
    ``hyh.RngFailure`` when no k in ``hyh._RESAMPLE_LIMIT`` draws gives
    R != O and z != 0, as on a curve whose G has order 2."""
    params = config.params
    for _ in range(hyh._RESAMPLE_LIMIT):
        k = rng.randrange(1, params.n)
        R = fixed_base_mul(params, k, params.G)
        c = hash_to_scalar(config, _point_bytes(config, R) + message)
        z = (k + c * d) % params.n
        if z != 0 and R is not None:
            return _point_bytes(config, R) + hyh.encode_scalar(config, z)
    raise hyh.RngFailure("no usable Schnorr nonce found; G degenerate?")


def schnorr_verify(config: SchemeConfig, public_key: Point, message: bytes,
                   signature: bytes) -> bool:
    """Whether z*G == R + H(R || message)*public_key. An R with a coordinate
    outside [0, q) fails: ``point_add`` compares coordinates as integers,
    and an unreduced R beside its reduced twin would divide by zero."""
    params = config.params
    w = config.field_width
    if len(signature) != 2 * w + config.scalar_width:
        return False
    R: Point = (int.from_bytes(signature[:w], "big"),
                int.from_bytes(signature[w:2 * w], "big"))
    if not (R[0] < params.q and R[1] < params.q):
        return False
    z = int.from_bytes(signature[2 * w:], "big")
    c = hash_to_scalar(config, signature[:2 * w] + message)
    lhs = fixed_base_mul(params, z, params.G)
    rhs = point_add(params, R, fixed_base_mul(params, c, public_key))
    return lhs == rhs


def _possession_body(config: SchemeConfig, identity: str, public_key: Point) -> bytes:
    return b"possess\0" + identity.encode() + b"\0" + _point_bytes(config, public_key)


def make_possession_proof(config: SchemeConfig, keypair: KeyPair,
                          identity: str) -> bytes:
    """Signature over a fixed-format request, proving control of the key."""
    return schnorr_sign(config, keypair.d,
                        _possession_body(config, identity, keypair.U),
                        random.Random(0))


def ca_issue(config: SchemeConfig, identity: str, public_key: Point,
             possession_proof: bytes | None = None) -> Certificate:
    """Issue a certificate binding identity to public_key.

    A paper-mode CA -- the scheme's own operating model -- binds whatever it
    is handed: another party's key, an off-curve point, anything. A
    strict-mode CA requires the key to pass the check strict mode applies to
    every peer's point (``hyh.peer_point_failures``) and the applicant to
    present a valid signature of possession under that key, and raises
    ``hyh.Refused`` when either fails. The CA lives in memory and is
    trusted, so a certificate carries no signature of its own.
    """
    if config.mode == hyh.STRICT:
        failed = hyh.peer_point_failures(config, public_key)
        if failed:
            raise hyh.Refused(
                f"public key failed validation ({','.join(failed)})")
        if possession_proof is None or not schnorr_verify(
                config, public_key,
                _possession_body(config, identity, public_key),
                possession_proof):
            raise hyh.Refused(
                f"no valid proof of possession for {identity!r}")
    return Certificate(subject_identity=identity, public_key=public_key)


# --- finding 6: unknown key-share -------------------------------------------

def uks_scenario(config: SchemeConfig, alice: KeyPair, bob: KeyPair,
                 rng_seed: int = 0) -> AttackReport:
    """``MALLORY`` certifies Alice's public key under his own name and
    replays her traffic: Bob accepts ``UKS_MESSAGE`` as coming from Mallory
    while Alice believes she wrote to Bob. Works because the paper-mode CA
    never asks Mallory to prove he holds the private key for the key he
    registered; the strict-mode CA does, and refuses him."""
    report = AttackReport("uks_scenario", success=False)
    try:
        mallory_cert = ca_issue(config, MALLORY, alice.U)
    except hyh.Refused as exc:
        report.log("certification_blocked", identity=MALLORY, reason=str(exc))
        return report
    report.log("certificate_issued", identity=MALLORY,
               bound_key="alice_public_key")

    sct = hyh.signcrypt(config, alice.d, bob.U, UKS_MESSAGE,
                        rng_seed=random.Random(rng_seed ^ 0x5C))
    report.log("alice_sent", sender="Alice", believed_recipient="Bob",
               ciphertext_len=len(sct.C))
    report.log("mallory_forwarded", claimed_sender=MALLORY)

    recovered = hyh.unsigncrypt(config, bob.d, mallory_cert.public_key, sct)
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
    scalar of a past session falls out as r = s^-1 (H(M) + x_R d_A) mod n,
    and with it the session key that protected the ciphertext."""
    params = config.params
    n = params.n
    report = AttackReport("break_forward_secrecy", success=False)
    x_r = x_coord(sct.R) % n
    r = mod_inverse(sct.s, n) * (hash_to_scalar(config, message) + x_r * d_a) % n
    if fixed_base_mul(params, r, params.G) != sct.R:
        raise ValueError(
            "recovered r does not regenerate R; wrong message or sender key")
    report.log("ephemeral_recovered", r=_hex(r))
    x_k = x_coord(fixed_base_mul(params, r, u_b))
    redecrypted, _ = open_ciphertext(config, x_k, sct.C)
    report.log("session_redecrypted", matches=redecrypted == message)
    report.success = redecrypted == message
    if report.success:
        report.recovered_secrets = {"r": _hex(r), "x_K": _hex(x_k),
                                    "M": redecrypted.hex()}
    return report


# --- finding 8: identity point as session key -------------------------------

def degenerate_key_demo(config: SchemeConfig, rng_seed: int = 0) -> AttackReport:
    """Send R = O so the recipient's shared point is the identity and the
    keystream collapses to all zero bytes.

    A recipient that does not validate R 'decrypts' the ciphertext with the
    zero keystream; one that does rejects before touching it. If the group
    order is small enough, a message hashing to 0 mod n is also brute forced,
    and the triple built from it without any key at all must be accepted.
    Success means the plaintext read back verbatim and, when the forgery is
    attempted, that it was accepted.
    """
    n = config.params.n
    report = AttackReport("degenerate_key_demo", success=False)
    rng = random.Random(rng_seed)
    bob = hyh.keypair_from_secret(config, rng.randrange(1, n))
    alice = hyh.keypair_from_secret(config, rng.randrange(1, n))

    message = b"weak key: the keystream below is all zeros"
    s = rng.randrange(1, n)
    sct = SigncryptedText(R=None, C=message + message_tag(config, message, s), s=s)
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
