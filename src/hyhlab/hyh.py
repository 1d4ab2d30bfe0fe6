"""The HYH elliptic-curve signcryption scheme, runnable in two flavours.

``paper`` mode reproduces the scheme as published: no key validation, no
check on the ephemeral point, no check that the shared point is not the
identity, and a keystream that is nothing more than the x-coordinate of the
shared point repeated. ``strict`` mode is the same algebra with every
missing check switched on. Both modes exist side by side so each weakness
can be demonstrated against one and shown blocked against the other.

A signcrypted message is the triple (R, C, s):

    r  random in [1, n-1],  R = r*G,  K = r*U_B = (x_K, y_K)
    s  = r^-1 * (H(M) + (x_R mod n) * d_A)  mod n
    C  = (M || tag) XOR keystream(x_K),  tag = H(M || s)  (32 bytes)

and unsigncryption recomputes K = d_B * R, strips the keystream, and accepts
only if the tag matches and the public verification equation

    s*R == H(M)*G + (x_R mod n)*U_A

holds; on a curve of prime order it is checked as R == (H(M)/s)*G +
(x_R/s)*U_A, the same equation there (``_verify_equation``), so each R is
multiplied once, by d_B. H is SHA-256 throughout: it gives H(M), the tag
and, in the attacks, the confirmation MAC.

Each side hashes M once and XORs it once. One hash state over M gives H(M)
and, copied and fed the encoding of s, the tag H(M || s). ``xor_keystream``
XORs without building the keystream: byte i meets key byte i mod w, so it
remaps each of the w lanes of the message through one translate table.
``hash_to_scalar``, ``message_tag``, ``keystream`` and ``xor_bytes`` stay
the definitions, which the tests hold the fast path to. ``xor_bytes`` is a
plain bytewise XOR: off the cipher's path, it serves the nonce-reuse attack,
whose strings are a few dozen bytes.
"""

import functools
import hashlib
import math
import random
import re
from dataclasses import dataclass

from . import paramcheck
from .curve import (
    CurveParams,
    Point,
    fixed_base_mul,
    point_add,
    scalar_mul,
    validate_public_key,
)
from .numtheory import mod_inverse

PAPER = "paper"
STRICT = "strict"

TAG_LEN = 32

_RESAMPLE_LIMIT = 256


class Refused(ValueError):
    """Strict mode refused an input that paper mode would have used."""


@dataclass(frozen=True)
class SchemeConfig:
    params: CurveParams
    mode: str = PAPER

    def __post_init__(self):
        if self.mode not in (PAPER, STRICT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.params.n < 1:  # every scalar of the scheme is reduced mod n
            raise ValueError(f"subgroup order n = {self.params.n} is not positive")

    @property
    def scalar_width(self) -> int:
        return (self.params.n.bit_length() + 7) // 8

    @property
    def field_width(self) -> int:
        return (self.params.q.bit_length() + 7) // 8


@dataclass(frozen=True)
class KeyPair:
    d: int
    U: Point


@dataclass(frozen=True)
class SigncryptedText:
    R: Point
    C: bytes
    s: int


def _rng(seed_or_rng: int | random.Random | None) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def x_coord(P: Point) -> int:
    """x-coordinate with the lab convention x(O) = 0.

    The published scheme never guards against the identity, so to execute it
    faithfully the identity needs *some* x value; zero makes the degenerate
    keystream observable instead of crashing.
    """
    return 0 if P is None else P[0]


def hash_bytes(config: SchemeConfig, data: bytes) -> bytes:
    """H(data): SHA-256, for every mode and curve."""
    return hashlib.sha256(data).digest()


def hash_to_scalar(config: SchemeConfig, message: bytes) -> int:
    """Digest reduced into [0, n-1]."""
    return int.from_bytes(hash_bytes(config, message), "big") % config.params.n


def encode_scalar(config: SchemeConfig, v: int) -> bytes:
    return v.to_bytes(config.scalar_width, "big")


def encode_field(config: SchemeConfig, v: int) -> bytes:
    return v.to_bytes(config.field_width, "big")


def keystream(config: SchemeConfig, x_k: int, length: int) -> bytes:
    """The published cipher's keystream: the fixed-width encoding of x_K
    repeated cyclically. Deliberately linear; do not fix."""
    if length < 1:
        raise ValueError("keystream length must be >= 1")
    block = encode_field(config, x_k)
    reps = -(-length // len(block))
    return (block * reps)[:length]


def xor_bytes(data: bytes, stream: bytes) -> bytes:
    """Bytewise XOR, truncated to the shorter input like ``zip``."""
    return bytes(x ^ y for x, y in zip(data, stream))


def xor_keystream(config: SchemeConfig, x_k: int, data: bytes) -> bytes:
    """``xor_bytes(data, keystream(config, x_k, len(data)))``, without the
    keystream. Byte i always meets key byte i mod w, w the field width, so
    each lane data[i::w] is remapped by one translate table; a lane whose
    key byte is zero is left as it is."""
    if not data:
        raise ValueError("keystream length must be >= 1")
    width = config.field_width
    out = bytearray(data)
    for i, k in enumerate(encode_field(config, x_k)):
        if k:
            out[i::width] = out[i::width].translate(_xor_table(k))
    return bytes(out)


@functools.cache
def _xor_table(k: int) -> bytes:
    """The translate table of XOR with the byte k; built on first use, as
    most runs meet only the few key bytes of their sessions."""
    return bytes(b ^ k for b in range(256))


def _encodable(config: SchemeConfig, s: int) -> bool:
    """Whether s has a fixed-width encoding: s in [0, 256**scalar_width)."""
    return 0 <= s < 256 ** config.scalar_width


def message_tag(config: SchemeConfig, message: bytes, s: int) -> bytes | None:
    """The tag H(M || s), or None when s has no fixed-width encoding, in
    which case no tag can match it."""
    if not _encodable(config, s):
        return None
    return hash_bytes(config, message + encode_scalar(config, s))


def _hash_message(config: SchemeConfig, message: bytes):
    """H(M) mod n, as ``hash_to_scalar``, with the hash state over M, from
    which ``_tag`` makes H(M || s) without reading M again."""
    state = hashlib.sha256(message)
    return int.from_bytes(state.digest(), "big") % config.params.n, state


def _tag(config: SchemeConfig, state, s: int) -> bytes | None:
    """``message_tag`` from the hash state of M."""
    if not _encodable(config, s):
        return None
    tagged = state.copy()
    tagged.update(encode_scalar(config, s))
    return tagged.digest()


def open_ciphertext(config: SchemeConfig, x_k: int, C: bytes) -> tuple[bytes, bytes]:
    """Strip the keystream of x_K and split the plaintext into (M, tag)."""
    plain = xor_keystream(config, x_k, C)
    return plain[:-TAG_LEN], plain[-TAG_LEN:]


def _prime_order(params: CurveParams) -> bool:
    """Whether h = 1 and the domain parameters validate, which makes E(F_q)
    cyclic of the prime order n: every point of the curve other than O
    then has order n.

    The validator shows that n is prime and that G != O lies on the curve
    with n*G = O, so n divides #E. It also shows that h*n lies in the Hasse
    window and that n^2 > 16q: the window is 4*sqrt(q) wide and n is wider,
    so h*n is the one multiple of n in it, and #E = h*n. With h = 1, #E = n
    is prime. h is tested first, so h != 1 never triggers a validation.
    """
    return params.h == 1 and paramcheck.validate_domain_params(params).overall


def peer_point_failures(config: SchemeConfig, P: Point) -> tuple[str, ...]:
    """Strict mode's one check of a peer's point (an ephemeral R, U_A, U_B,
    a key handed to the CA), as the labels of what P fails, () when it
    passes: the labels of ``validate_public_key``, or "order" when P passes
    those but n*P != O (SEC 1 v2, section 3.2.2.1), which on the curve holds
    under ``_prime_order`` without a multiplication. Paper mode checks no
    point: every P passes."""
    if config.mode == PAPER:
        return ()
    params = config.params
    failed = validate_public_key(params, P)
    if failed or _prime_order(params) or scalar_mul(params, params.n, P) is None:
        return failed
    return ("order",)


def recipient_shared_point(config: SchemeConfig, d_b: int,
                           R: Point) -> tuple[Point, str | None]:
    """The recipient's step K = d_B * R, as (K, None), or (None, reason) when
    strict mode refuses. The paper checks nothing here; strict mode refuses
    an R that is not a valid point of order n (``ephemeral_point``) and a K
    that is the identity (``shared_point_identity``). R is a fresh point,
    multiplied by ``scalar_mul``: a comb table for it would serve only this
    one multiplication."""
    if peer_point_failures(config, R):
        return None, "ephemeral_point"
    K = scalar_mul(config.params, d_b, R)
    if config.mode == STRICT and K is None:
        return None, "shared_point_identity"
    return K, None


def gen(config: SchemeConfig, rng_seed: int | random.Random | None = None) -> KeyPair:
    """Fresh key pair d, U = d*G. Strict mode raises ``Refused`` unless the
    domain parameters validate; paper mode asks no questions."""
    if config.mode == STRICT:
        report = paramcheck.validate_domain_params(config.params)
        if not report.overall:
            raise Refused(
                "domain parameters failed: " + ", ".join(report.failed_names())
            )
    rng = _rng(rng_seed)
    d = rng.randrange(1, config.params.n)
    return keypair_from_secret(config, d)


def keypair_from_secret(config: SchemeConfig, d: int) -> KeyPair:
    """d, U = d*G. U's comb table is built by its first multiplication, in
    the first message to or from the key."""
    params = config.params
    if not 1 <= d < params.n:
        raise ValueError("secret scalar out of range")
    return KeyPair(d=d, U=fixed_base_mul(params, d, params.G))


def signcrypt(config: SchemeConfig, d_a: int, u_b: Point, message: bytes,
              rng_seed: int | random.Random | None = None,
              forced_r: int | None = None) -> SigncryptedText:
    """Signcrypt message from the holder of d_a to the holder of u_b: the
    one-message case of ``signcrypt_under_one_r``."""
    return signcrypt_under_one_r(config, d_a, u_b, (message,),
                                 rng_seed, forced_r)[1][0]


def signcrypt_under_one_r(config: SchemeConfig, d_a: int, u_b: Point,
                          messages: tuple[bytes, ...],
                          rng_seed: int | random.Random | None = None,
                          forced_r: int | None = None
                          ) -> tuple[int, list[SigncryptedText]]:
    """(r, texts): each message signcrypted from the holder of d_a to the
    holder of u_b under the one ephemeral scalar r, so the texts share R and
    K. The one loop that draws r, for ``signcrypt`` and for the stagings of
    a leaked or reused r.

    An r is drawn again, ``_RESAMPLE_LIMIT`` times at most, when x_R mod n
    = 0, K = O, r has no inverse mod n or some message's s = 0. forced_r
    pins r for tests and attack stagings that reproduce nonce misuse on
    demand. A degenerate forced r, or no usable r drawn, is a ValueError.
    Strict mode raises ``Refused`` for a recipient key that fails
    ``peer_point_failures``.
    """
    params = config.params
    n = params.n
    if not all(messages):
        raise ValueError("message must be non-empty")
    if not 1 <= d_a < n:
        raise ValueError("sender secret out of range")
    failed = peer_point_failures(config, u_b)
    if failed:
        raise Refused(f"recipient key failed validation ({','.join(failed)})")
    hashed = [_hash_message(config, m) for m in messages]
    rng = _rng(rng_seed)
    for _ in range(_RESAMPLE_LIMIT):
        r = forced_r if forced_r is not None else rng.randrange(1, n)
        if not 1 <= r < n:
            raise ValueError("forced ephemeral scalar out of range")
        R = fixed_base_mul(params, r, params.G)
        K = fixed_base_mul(params, r, u_b)
        x_r = x_coord(R) % n
        # an r with no inverse mod n, as under a composite n, is degenerate
        r_inv = mod_inverse(r, n) if math.gcd(r, n) == 1 else 0
        s_values = [r_inv * (e + x_r * d_a) % n for e, _ in hashed]
        if x_r == 0 or K is None or 0 in s_values:
            if forced_r is not None:
                raise ValueError("forced ephemeral scalar hits a degenerate case")
            continue
        return r, [SigncryptedText(R=R, s=s, C=xor_keystream(
                       config, x_coord(K), m + _tag(config, state, s)))
                   for m, (_, state), s in zip(messages, hashed, s_values)]
    raise ValueError("no usable ephemeral scalar found; recipient key degenerate?")


@dataclass(frozen=True)
class UnsigncryptTrace:
    """Step-by-step record of one unsigncryption, which stops at its first
    failed check. Lab instrument only: ``unsigncrypt`` collapses it to
    message-or-nothing, so rejection reasons never leak to a peer.

    The triple was accepted when ``message`` is not None, and decrypted at
    all when ``session_key_x`` is not None."""

    message: bytes | None
    rejected_at: str | None
    message_region: bytes | None = None
    session_key_x: int | None = None
    tag_ok: bool | None = None


def unsigncrypt_trace(config: SchemeConfig, d_b: int, u_a: Point,
                      sct: SigncryptedText) -> UnsigncryptTrace:
    R, C, s = sct.R, sct.C, sct.s
    if len(C) < TAG_LEN + 1:
        return UnsigncryptTrace(None, "length")
    K, refused = recipient_shared_point(config, d_b, R)
    if refused:
        return UnsigncryptTrace(None, refused)
    x_k = x_coord(K)
    message, tag = open_ciphertext(config, x_k, C)
    e, state = _hash_message(config, message)
    tag_ok = tag == _tag(config, state, s)
    accepted = tag_ok and _verify_equation(config, u_a, e, R, s)
    return UnsigncryptTrace(
        message=message if accepted else None,
        rejected_at=None if accepted else ("tag" if not tag_ok else "signature"),
        message_region=message,
        session_key_x=x_k,
        tag_ok=tag_ok,
    )


def unsigncrypt(config: SchemeConfig, d_b: int, u_a: Point,
                sct: SigncryptedText) -> bytes | None:
    """Recover the message, or None for any rejection."""
    return unsigncrypt_trace(config, d_b, u_a, sct).message


def public_verify(config: SchemeConfig, u_a: Point, message: bytes, R: Point,
                  s: int) -> bool:
    """Anyone holding the message can check s*R == H(M)*G + (x_R mod n)*U_A.
    An s with no fixed-width encoding fails, as no tag can be made for it.
    Strict mode also refuses an s outside [1, n-1], so that s + n cannot
    stand in for an honest s, and an R (such as the keyless forgery's O) or
    a U_A that fails ``peer_point_failures``; the paper has none of these
    checks. Strict unsigncrypt checks R before ``_verify_equation``."""
    return not peer_point_failures(config, R) and _verify_equation(
        config, u_a, hash_to_scalar(config, message), R, s)


def _verify_equation(config: SchemeConfig, u_a: Point, e: int, R: Point,
                     s: int) -> bool:
    """``public_verify`` with e = H(M) mod n already computed.

    Under ``_prime_order``, with R and U_A points of the curve other than O
    (``validate_public_key``) and s prime to n, the equation is checked as
    R == (e*w)*G + (x_R*w)*U_A, w = s^-1 mod n, as ECDSA verifies (Johnson,
    Menezes and Vanstone, IJIS 2001), so R, used once, is not multiplied.
    The two are one equation there: E(F_q) has the prime order n, so n*R =
    n*Q = O for R and Q = e*G + x_R*U_A, and s*R == Q gives w*Q = (w*s)*R =
    R, while R == w*Q gives s*R = (s*w)*Q = Q. Every other input, an R or
    U_A off the group among them, checks the paper's s*R == Q itself.
    """
    params = config.params
    n = params.n
    if not _encodable(config, s):
        return False
    if (config.mode == STRICT and not 1 <= s < n
            or peer_point_failures(config, u_a)):
        return False
    x_r = x_coord(R) % n
    if (s % n and _prime_order(params) and not validate_public_key(params, R)
            and not validate_public_key(params, u_a)):
        w, lhs = mod_inverse(s, n), R
    else:
        w, lhs = 1, scalar_mul(params, s, R)
    return lhs == point_add(params, fixed_base_mul(params, e * w % n, params.G),
                            fixed_base_mul(params, x_r * w % n, u_a))


# --- wire format -----------------------------------------------------------

def point_to_hex(P: Point, name: str) -> dict:
    """P as the hex fields ``<name>x`` and ``<name>y``; O is ("00", "inf")."""
    x, y = ("00", "inf") if P is None else (f"{P[0]:x}", f"{P[1]:x}")
    return {name + "x": x, name + "y": y}


def point_from_hex(obj: dict, name: str) -> Point:
    """The point that ``point_to_hex`` wrote under name; a ``<name>y`` of
    "inf" is O, whatever ``<name>x`` holds."""
    if obj[name + "y"] == "inf":
        return None
    return (int_from_hex(obj[name + "x"]), int_from_hex(obj[name + "y"]))


def int_from_hex(text: str) -> int:
    """The integer in a field of lowercase hex digits, the one spelling of
    every integer in a params, key or wire file; a sign, "0x", a space, "_"
    or a capital, which ``int(text, 16)`` takes, is a ValueError."""
    if not (isinstance(text, str) and re.fullmatch("[0-9a-f]+", text)):
        raise ValueError(f"{text!r} is not a lowercase hex number")
    return int(text, 16)


def bytes_from_hex(text: str) -> bytes:
    """The bytes in lowercase hex digit pairs, the one spelling of a ciphertext;
    a capital or a space is a ValueError, whose message does not echo text."""
    if not (isinstance(text, str) and re.fullmatch("(?:[0-9a-f]{2})*", text)):
        raise ValueError("ciphertext is not lowercase hex bytes")
    return bytes.fromhex(text)


def sct_to_dict(sct: SigncryptedText) -> dict:
    return {**point_to_hex(sct.R, "R"), "C": sct.C.hex(), "s": f"{sct.s:x}"}


def sct_from_dict(obj: dict) -> SigncryptedText:
    return SigncryptedText(R=point_from_hex(obj, "R"), C=bytes_from_hex(obj["C"]),
                           s=int_from_hex(obj["s"]))
