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

holds.

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
import random
from dataclasses import dataclass

from . import paramcheck
from .curve import (
    CurveParams,
    Point,
    fixed_base_mul,
    point_add,
    validate_public_key,
)
from .numtheory import mod_inverse

PAPER = "paper"
STRICT = "strict"

TAG_LEN = 32

_RESAMPLE_LIMIT = 256


class InvalidParams(ValueError):
    """Strict-mode refusal: domain parameters failed validation."""


class InvalidRecipientKey(ValueError):
    """Strict-mode refusal: recipient public key failed validation."""


class RngFailure(RuntimeError):
    """Could not sample a usable ephemeral scalar."""


@dataclass(frozen=True)
class SchemeConfig:
    params: CurveParams
    mode: str = PAPER
    hash_name: str = "sha256"

    def __post_init__(self):
        if self.mode not in (PAPER, STRICT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if hashlib.new(self.hash_name).digest_size < TAG_LEN:
            raise ValueError(f"hash {self.hash_name} is narrower than the tag")

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
    return hashlib.new(config.hash_name, data).digest()


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


@functools.lru_cache(maxsize=256)
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
    return hash_bytes(config, message + encode_scalar(config, s))[:TAG_LEN]


def _hash_message(config: SchemeConfig, message: bytes):
    """H(M) mod n, as ``hash_to_scalar``, with the hash state over M, from
    which ``_tag`` makes H(M || s) without reading M again."""
    state = hashlib.new(config.hash_name, message)
    return int.from_bytes(state.digest(), "big") % config.params.n, state


def _tag(config: SchemeConfig, state, s: int) -> bytes | None:
    """``message_tag`` from the hash state of M."""
    if not _encodable(config, s):
        return None
    tagged = state.copy()
    tagged.update(encode_scalar(config, s))
    return tagged.digest()[:TAG_LEN]


def open_ciphertext(config: SchemeConfig, x_k: int, C: bytes) -> tuple[bytes, bytes]:
    """Strip the keystream of x_K and split the plaintext into (M, tag)."""
    plain = xor_keystream(config, x_k, C)
    return plain[:-TAG_LEN], plain[-TAG_LEN:]


def _has_order_n(config: SchemeConfig, P: Point) -> bool:
    """Whether n*P = O (SEC 1 v2, section 3.2.2.1). Precondition: P has
    passed ``validate_public_key``, so it lies on the curve, as in its one
    caller ``_valid_of_order_n``; the shortcut below holds only for such
    points.

    With h = 1 and domain parameters that pass the validator, the answer is
    yes without a multiplication. The validator shows that n is prime and that
    G != O lies on the curve with n*G = O, so n divides #E. It also shows
    that h*n lies in the Hasse window and that n^2 > 16q: the window is
    4*sqrt(q) wide and n is wider, so h*n is the one multiple of n in it,
    and #E = h*n. With h = 1, #E = n is prime, and every point of the curve
    other than O has order n. h is tested first, so h != 1 never triggers a
    validation.
    """
    params = config.params
    if params.h == 1 and paramcheck.validate_domain_params(params).overall:
        return True
    return fixed_base_mul(params, params.n, P) is None


def _valid_of_order_n(config: SchemeConfig, P: Point) -> bool:
    """Strict mode's check of a peer's point (an ephemeral R, U_A, U_B):
    it passes ``validate_public_key`` and has order n."""
    return not validate_public_key(config.params, P) and _has_order_n(config, P)


def recipient_shared_point(config: SchemeConfig, d_b: int,
                           R: Point) -> tuple[Point, str | None]:
    """The recipient's step K = d_B * R, as (K, None), or (None, reason) when
    strict mode refuses. The paper checks nothing here; strict mode refuses
    an R that is not a valid point of order n (``ephemeral_point``) and a K
    that is the identity (``shared_point_identity``)."""
    if config.mode == STRICT and not _valid_of_order_n(config, R):
        return None, "ephemeral_point"
    K = fixed_base_mul(config.params, d_b, R)
    if config.mode == STRICT and K is None:
        return None, "shared_point_identity"
    return K, None


def gen(config: SchemeConfig, rng_seed: int | random.Random | None = None) -> KeyPair:
    """Fresh key pair d, U = d*G. Strict mode insists the domain parameters
    validate first; paper mode asks no questions."""
    if config.mode == STRICT:
        report = paramcheck.validate_domain_params(config.params)
        if not report.overall:
            raise InvalidParams(
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
    """Signcrypt message from the holder of d_a to the holder of u_b.

    forced_r pins the ephemeral scalar; it exists so tests and attack
    stagings can reproduce nonce misuse on demand.
    """
    params = config.params
    n = params.n
    if not message:
        raise ValueError("message must be non-empty")
    if not 1 <= d_a < n:
        raise ValueError("sender secret out of range")
    if config.mode == STRICT and not _valid_of_order_n(config, u_b):
        failed = validate_public_key(params, u_b)
        raise InvalidRecipientKey(
            f"recipient key failed validation ({','.join(failed) or 'order'})"
        )
    e, state = _hash_message(config, message)
    rng = _rng(rng_seed)
    for _ in range(_RESAMPLE_LIMIT):
        r = forced_r if forced_r is not None else rng.randrange(1, n)
        if not 1 <= r < n:
            raise ValueError("forced ephemeral scalar out of range")
        R = fixed_base_mul(params, r, params.G)
        K = fixed_base_mul(params, r, u_b)
        x_r = x_coord(R) % n
        if x_r == 0 or K is None:
            if forced_r is not None:
                raise ValueError("forced ephemeral scalar hits a degenerate case")
            continue
        s = mod_inverse(r, n) * (e + x_r * d_a) % n
        if s == 0:
            if forced_r is not None:
                raise ValueError("forced ephemeral scalar yields s = 0")
            continue
        C = xor_keystream(config, x_coord(K), message + _tag(config, state, s))
        return SigncryptedText(R=R, C=C, s=s)
    raise RngFailure("no usable ephemeral scalar found; recipient key degenerate?")


@dataclass(frozen=True)
class UnsigncryptTrace:
    """Step-by-step record of one unsigncryption. Lab instrument only: the
    protocol-facing result is collapsed to message-or-nothing by
    ``unsigncrypt`` so rejection reasons never leak to a peer.

    The triple was accepted when ``message`` is not None, and decrypted at
    all when ``session_key_x`` is not None."""

    message: bytes | None
    rejected_at: str | None
    message_region: bytes | None = None
    session_key_x: int | None = None
    tag_ok: bool | None = None
    signature_ok: bool | None = None


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
    sig_ok = _verify_equation(config, u_a, e, R, s)
    accepted = tag_ok and sig_ok
    return UnsigncryptTrace(
        message=message if accepted else None,
        rejected_at=None if accepted else ("tag" if not tag_ok else "signature"),
        message_region=message,
        session_key_x=x_k,
        tag_ok=tag_ok,
        signature_ok=sig_ok,
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
    stand in for an honest s, and a U_A that is not a valid point of order
    n; the paper has neither check."""
    return _verify_equation(config, u_a, hash_to_scalar(config, message), R, s)


def _verify_equation(config: SchemeConfig, u_a: Point, e: int, R: Point,
                     s: int) -> bool:
    """``public_verify`` with e = H(M) mod n already computed."""
    params = config.params
    if not _encodable(config, s):
        return False
    if config.mode == STRICT and not (
            1 <= s < params.n and _valid_of_order_n(config, u_a)):
        return False
    lhs = fixed_base_mul(params, s, R)
    rhs = point_add(
        params,
        fixed_base_mul(params, e, params.G),
        fixed_base_mul(params, x_coord(R) % params.n, u_a),
    )
    return lhs == rhs


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
    return (int(obj[name + "x"], 16), int(obj[name + "y"], 16))


def sct_to_dict(sct: SigncryptedText) -> dict:
    return {**point_to_hex(sct.R, "R"), "C": sct.C.hex(), "s": f"{sct.s:x}"}


def sct_from_dict(obj: dict) -> SigncryptedText:
    return SigncryptedText(R=point_from_hex(obj, "R"), C=bytes.fromhex(obj["C"]),
                           s=int(obj["s"], 16))
