import dataclasses

import pytest

from hyhlab import curve as cv
from hyhlab import fixtures, hyh
from hyhlab.curve import CurveParams
from hyhlab.hyh import PAPER, STRICT, SchemeConfig
from hyhlab.numtheory import mod_inverse


@pytest.fixture(scope="session")
def f23():
    """The 28-point classroom curve y^2 = x^3 + x + 1 over F_23, with the
    full group order claimed so every subgroup is reachable."""
    return CurveParams(q=23, a=1, b=1, G=(0, 1), n=28, h=1)


@pytest.fixture(scope="session")
def f23_n7():
    return fixtures.load(fixtures.F23_N7)


@pytest.fixture(scope="session")
def toy16():
    return fixtures.load(fixtures.TOY16)


@pytest.fixture(scope="session")
def good_params():
    return fixtures.load(fixtures.GOOD)


@pytest.fixture(scope="session")
def paper16(toy16):
    return SchemeConfig(params=toy16, mode=PAPER)


@pytest.fixture(scope="session")
def strict16(toy16):
    return SchemeConfig(params=toy16, mode=STRICT)


def _reference_encrypt(config, K, message, s):
    """C = (M || H(M || s)) XOR keystream(x_K), from the definitions."""
    plain = message + hyh.message_tag(config, message, s)
    stream = hyh.keystream(config, hyh.x_coord(K), len(plain))
    return hyh.xor_bytes(plain, stream)


@pytest.fixture(scope="session")
def reference_signcrypt():
    """signcrypt(config, d_a, u_b, message, r) -> the triple the paper
    defines for the ephemeral scalar r, written from scalar_mul and the
    definitions of H, the tag, the keystream and the XOR."""

    def signcrypt(config, d_a, u_b, message, r):
        params = config.params
        n = params.n
        R = cv.scalar_mul(params, r, params.G)
        K = cv.scalar_mul(params, r, u_b)
        s = mod_inverse(r, n) * (hyh.hash_to_scalar(config, message)
                                 + hyh.x_coord(R) % n * d_a) % n
        return hyh.SigncryptedText(R=R, C=_reference_encrypt(config, K, message, s), s=s)

    return signcrypt


@pytest.fixture(scope="session")
def keyless_forgery():
    """forge(config, u_a, order, u_b, message) -> a signcrypted text that
    public_verify accepts for u_a without its secret, when u_a has the given
    small order on its own curve. With x_R mod n a multiple of that order,
    x_R*U_A = O, and s = r^-1*H(M) makes s*R = H(M)*G. C is encrypted for
    u_b as signcrypt would, so its tag passes."""

    def forge(config, u_a, order, u_b, message):
        params = config.params
        n = params.n
        for r in range(1, n):
            R = cv.scalar_mul(params, r, params.G)
            K = cv.scalar_mul(params, r, u_b)
            if R is None or K is None or R[0] % n % order:
                continue
            s = mod_inverse(r, n) * hyh.hash_to_scalar(config, message) % n
            if s == 0:
                continue
            return hyh.SigncryptedText(R=R, C=_reference_encrypt(config, K, message, s), s=s)
        raise AssertionError("no usable r")

    return forge


@pytest.fixture(scope="session")
def small_order_sender_keys(toy16):
    """case -> (params, U_A, order of U_A on its own curve): O, a point
    (x, 0) off toy16, and an order-2 point of toy16 (h = 4) under a false
    h = 1 claim, which fails validation and so keeps the order check."""
    x = next(x for x in range(toy16.q) if not cv.is_on_curve(toy16, (x, 0)))
    W = cv.find_point_of_order(toy16, 2, toy16.h * toy16.n, rng_seed=0)
    return {"identity": (toy16, None, 1), "off_curve": (toy16, (x, 0), 2),
            "order_2": (dataclasses.replace(toy16, h=1), W, 2)}
