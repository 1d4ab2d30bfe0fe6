"""Modular and integer arithmetic helpers.

Everything here is a pure function on plain Python ints (which are already
arbitrary precision). Sizes are desk scale: factoring is trial division plus
Pollard rho, nothing is constant time, and none of it should ever touch a
production key.
"""

import math
import random

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
]

# Witnesses proving primality for every n < 3.3 * 10**24.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_DETERMINISTIC_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
_MR_RANDOM_ROUNDS = 40

DEFAULT_RHO_BUDGET = 1_000_000


class NotInvertible(ValueError):
    """Raised when an element has no inverse modulo m (gcd != 1)."""


def mod_inverse(a: int, m: int) -> int:
    """Return b with a*b = 1 (mod m)."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible mod {m}") from None


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below ~3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < _MR_DETERMINISTIC_BOUND:
        witnesses = _MR_DETERMINISTIC_WITNESSES
    else:
        rng = random.Random(n)
        witnesses = [rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS)]

    for a in witnesses:
        x = pow(a % n, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} for odd prime p."""
    v = pow(a % p, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


def sqrt_mod(a: int, p: int) -> int | None:
    """Smaller square root of a modulo an odd prime p, or None.

    Tonelli-Shanks; for p % 4 == 3 its first guess a^((p+1)/4) is the
    root. The smaller of the two roots is returned so results are
    deterministic.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    # p - 1 = s * 2^e with s odd
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1

    x = pow(a, (s + 1) // 2, p)
    b = pow(a, s, p)
    g = pow(z, s, p)
    r = e
    while True:
        t = b
        m = 0
        while t != 1:
            t = (t * t) % p
            m += 1
        if m == 0:
            return min(x, p - x)
        gs = pow(g, 1 << (r - m - 1), p)
        g = (gs * gs) % p
        x = (x * gs) % p
        b = (b * g) % p
        r = m


def crt_combine(residues: list[tuple[int, int]]) -> int:
    """Solve x = v_i (mod m_i) for pairwise coprime moduli.

    Returns the unique solution below the product of the moduli.
    """
    if not residues:
        raise ValueError("need at least one congruence")
    x, modulus = 0, 1
    for value, m in residues:
        if m < 1 or not 0 <= value < m:
            raise ValueError(f"residue {value} out of range for modulus {m}")
        g = math.gcd(modulus, m)
        if g != 1:
            raise ValueError(f"moduli share factor {g}")
        # x' = x + modulus * ((value - x) / modulus mod m)
        x = x + modulus * ((value - x) * mod_inverse(modulus, m) % m)
        modulus *= m
    return x % modulus


def _pollard_rho(n: int, rng: random.Random) -> int:
    """One non-trivial factor of composite odd n, Brent's cycle variant."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        count = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            count += r
            if count > DEFAULT_RHO_BUDGET:
                raise RuntimeError(
                    f"pollard rho exceeded {DEFAULT_RHO_BUDGET} iterations on {n}")
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
            if g == n:
                continue  # unlucky cycle, retry with new parameters
        return g


def factor(n: int) -> dict[int, int]:
    """Full prime factorization as {prime: exponent}. factor(1) == {}."""
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return factors

    rng = random.Random(0xFAC70)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))
