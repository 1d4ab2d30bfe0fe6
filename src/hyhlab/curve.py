"""Short-Weierstrass group arithmetic over prime fields.

Points are plain affine ``(x, y)`` tuples; the point at infinity is ``None``.
``point_add`` is the affine chord/tangent law, the reference every faster
path is tested against. ``scalar_mul`` works internally in Jacobian
coordinates and inverts once, at the end; it agrees with repeated
``point_add`` on every input, off-curve points included. ``fixed_base_mul``
gives the same results from a width-6 Lim-Lee comb; it is the one path by
which ``hyh`` and ``attacks`` multiply (G, the keys, each message's R). Its
one-block tables cost two batched inversions each and are kept in a
16-entry cache keyed on (params, base mod q); a base that keeps recurring,
as G and the long-lived keys do, earns a table of nine blocks in the same
entry. None of them ever checks whether its inputs satisfy the curve
equation: the formulas do not involve the coefficient ``b``, so they act
identically on every curve ``y^2 = x^3 + a*x + b'`` over the same field.
Validation is a separate, explicit step (``validate_public_key``). That
separation is the whole point of this module: it lets the rest of the lab
feed carefully crafted invalid points to code that forgot to check.
``invalid_curves`` finds such points one curve at a time, so the attack
sends each point as soon as its curve is found.
"""

import functools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, replace

from . import numtheory
from .numtheory import is_prime, legendre, mod_inverse, sqrt_mod

Point = tuple[int, int] | None

DEFAULT_COUNT_BOUND = 1 << 24

_SEARCH_TRIES = 4096

# Above this q the group exponents of E and of its quadratic twist always
# single out #E in the Hasse window (Cremona and Sutherland, "On a theorem
# of Mestre and Schoof", 2010); at or below it count_points enumerates.
_MESTRE_BOUND = 229

# Rows of the fixed-base comb, and how many (params, base) tables to keep.
_COMB_WIDTH = 6
_COMB_TABLES = 16

# Each b = 1 .. 2^w - 1 as (b less its top bit, the top bit's index), so a
# comb's T[b] is T[low] plus the row of that bit.
_COMB_SPLITS = tuple((b ^ 1 << b.bit_length() - 1, b.bit_length() - 1)
                     for b in range(1, 1 << _COMB_WIDTH))

# A cached base that has served _PROMOTE_AFTER multiplications swaps its
# comb for one of up to _PROMOTED_BLOCKS blocks, held in the same cache
# entry. At secp160r1 the nine-block table (about 125 KiB) takes about 4 ms
# to build and saves 24 doublings, about 80 us, on each multiplication, so
# it pays for itself after about 50 more. A base that has served 32 is one
# that recurs: G and the keys serve one or two multiplications per message,
# a message's R two or three in all.
_PROMOTE_AFTER = 32
_PROMOTED_BLOCKS = 9

# Random points count_points may sample, alternately on E and on its twist,
# before it gives up.
_COUNT_TRIES = 64

# The largest small order invalid_curves takes, and the curves it tries.
_SMALL_ORDER_BOUND = 1 << 14
_INVALID_CURVE_CANDIDATES = 64


class CurveTooLarge(ValueError):
    """Field at or beyond the point-counting bound."""


class SearchBudgetExceeded(RuntimeError):
    """A randomized point/curve search ran out of retries."""


@dataclass(frozen=True)
class CurveParams:
    """Domain parameters (q, a, b, G, n, h).

    Only basic shape is enforced here (odd q >= 5, coefficients reduced).
    Claims like "n is prime" or "n*G = O" are exactly that -- claims -- and
    are checked by the domain-parameter validator, never assumed.
    """

    q: int
    a: int
    b: int
    G: Point
    n: int
    h: int

    def __post_init__(self):
        if self.q < 5 or self.q % 2 == 0:
            raise ValueError(f"field modulus must be odd and >= 5, got {self.q}")
        if not (0 <= self.a < self.q and 0 <= self.b < self.q):
            raise ValueError("curve coefficients must be reduced mod q")


def negate(params: CurveParams, P: Point) -> Point:
    if P is None:
        return None
    x, y = P
    return (x, (-y) % params.q)


def point_add(params: CurveParams, P: Point, Q: Point) -> Point:
    """Chord/tangent addition. Total; happily adds off-curve points."""
    q = params.q
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        if y1 != y2:
            # Two points sharing x without being negatives can't lie on any
            # common curve; treating the sum as O keeps the law total.
            return None
        lam = (3 * x1 * x1 + params.a) * mod_inverse(2 * y1 % q, q) % q
    else:
        lam = (y2 - y1) * mod_inverse((x2 - x1) % q, q) % q
    x3 = (lam * lam - x1 - x2) % q
    y3 = (lam * (x1 - x3) - y1) % q
    return (x3, y3)


def scalar_mul(params: CurveParams, k: int, P: Point) -> Point:
    """k-fold sum of P. No reduction of k is performed.

    Left-to-right double-and-add on a running point (X, Y, Z) in Jacobian
    coordinates, x = X/Z^2 and y = Y/Z^3, with Z = 0 for O, plus mixed
    additions of the affine P; the one field inversion converts the result
    back (Cohen, Miyaji and Ono, ASIACRYPT 1998). Like ``point_add`` it never
    reads b. Every step is taken mod q, so coordinates outside [0, q) name
    the same point as their residues.
    """
    if k < 0:
        raise ValueError("scalar must be non-negative")
    if k == 0 or P is None:
        return None
    q, a = params.q, params.a
    X, Y, Z = P[0], P[1], 1
    for bit in bin(k)[3:]:
        X, Y, Z = _jacobian_double(q, a, X, Y, Z)
        if bit == "1":
            X, Y, Z = _mixed_add(q, a, X, Y, Z, P)
    return _batch_to_affine(q, [(X, Y, Z)])[0]


def fixed_base_mul(params: CurveParams, k: int, P: Point) -> Point:
    """k-fold sum of P from a comb table; equal to
    ``scalar_mul(params, k, P)`` on every input.

    The rule for callers: every point that ``hyh`` or ``attacks``
    multiplies goes through here: G, the keys, and each message's R, whose
    table serves both d_B*R and s*R. ``scalar_mul`` is for the one-off
    multiples inside ``curve`` and ``paramcheck``. A table is built on its
    point's first multiplication. Every round trip uses the tables of G,
    U_A and U_B, so a stream of fresh R's through the LRU cache evicts
    only R's.

    Lim-Lee comb of width w = 6 (CRYPTO 1994). With d = ceil(bitlen(n)/w),
    a k < 2^(w*d) is cut into w d-bit rows k_0..k_(w-1), k = sum
    k_j*2^(j*d). Column i of the rows selects T[b] = sum b_j*2^(j*d)*P,
    b_j = bit i of k_j, so k*P costs d Jacobian doublings, at most d mixed
    additions and one inversion. The 2^w - 1 = 63 points T[1..63] are
    built on P's first multiplication and kept in a bounded cache.

    Lim and Lee also cut each row into v blocks of e = ceil(d/v) bits, with
    one such table per block, shifted by 2^(t*e): k*P then costs e
    doublings and at most v*e additions, from v times the table. So the
    cache entry counts the multiplications it serves, and a base that
    reaches ``_PROMOTE_AFTER`` of them has its table replaced by one of
    v = min(9, d) blocks, if d > 1: at secp160r1, 3 doublings instead of
    27. The cache entry is the table's only home, so a base evicted from
    the cache loses its count with its table and earns it again from zero.

    A larger k, such as an attacker's Schnorr response or a paper-mode s
    near 256^scalar_width, goes to ``scalar_mul``.
    """
    if k < 0:
        raise ValueError("scalar must be non-negative")
    if k == 0 or P is None:
        return None
    d = _comb_row_bits(params)
    if k >> (_COMB_WIDTH * d):
        return scalar_mul(params, k, P)
    q, a = params.q, params.a
    # cached under the residues of P, so unreduced forms share one table
    P = (P[0] % q, P[1] % q)
    comb = _comb_table(params, P)
    comb.uses += 1
    if comb.uses == _PROMOTE_AFTER and d > 1:
        comb.table = _comb_blocks(params, P, min(_PROMOTED_BLOCKS, d))
    blocks = comb.table
    e = -(-d // len(blocks))
    width = len(blocks) * e
    # rows k_(w-1)..k_0 side by side, so column c of block t is every
    # width-th bit from i = t*e + c
    bits = format(k, f"0{_COMB_WIDTH * width}b")
    X, Y, Z = 1, 1, 0
    for c in range(e):
        X, Y, Z = _jacobian_double(q, a, X, Y, Z)
        for i in range(c, width, e):
            b = int(bits[i::width], 2)
            if b:
                X, Y, Z = _mixed_add(q, a, X, Y, Z, blocks[i // e][b])
    return _batch_to_affine(q, [(X, Y, Z)])[0]


def _comb_row_bits(params: CurveParams) -> int:
    """d = ceil(bitlen(n)/w), the width of each of the comb's w rows."""
    return -(-params.n.bit_length() // _COMB_WIDTH)


_Blocks = tuple[tuple[Point, ...], ...]


class _Comb:
    """A cached base's comb, one block until the base is promoted, and the
    multiplications it has served."""

    __slots__ = ("table", "uses")

    def __init__(self, table: _Blocks):
        self.table = table
        self.uses = 0


@functools.lru_cache(maxsize=_COMB_TABLES)
def _comb_table(params: CurveParams, P: Point) -> _Comb:
    """The cache entry of a base P, with its one-block comb."""
    return _Comb(_comb_blocks(params, P, 1))


def _comb_blocks(params: CurveParams, P: Point, v: int) -> _Blocks:
    """P's comb in v blocks, the highest first. With e = ceil(d/v), block t
    is T[b] = sum of the 2^(j*v*e + (v-1-t)*e)*P with bit j set in b, for
    b = 0 .. 2^w - 1; v = 1 gives the rows 2^(j*d)*P.

    All of them are multiples of P, so they lie on P's own curve, where the
    law is a group even when P is off params' curve. The w*v powers
    2^(m*e)*P come from Jacobian doublings and the sums from mixed
    additions; each set goes to affine with one batched inversion, so a
    table costs two inversions. Every step is taken mod q, so an unreduced
    P gives the table of its residues."""
    q, a = params.q, params.a
    e = -(-_comb_row_bits(params) // v)
    X, Y, Z = P[0], P[1], 1
    doubled = []
    for _ in range(_COMB_WIDTH * v - 1):
        for _ in range(e):
            X, Y, Z = _jacobian_double(q, a, X, Y, Z)
        doubled.append((X, Y, Z))
    powers = [P, *_batch_to_affine(q, doubled)]
    sums = []
    for shift in reversed(range(v)):
        rows = powers[shift::v]
        block = [(1, 1, 0)]
        for low, top in _COMB_SPLITS:
            block.append(_mixed_add(q, a, *block[low], rows[top]))
        sums += block[1:]
    flat = _batch_to_affine(q, sums)
    size = (1 << _COMB_WIDTH) - 1
    return tuple((None, *flat[i:i + size]) for i in range(0, len(flat), size))


def _mixed_add(q: int, a: int, X: int, Y: int, Z: int,
               P: Point) -> tuple[int, int, int]:
    """(X, Y, Z) + the affine P. The special cases copy ``point_add``: O
    plus P is P; when the x's agree the sum is O unless the two points are
    equal, when P is doubled."""
    if P is None:
        return X, Y, Z
    x, y = P
    if Z == 0:
        return x, y, 1
    ZZ = Z * Z % q
    H = (x * ZZ - X) % q
    r = (y * ZZ * Z - Y) % q
    if H == 0:
        return _jacobian_double(q, a, x, y, 1) if r == 0 else (1, 1, 0)
    HH = H * H % q
    HHH = H * HH % q
    V = X * HH % q
    X3 = (r * r - HHH - 2 * V) % q
    return X3, (r * (V - X3) - Y * HHH) % q, Z * H % q


def _batch_to_affine(q: int, points: list[tuple[int, int, int]]) -> list[Point]:
    """Each Jacobian (X, Y, Z) as the affine (X/Z^2, Y/Z^3), or O when
    Z = 0, with one inversion for the whole list (Montgomery, Math. Comp.
    1987): invert the product of the Z's, then peel off one Z at a time. A
    Z = 0 is left out of the product. ``scalar_mul`` and ``fixed_base_mul``
    convert their one result as a list of one."""
    prefix = []
    product = 1
    for _, _, Z in points:
        prefix.append(product)
        if Z:
            product = product * Z % q
    inv = mod_inverse(product, q)
    affine: list[Point] = [None] * len(points)
    for i in reversed(range(len(points))):
        X, Y, Z = points[i]
        if Z:
            z_inv = inv * prefix[i] % q
            inv = inv * Z % q
            z_inv2 = z_inv * z_inv % q
            affine[i] = (X * z_inv2 % q, Y * z_inv2 * z_inv % q)
    return affine


def _jacobian_double(q: int, a: int, X: int, Y: int, Z: int) -> tuple[int, int, int]:
    """2*(X, Y, Z) with M = 3X^2 + a*Z^4. Z3 = 2*Y*Z is 0 when Y or Z is, so
    doubling O or a point with y = 0 gives O."""
    YY = Y * Y % q
    ZZ = Z * Z % q
    S = 4 * X * YY % q
    M = (3 * X * X + a * ZZ * ZZ) % q
    X3 = (M * M - 2 * S) % q
    return X3, (M * (S - X3) - 8 * YY * YY) % q, 2 * Y * Z % q


def is_on_curve(params: CurveParams, P: Point) -> bool:
    if P is None:
        return True
    x, y = P
    return (y * y - (x * x * x + params.a * x + params.b)) % params.q == 0


def validate_public_key(params: CurveParams, U: Point) -> tuple[str, ...]:
    """The three-part public key check, as the labels of the conditions U
    fails, () when it passes: "a" U != O, "b" coordinates that are field
    elements, "c" the curve equation. All failures are reported, none
    raises."""
    if U is None:
        return ("a",)
    x, y = U
    failed = ()
    if not (isinstance(x, int) and isinstance(y, int)
            and 0 <= x < params.q and 0 <= y < params.q):
        failed += ("b",)
    if not is_on_curve(params, U):
        failed += ("c",)
    return failed


def count_points(params: CurveParams) -> int:
    """#E(F_q) including O, by Shanks-Mestre baby-step giant-step.

    Each random point P, on E or on its quadratic twist, contributes its
    exact order: baby-step giant-step finds a multiple of it in the Hasse
    window [q+1-2*sqrt(q), q+1+2*sqrt(q)], and point_order reduces that.
    With L the lcm of the orders on E and L' that on the twist, whose order
    is 2q+2-#E, the count is the one N in the window with L | N and
    L' | 2q+2-N. The points are seeded from (q, a, b), so the count and the
    work it does depend on the curve alone. Fields with q <= 229, where
    that N need not be unique, are enumerated (count_points_exhaustive).

    Raises CurveTooLarge for q >= DEFAULT_COUNT_BOUND, and ValueError for a
    composite q or a singular curve, which have no Hasse window to search.
    """
    q, a, b = params.q, params.a, params.b
    if q >= DEFAULT_COUNT_BOUND:
        raise CurveTooLarge(f"q = {q} exceeds counting bound {DEFAULT_COUNT_BOUND}")
    if not is_prime(q):
        raise ValueError(f"cannot count points: q = {q} is not prime")
    if (4 * a ** 3 + 27 * b * b) % q == 0:
        raise ValueError("cannot count points: the curve is singular")
    if q <= _MESTRE_BOUND:
        return count_points_exhaustive(params)
    d = 2
    while legendre(d, q) != -1:
        d += 1
    curves = (params, CurveParams(q, a * d * d % q, b * d ** 3 % q, None, 0, 0))
    span = math.isqrt(4 * q)
    lo, hi = q + 1 - span, q + 1 + span
    rng = random.Random(f"count_points {q} {a} {b}")
    orders = [1, 1]
    for attempt in range(_COUNT_TRIES):
        side = attempt % 2
        E = curves[side]
        P = random_point(E, rng)
        orders[side] = math.lcm(
            orders[side], point_order(E, P, _multiple_in_window(E, P, lo, hi)))
        L, L_twist = orders
        # the twist's order 2q+2-N lies in the same window as N
        fits = [N for N in range(-(-lo // L) * L, hi + 1, L)
                if (2 * q + 2 - N) % L_twist == 0]
        if len(fits) == 1:
            return fits[0]
    raise SearchBudgetExceeded(
        f"{_COUNT_TRIES} points left {len(fits)} candidate orders for #E")


def count_points_exhaustive(params: CurveParams) -> int:
    """#E(F_q) including O, by enumeration over x: the reference count.

    A multiplicity table of squares makes this a linear pass: for each x the
    number of y with y^2 = x^3 + ax + b is looked up directly. It costs
    O(q) time and memory, about half a second at q near 2^20.
    """
    q = params.q
    sq_mult = bytearray(q)
    for y in range(q):
        sq_mult[(y * y) % q] += 1
    a, b = params.a, params.b
    total = 1  # O
    for x in range(q):
        total += sq_mult[(x * x % q * x + a * x + b) % q]
    return total


def _multiple_in_window(params: CurveParams, P: Point, lo: int, hi: int) -> int:
    """Least N in [lo, hi] with N*P = O, by baby-step giant-step.

    The baby steps store -(j*P) for j < m; a giant step Q = (lo + i*m)*P that
    meets one gives N = lo + i*m + j. With m*m > hi - lo, m giant steps
    cover the window.
    """
    m = math.isqrt(hi - lo) + 1
    baby: dict[Point, int] = {}
    R: Point = None
    for j in range(m):
        baby.setdefault(negate(params, R), j)
        R = point_add(params, R, P)
    Q = scalar_mul(params, lo, P)
    for i in range(m):
        if Q in baby:
            return lo + i * m + baby[Q]
        Q = point_add(params, Q, R)
    raise ValueError(f"no multiple of {P} in [{lo}, {hi}]")


def point_order(params: CurveParams, P: Point, group_order: int) -> int:
    """Least m >= 1 with m*P = O, given an ambient group order."""
    if scalar_mul(params, group_order, P) is not None:
        raise ValueError(f"group order {group_order} does not annihilate {P}")
    m = group_order
    for p in numtheory.factor(group_order):
        while m % p == 0 and scalar_mul(params, m // p, P) is None:
            m //= p
    return m


def random_point(params: CurveParams, rng: random.Random) -> Point:
    """Uniform-ish random affine point on the curve, by x-lifting."""
    for _ in range(_SEARCH_TRIES):
        x = rng.randrange(params.q)
        rhs = (x * x % params.q * x + params.a * x + params.b) % params.q
        y = sqrt_mod(rhs, params.q)
        if y is None:
            continue
        if y != 0 and rng.getrandbits(1):
            y = params.q - y
        return (x, y)
    raise SearchBudgetExceeded("could not sample a point on the curve")


def find_point_of_order(params: CurveParams, g: int, group_order: int) -> Point:
    """Point of exact prime order g, via cofactor multiplication.

    The cofactor strips every other prime, landing in the g-Sylow subgroup;
    multiplying by g then walks down to order exactly g. The walk matters
    when g divides the order more than once and the Sylow subgroup is not
    cyclic (full torsion), where the naive group_order/g multiplier would
    annihilate everything. The random points are seeded from (q, a, b, g),
    so the point found depends on the curve and g alone.
    """
    if not is_prime(g):
        raise ValueError(f"target order {g} must be prime")
    if group_order % g != 0:
        raise ValueError(f"{g} does not divide the group order {group_order}")
    cofactor = group_order
    while cofactor % g == 0:
        cofactor //= g
    rng = random.Random(f"find_point_of_order {params.q} {params.a} {params.b} {g}")
    for _ in range(_SEARCH_TRIES):
        W = scalar_mul(params, cofactor, random_point(params, rng))
        while W is not None:
            lower = scalar_mul(params, g, W)
            if lower is None:
                return W
            W = lower
    raise SearchBudgetExceeded(f"no point of order {g} found in {_SEARCH_TRIES} tries")


def invalid_curves(params: CurveParams) -> Iterator[CurveParams]:
    """Curves differing from params only in b, each with a base point G of
    small prime order n and cofactor h = #E'/n, found one at a time.

    The candidates b+1, ..., b+64 are counted in order, each only when the
    next hit is asked for. A candidate yields a point of the largest prime
    order up to 2^14 that no earlier hit has, if its group has one; how many
    hits to ask for is the caller's decision. Every yielded G fails
    validation against the original curve.
    """
    taken: set[int] = set()
    for step in range(1, _INVALID_CURVE_CANDIDATES + 1):
        b2 = (params.b + step) % params.q
        if b2 == params.b or (4 * params.a ** 3 + 27 * b2 * b2) % params.q == 0:
            continue
        candidate = CurveParams(params.q, params.a, b2, None, 0, 0)
        order2 = count_points(candidate)
        usable = [g for g in numtheory.factor(order2)
                  if g <= _SMALL_ORDER_BOUND and g not in taken]
        if not usable:
            continue
        g = max(usable)
        W = find_point_of_order(candidate, g, order2)
        assert not is_on_curve(params, W)
        taken.add(g)
        yield replace(candidate, G=W, n=g, h=order2 // g)
