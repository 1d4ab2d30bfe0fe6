import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyhlab import curve as cv
from hyhlab import fixtures
from hyhlab import numtheory as nt

from conftest import COMPOSITE_N, MOV, N_EQ_Q, SMALL_N, SUPERSINGULAR, TOY16


def all_points(params):
    """Independent enumeration: try every (x, y) pair against the equation."""
    pts = [None]
    for x in range(params.q):
        for y in range(params.q):
            if (y * y - (x**3 + params.a * x + params.b)) % params.q == 0:
                pts.append((x, y))
    return pts


class TestParams:
    def test_rejects_even_or_tiny_field(self):
        with pytest.raises(ValueError):
            cv.CurveParams(q=4, a=1, b=1, G=None, n=1, h=1)
        with pytest.raises(ValueError):
            cv.CurveParams(q=3, a=1, b=1, G=None, n=1, h=1)

    def test_rejects_unreduced_coefficients(self):
        with pytest.raises(ValueError):
            cv.CurveParams(q=23, a=25, b=1, G=None, n=1, h=1)


class TestPointAdd:
    def test_identity(self, f23):
        for P in [(0, 1), (6, 19), None]:
            assert cv.point_add(f23, P, None) == P
            assert cv.point_add(f23, None, P) == P

    def test_negation(self, f23):
        assert cv.point_add(f23, (0, 1), (0, 22)) is None
        W2 = (4, 0)  # the unique order-2 point is its own negative
        assert cv.point_add(f23, W2, W2) is None

    def test_shared_x_without_negation(self, f23):
        # (0, 1) lies on f23 and (0, y2) on y^2 = x^3 + x + y2^2: no curve
        # of the family holds both, and the total law calls their sum O
        for y2 in (5, 11, 17):
            assert cv.point_add(f23, (0, 1), (0, y2)) is None
            assert cv.point_add(f23, (0, y2), (0, 1)) is None

    def test_doubling_example(self, f23):
        # tangent slope at (0,1): (3*0+1)/2 = 12 mod 23, so x3 = 144-0 = 6
        got = cv.point_add(f23, (0, 1), (0, 1))
        assert got == (6, 19)
        assert cv.is_on_curve(f23, got)

    def test_off_curve_inputs_accepted(self, f23):
        # both points sit on y^2 = x^3 + x + 5 instead of b = 1
        shifted = cv.CurveParams(q=23, a=1, b=5, G=None, n=1, h=1)
        pts = [(x, y) for x in range(23) for y in range(23)
               if cv.is_on_curve(shifted, (x, y))]
        P, Q = pts[0], pts[1]
        R = cv.point_add(f23, P, Q)
        # the sum stays on the shifted curve: the formulas never read b
        assert cv.is_on_curve(shifted, R)
        assert not cv.is_on_curve(f23, R) or R is None


def affine_scalar_mul(params, k, P):
    """The reference: right-to-left double-and-add on the affine law."""
    if k < 0:
        raise ValueError("scalar must be non-negative")
    R, acc = None, P
    while k:
        if k & 1:
            R = cv.point_add(params, R, acc)
        acc = cv.point_add(params, acc, acc)
        k >>= 1
    return R


class TestScalarMul:
    def test_small_scalars(self, f23):
        P = (0, 1)
        assert cv.scalar_mul(f23, 0, P) is None
        assert cv.scalar_mul(f23, 1, P) == P
        assert cv.scalar_mul(f23, 2, P) == cv.point_add(f23, P, P)

    def test_matches_repeated_addition(self, f23):
        P = (0, 1)
        acc = None
        for k in range(51):
            assert cv.scalar_mul(f23, k, P) == acc
            acc = cv.point_add(f23, acc, P)

    def test_negative_rejected(self, f23):
        with pytest.raises(ValueError):
            cv.scalar_mul(f23, -1, (0, 1))
        with pytest.raises(ValueError):
            cv.scalar_mul(f23, -1, None)

    @pytest.mark.parametrize("k", [0, 1, 2, 28, 1 << 200])
    def test_identity_input(self, f23, k):
        assert cv.scalar_mul(f23, k, None) is None


class TestScalarMulMatchesAffine:
    """scalar_mul (Jacobian) against the affine reference, on and off the
    curve: the invalid-curve attack multiplies points of other curves."""

    @pytest.mark.parametrize("a", [0, 1, 22])
    def test_every_point_of_f23(self, a):
        # b is never read, so the 529 pairs cover every curve with this a,
        # singular ones included; k passes twice the largest group order.
        # The reference k*P is the k-fold sum on the affine law, one
        # addition per k
        params = cv.CurveParams(q=23, a=a, b=1, G=None, n=1, h=1)
        for x in range(23):
            for y in range(23):
                P = (x, y)
                acc = None
                for k in range(70):
                    assert cv.scalar_mul(params, k, P) == acc
                    acc = cv.point_add(params, acc, P)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           name=st.sampled_from([TOY16, fixtures.GOOD, fixtures.SECP160R1]))
    def test_random_points_and_scalars(self, data, name):
        params = fixtures.load(name)
        q = params.q
        if data.draw(st.booleans(), label="on_curve"):
            P = cv.random_point(params, random.Random(data.draw(st.integers())))
        else:
            P = (data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1)))
        k = data.draw(st.one_of(st.integers(0, 64), st.integers(0, 4 * params.n)))
        # unreduced coordinates in [q, 2q) name the same point
        shift = data.draw(st.sampled_from([(0, 0), (q, 0), (0, q), (q, q)]))
        unreduced = (P[0] + shift[0], P[1] + shift[1])
        assert cv.scalar_mul(params, k, unreduced) == affine_scalar_mul(params, k, P)

    @pytest.mark.parametrize("name", [TOY16, fixtures.GOOD,
                                      fixtures.SECP160R1])
    def test_group_order_and_its_neighbours(self, name):
        params = fixtures.load(name)
        for k in (params.n - 1, params.n, params.n + 1, 2 * params.n):
            assert (cv.scalar_mul(params, k, params.G)
                    == affine_scalar_mul(params, k, params.G))
        assert cv.scalar_mul(params, params.n - 1, params.G) == cv.negate(params, params.G)

    def test_small_order_point_off_the_curve(self, good_params):
        # the order-3 point of b' = b + 1 that the invalid-curve attack sends
        W = (657345, 967893)
        assert not cv.is_on_curve(good_params, W)
        for k in range(10):
            assert cv.scalar_mul(good_params, k, W) == affine_scalar_mul(good_params, k, W)
        assert cv.scalar_mul(good_params, 3, W) is None


ALL_FIXTURES = [fixtures.GOOD, TOY16, fixtures.F23_N7,
                COMPOSITE_N, SMALL_N, MOV,
                N_EQ_Q, SUPERSINGULAR, fixtures.SECP160R1]


def comb_span(params):
    """2^(w*d), d = ceil(bitlen(n)/w) for the comb width w: fixed_base_mul
    combs the k below it."""
    return 1 << cv._COMB_WIDTH * cv._comb_row_bits(params)


class TestFixedBaseMul:
    """fixed_base_mul (comb) against scalar_mul and the affine reference, on
    and off the curve: a paper-mode public key may be any pair."""

    @pytest.mark.parametrize("n", [5, 7, 29])
    @pytest.mark.parametrize("a", [0, 1, 22])
    def test_every_point_of_f23(self, a, n):
        # k passes every group order over F_23 (at most 33); the claimed n
        # sets the comb's d = ceil(bitlen(n)/w), here 1, so k = span = 2^w
        # is the first k to leave the comb. Rows of several bits are
        # exercised on the fixtures below (d = 3 on toy16, 27 on secp160r1)
        params = cv.CurveParams(q=23, a=a, b=1, G=None, n=n, h=1)
        span = comb_span(params)
        for x in range(23):
            for y in range(23):
                P = (x, y)
                acc = None
                for k in range(40):
                    assert cv.fixed_base_mul(params, k, P) == acc
                    acc = cv.point_add(params, acc, P)
                for k in (span - 1, span, span + 1):
                    assert (cv.fixed_base_mul(params, k, P)
                            == cv.scalar_mul(params, k, P))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(ALL_FIXTURES))
    def test_random_bases_and_scalars(self, data, name):
        params = fixtures.load(name)
        q, n = params.q, params.n
        base = data.draw(st.sampled_from(["G", "on_curve", "random"]), label="base")
        if base == "G":
            P = params.G
        elif base == "on_curve":
            P = cv.random_point(params, random.Random(data.draw(st.integers())))
        else:
            P = (data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1)))
        span = comb_span(params)
        k = data.draw(st.one_of(st.integers(0, 64), st.integers(0, 4 * n),
                                st.integers(span - 1, span + 4 * n)), label="k")
        # unreduced coordinates in [q, 3q) name the same point
        shift = data.draw(st.tuples(st.sampled_from([0, q, 2 * q]),
                                    st.sampled_from([0, q, 2 * q])))
        unreduced = (P[0] + shift[0], P[1] + shift[1])
        expected = affine_scalar_mul(params, k, P)
        assert cv.fixed_base_mul(params, k, unreduced) == expected
        assert cv.scalar_mul(params, k, unreduced) == expected

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_every_fixture_at_the_edges(self, name):
        params = fixtures.load(name)
        span = comb_span(params)
        for k in (0, 1, 2, params.n - 1, params.n, params.n + 1,
                  span - 1, span, span + 1):
            assert (cv.fixed_base_mul(params, k, params.G)
                    == affine_scalar_mul(params, k, params.G))

    def test_negative_scalar_and_identity_base(self, f23):
        for P in [(0, 1), None]:
            with pytest.raises(ValueError):
                cv.fixed_base_mul(f23, -1, P)
        for k in [0, 1, 28, 1 << 200]:
            assert cv.fixed_base_mul(f23, k, None) is None

    def test_unreduced_base_shares_the_reduced_table(self, good_params):
        # the order-3 point of b' = b + 1 with q added to its x
        W = (657345, 967893)
        cv._comb_table.cache_clear()
        assert cv.fixed_base_mul(good_params, 4, W) == W
        assert cv.fixed_base_mul(good_params, 4, (W[0] + good_params.q, W[1])) == W
        info = cv._comb_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_table_cache_is_bounded(self, f23):
        for x in range(40):
            cv.fixed_base_mul(f23, 5, (x, 1))
        info = cv._comb_table.cache_info()
        assert info.maxsize == 16 and info.currsize == 16

    @pytest.mark.parametrize("base", ["G", "off_curve"])
    @pytest.mark.parametrize("name", [fixtures.GOOD, TOY16, fixtures.SECP160R1])
    def test_across_the_promotion(self, name, base):
        # the base's first multiplication builds its one table, of
        # min(9, d) blocks, and every later one, in either form, reads that
        # same table: one cache miss and one entry however many uses
        params = fixtures.load(name)
        q = params.q
        P = params.G if base == "G" else (q // 3, q // 5)
        assert base == "G" or not cv.is_on_curve(params, P)
        cv._comb_table.cache_clear()
        rng = random.Random(name)
        span = comb_span(params)
        v = min(cv._COMB_BLOCKS, cv._comb_row_bits(params))
        for i in range(1, 13):
            k = rng.randrange(span) if i % 3 else span - i
            form = (P[0] + q, P[1]) if i % 2 else P
            assert cv.fixed_base_mul(params, k, form) == cv.scalar_mul(params, k, P)
            info = cv._comb_table.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, i - 1, 1)
        assert len(cv._comb_table(params, P)) == v

    def test_evicted_base_earns_its_table_again(self, good_params):
        # 16 fresh bases push a base out of the cache; its next use builds
        # the same table again, and its results still equal scalar_mul
        params = good_params
        cv._comb_table.cache_clear()

        def serve(P, times):
            for k in range(1, times + 1):
                assert cv.fixed_base_mul(params, k, P) == cv.scalar_mul(params, k, P)

        P = cv.scalar_mul(params, 2, params.G)
        serve(P, 4)
        table = cv._comb_table(params, P)
        assert cv._comb_table.cache_info().misses == 1
        for i in range(3, 3 + cv._COMB_TABLES):
            serve(cv.scalar_mul(params, i, params.G), 1)
        info = cv._comb_table.cache_info()
        assert (info.misses, info.currsize) == (1 + cv._COMB_TABLES, cv._COMB_TABLES)
        serve(P, 4)
        assert cv._comb_table.cache_info().misses == 2 + cv._COMB_TABLES
        rebuilt = cv._comb_table(params, P)
        assert rebuilt is not table and rebuilt == table


def reference_comb_blocks(params, P, v):
    """The comb in v blocks from the affine law alone. With e = ceil(d/v),
    each power 2^(m*e)*P is the one before it doubled e times with
    point_add; block t takes the powers 2^(j*v*e + (v-1-t)*e)*P as its rows,
    and T[b] adds the rows of b's bits in the order _comb_table does."""
    e = -(-cv._comb_row_bits(params) // v)
    powers = [P]
    for _ in range(cv._COMB_WIDTH * v - 1):
        R = powers[-1]
        for _ in range(e):
            R = cv.point_add(params, R, R)
        powers.append(R)
    blocks = []
    for shift in reversed(range(v)):
        rows = powers[shift::v]
        table = [None]
        for b in range(1, 1 << cv._COMB_WIDTH):
            top = b.bit_length() - 1
            table.append(cv.point_add(params, table[b ^ (1 << top)], rows[top]))
        blocks.append(tuple(table))
    return tuple(blocks)


@functools.cache
def comb_coefficients(v, e):
    """The multiplier of P in each entry of a comb in v blocks of e-bit
    columns: block t's T[b] is the sum of the 2^(j*v*e + (v-1-t)*e) with
    bit j set in b."""
    w = cv._COMB_WIDTH
    return tuple(tuple(sum(1 << (j * v + v - 1 - t) * e for j in range(w) if b >> j & 1)
                       for b in range(1 << w))
                 for t in range(v))


def comb_by_definition(params, P, v):
    """The comb in v blocks entry by entry as c*P, with c from
    comb_coefficients, read off the multiples of P that repeated point_add
    gives. It walks the whole group of P, so it is for F_23 only."""
    multiples, R = [None], P
    while R is not None:
        multiples.append(R)
        R = cv.point_add(params, R, P)
    e = -(-cv._comb_row_bits(params) // v)
    return tuple(tuple(multiples[c % len(multiples)] for c in block)
                 for block in comb_coefficients(v, e))


class TestCombTable:
    """_comb_table, built with Jacobian doublings and mixed additions and
    two batched inversions, against the affine law entry by entry, in the
    min(9, d) blocks the library builds. The build is called uncached, so
    every case builds its own table."""

    build = staticmethod(cv._comb_table.__wrapped__)

    @pytest.mark.parametrize("n", [5, 7, 29])
    @pytest.mark.parametrize("a", [0, 1, 22])
    def test_every_point_of_f23(self, a, n):
        # small-order bases make rows and sums O, which the batched
        # conversions must leave out of their products. A claimed n of 5, 7
        # or 29 gives d = 1, so the table is one block
        params = cv.CurveParams(q=23, a=a, b=1, G=None, n=n, h=1)
        hit_identity = False
        for x in range(23):
            for y in range(23):
                blocks = self.build(params, (x, y))
                assert blocks == comb_by_definition(params, (x, y), 1)
                hit_identity |= None in blocks[0][1:]
        assert hit_identity

    @pytest.mark.parametrize("a", [0, 1, 22])
    def test_every_point_of_f23_promoted(self, a):
        # nine blocks of e = 1 bit: each base doubled 53 times, and most
        # chains reach O early. A claimed 54-bit n gives d = 9, so the
        # library's own table is nine blocks of one bit
        params = cv.CurveParams(q=23, a=a, b=1, G=None, n=1 << 53, h=1)
        assert cv._comb_row_bits(params) == cv._COMB_BLOCKS == 9
        for x in range(23):
            for y in range(23):
                blocks = self.build(params, (x, y))
                assert len(blocks) == 9
                assert blocks == comb_by_definition(params, (x, y), 9)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(ALL_FIXTURES))
    def test_random_bases(self, data, name):
        params = fixtures.load(name)
        q = params.q
        base = data.draw(st.sampled_from(["G", "random"]), label="base")
        if base == "G":
            P = params.G
        else:
            P = (data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1)))
        # unreduced coordinates in [q, 3q) give the table of the residues
        shift = data.draw(st.tuples(st.sampled_from([0, q, 2 * q]),
                                    st.sampled_from([0, q, 2 * q])))
        unreduced = (P[0] + shift[0], P[1] + shift[1])
        v = min(9, cv._comb_row_bits(params))
        assert self.build(params, unreduced) == reference_comb_blocks(params, P, v)


def _affine_of(q, X, Y, Z):
    """(X/Z^2, Y/Z^3), or O for Z = 0: the definition, point by point."""
    if Z == 0:
        return None
    return X * pow(Z, -2, q) % q, Y * pow(Z, -3, q) % q


class TestBatchToAffine:
    """_batch_to_affine, the one Jacobian-to-affine conversion, against
    _affine_of on batches that mix Z = 0 and Z != 0."""

    @pytest.mark.parametrize("batch", [
        [(5, 7, 0)], [(5, 7, 1)], [(5, 7, 3)], [(0, 0, 0), (1, 1, 0)],
        [(5, 7, 0), (5, 7, 3)], [(5, 7, 3), (5, 7, 0)],
        [(1, 2, 0), (3, 4, 5), (6, 7, 0), (8, 9, 22)],
    ])
    def test_small_batches(self, batch):
        assert cv._batch_to_affine(23, batch) == [_affine_of(23, *P) for P in batch]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(ALL_FIXTURES))
    def test_random_batches(self, data, name):
        q = fixtures.load(name).q
        coord = st.integers(0, q - 1)
        z = st.one_of(st.just(0), st.integers(1, q - 1))
        batch = data.draw(st.lists(st.tuples(coord, coord, z), min_size=1, max_size=8))
        assert cv._batch_to_affine(q, batch) == [_affine_of(q, *P) for P in batch]


class TestGroupLawExhaustive:
    """The 28-element group is small enough to check the axioms outright."""

    def test_point_census(self, f23):
        pts = all_points(f23)
        assert len(pts) == 28
        assert cv.count_points(f23) == 28

    def test_closure_and_commutativity(self, f23):
        pts = all_points(f23)
        for P in pts:
            for Q in pts:
                R = cv.point_add(f23, P, Q)
                assert R is None or cv.is_on_curve(f23, R)
                assert R == cv.point_add(f23, Q, P)

    def test_associativity(self, f23):
        pts = all_points(f23)
        for P in pts:
            for Q in pts:
                PQ = cv.point_add(f23, P, Q)
                for R in pts:
                    left = cv.point_add(f23, PQ, R)
                    right = cv.point_add(f23, P, cv.point_add(f23, Q, R))
                    assert left == right

    def test_inverses(self, f23):
        for P in all_points(f23):
            assert cv.point_add(f23, P, cv.negate(f23, P)) is None


class TestIsOnCurve:
    def test_examples(self, f23):
        assert cv.is_on_curve(f23, None)
        assert cv.is_on_curve(f23, (0, 1))
        assert not cv.is_on_curve(f23, (0, 2))


class TestValidatePublicKey:
    def test_identity_fails_a(self, f23):
        assert cv.validate_public_key(f23, None) == ("a",)

    def test_out_of_range_fails_b(self, f23):
        assert "b" in cv.validate_public_key(f23, (23 + 3, 1))

    def test_off_curve_fails_c(self, f23):
        assert cv.validate_public_key(f23, (0, 2)) == ("c",)

    def test_honest_keys_pass(self, f23):
        for d in range(1, 28):
            U = cv.scalar_mul(f23, d, (0, 1))
            if U is not None:
                assert cv.validate_public_key(f23, U) == ()


class TestCountPoints:
    def test_supersingular_f23(self):
        params = cv.CurveParams(q=23, a=1, b=0, G=None, n=1, h=1)
        assert cv.count_points(params) == 24  # q + 1: trace zero

    def test_too_large(self):
        params = cv.CurveParams(q=(1 << 30) + 1, a=1, b=1, G=None, n=1, h=1)
        with pytest.raises(cv.SearchBudgetExceeded, match="exceeds counting bound"):
            cv.count_points(params)

    @pytest.mark.parametrize("b", range(1, 8))
    def test_hasse_interval(self, b):
        params = cv.CurveParams(q=103, a=5, b=b, G=None, n=1, h=1)
        if (4 * 125 + 27 * b * b) % 103 == 0:
            pytest.skip("singular")
        N = cv.count_points(params)
        t = 103 + 1 - N
        assert t * t <= 4 * 103

    def test_composite_field_refused(self):
        params = cv.CurveParams(q=1003, a=1, b=1, G=None, n=1, h=1)
        with pytest.raises(ValueError, match="not prime"):
            cv.count_points(params)

    @pytest.mark.parametrize("q", [23, 1009])
    def test_singular_curve_refused(self, q):
        with pytest.raises(ValueError, match="singular"):
            cv.count_points(cv.CurveParams(q=q, a=0, b=0, G=None, n=1, h=1))

    @settings(max_examples=100, deadline=None)
    @given(q=st.sampled_from([q for q in range(230, 1 << 14) if nt.is_prime(q)]),
           a=st.integers(min_value=0), b=st.integers(min_value=0))
    def test_matches_exhaustive_count(self, q, a, b):
        params = cv.CurveParams(q=q, a=a % q, b=b % q, G=None, n=1, h=1)
        assume((4 * params.a ** 3 + 27 * params.b ** 2) % q != 0)
        assert cv.count_points(params) == cv.count_points_exhaustive(params)

    def test_matches_exhaustive_on_invalid_curve_candidates(self, toy16):
        # the curves invalid_curves scans: b+1, ..., b+64
        for step in range(1, 65):
            candidate = cv.CurveParams(toy16.q, toy16.a, (toy16.b + step) % toy16.q,
                                       None, 0, 0)
            if (4 * candidate.a ** 3 + 27 * candidate.b ** 2) % toy16.q == 0:
                continue
            assert cv.count_points(candidate) == cv.count_points_exhaustive(candidate)

    @pytest.mark.parametrize("q, a, b, trace", [
        (233, 1, 5, 30), (233, 7, 37, -30),
        (1009, 11, 295, 63), (1009, 22, 303, -63),
    ])
    def test_hasse_window_edges(self, q, a, b, trace):
        # |trace| = floor(2*sqrt(q)): #E sits on an end of the search window
        params = cv.CurveParams(q=q, a=a, b=b, G=None, n=1, h=1)
        assert trace * trace <= 4 * q < (abs(trace) + 1) ** 2
        assert cv.count_points(params) == q + 1 - trace
        assert cv.count_points_exhaustive(params) == q + 1 - trace

    @pytest.mark.parametrize("name, trace", [
        (SUPERSINGULAR, 0),
        (N_EQ_Q, 1),
        (MOV, 2),
        (fixtures.GOOD, None),
    ])
    def test_extreme_orders(self, name, trace):
        params = fixtures.load(name)
        N = cv.count_points(params)
        assert N == params.h * params.n == cv.count_points_exhaustive(params)
        if trace is not None:
            assert N == params.q + 1 - trace


class TestPointOrder:
    def test_identity(self, f23):
        assert cv.point_order(f23, None, 28) == 1

    def test_order_seven_by_enumeration(self, f23):
        P = cv.scalar_mul(f23, 4, (0, 1))
        assert cv.point_order(f23, P, 28) == 7
        # the oracle: walk the multiples
        acc = P
        for k in range(1, 7):
            assert acc is not None
            acc = cv.point_add(f23, acc, P)
        assert acc is None

    def test_mismatch(self, f23):
        with pytest.raises(ValueError, match="does not annihilate"):
            cv.point_order(f23, (0, 1), 5)


class TestFindPointOfOrder:
    def test_order_seven(self, f23):
        W = cv.find_point_of_order(f23, 7, 28)
        assert cv.point_order(f23, W, 28) == 7

    def test_order_two_has_zero_y(self, f23):
        W = cv.find_point_of_order(f23, 2, 28)
        assert W[1] == 0

    def test_non_divisor_rejected(self, f23):
        with pytest.raises(ValueError):
            cv.find_point_of_order(f23, 5, 28)
        with pytest.raises(ValueError, match="target order 4 must be prime"):
            cv.find_point_of_order(f23, 4, 28)

    def test_wrong_group_order_ends_the_search(self, f23):
        # 3 divides the claimed 21 but not #E = 28: 7*P has order 1, 2 or 4,
        # and no multiple by 3 of it is O, so only the bounded walk ends
        with pytest.raises(cv.SearchBudgetExceeded, match="no point of order 3"):
            cv.find_point_of_order(f23, 3, 21)


class TestFindInvalidCurves:
    def test_postconditions(self, toy16):
        orders = []
        for hit in cv.invalid_curves(toy16):
            assert hit.q == toy16.q and hit.a == toy16.a
            assert hit.b != toy16.b
            assert not cv.is_on_curve(toy16, hit.G)
            assert cv.is_on_curve(hit, hit.G)
            group_order = cv.count_points(hit)
            assert group_order == hit.h * hit.n
            assert cv.point_order(hit, hit.G, group_order) == hit.n
            assert nt.is_prime(hit.n) and hit.n <= 1 << 14
            orders.append(hit.n)
        assert len(set(orders)) == len(orders) == 57

    def test_scan_wraps_past_the_field(self, f23_n7, counted_curves):
        # q = 23 < 64: step 23 of the scan reaches b' = b, which is skipped
        hits = list(cv.invalid_curves(f23_n7))
        assert f23_n7.b not in counted_curves
        assert all(h.b != f23_n7.b for h in hits)
        assert [h.n for h in hits] == [3, 29, 11, 7, 2, 5, 13, 19]
        assert all(nt.is_prime(h.n) for h in hits)
        assert not any(cv.is_on_curve(f23_n7, h.G) for h in hits)

    def test_same_params_same_curves(self, toy16):
        assert list(cv.invalid_curves(toy16)) == list(cv.invalid_curves(toy16))

    @pytest.mark.parametrize("name, expected", [
        (fixtures.GOOD, [
            (324565, 3, (657345, 80680), 1049508),
            (324566, 631, (1021129, 48506), 1048091),
            (324567, 197, (934232, 449076), 1048828),
        ]),
        (TOY16, [
            (30751, 2, (27261, 0), 65822),
            (30752, 911, (21939, 4210), 65592),
            (30754, 10847, (44878, 46261), 65082),
        ]),
    ])
    def test_golden_curves(self, name, expected):
        # (b', order, point, #E') as found with the exhaustive count
        hits = itertools.islice(cv.invalid_curves(fixtures.load(name)), 3)
        assert [(h.b, h.n, h.G, h.h * h.n) for h in hits] == expected

    def test_candidate_budget(self, toy16, counted_curves):
        # a curve is counted only when the next hit is asked for, and the
        # search ends with the candidates b+1, ..., b+64
        hits = cv.invalid_curves(toy16)
        assert counted_curves == []
        assert next(hits).b == toy16.b + 1 and counted_curves == [toy16.b + 1]
        assert len(list(hits)) == 56
        assert counted_curves == [toy16.b + step for step in range(1, 65)]


class TestValidatedParams:
    def test_order_annihilates_base(self, toy16, good_params):
        for params in (toy16, good_params):
            assert cv.scalar_mul(params, params.n, params.G) is None

    def test_all_multiples_validate(self, f23_n7):
        for d in range(1, f23_n7.n):
            U = cv.scalar_mul(f23_n7, d, f23_n7.G)
            assert cv.validate_public_key(f23_n7, U) == ()


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
def test_scalar_mul_distributes(k1, k2):
    params = cv.CurveParams(q=23, a=1, b=1, G=(0, 1), n=28, h=1)
    P = (0, 1)
    lhs = cv.scalar_mul(params, k1 + k2, P)
    rhs = cv.point_add(params, cv.scalar_mul(params, k1, P),
                       cv.scalar_mul(params, k2, P))
    assert lhs == rhs
