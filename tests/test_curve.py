import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyhlab import curve as cv
from hyhlab import fixtures
from hyhlab import numtheory as nt


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
        # singular ones included; k passes twice the largest group order
        params = cv.CurveParams(q=23, a=a, b=1, G=None, n=1, h=1)
        for x in range(23):
            for y in range(23):
                for k in range(70):
                    assert (cv.scalar_mul(params, k, (x, y))
                            == affine_scalar_mul(params, k, (x, y)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           name=st.sampled_from([fixtures.TOY16, fixtures.GOOD, fixtures.SECP160R1]))
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

    @pytest.mark.parametrize("name", [fixtures.TOY16, fixtures.GOOD,
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


ALL_FIXTURES = [fixtures.GOOD, fixtures.TOY16, fixtures.F23_N7,
                fixtures.COMPOSITE_N, fixtures.SMALL_N, fixtures.MOV,
                fixtures.N_EQ_Q, fixtures.SUPERSINGULAR, fixtures.SECP160R1]


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


def reference_comb_table(params, P):
    """The comb table from the affine law alone: each row is the one before
    it doubled d times with point_add, and T[b] adds the rows of b's bits
    in the order _comb_table does."""
    d = cv._comb_row_bits(params)
    rows = [P]
    for _ in range(cv._COMB_WIDTH - 1):
        R = rows[-1]
        for _ in range(d):
            R = cv.point_add(params, R, R)
        rows.append(R)
    table = [None]
    for b in range(1, 1 << cv._COMB_WIDTH):
        top = b.bit_length() - 1
        table.append(cv.point_add(params, table[b ^ (1 << top)], rows[top]))
    return tuple(table)


class TestCombTable:
    """_comb_table, built with Jacobian doublings and mixed additions and
    two batched inversions, against the affine reference entry by entry.
    The build is called uncached, so every case builds its own table."""

    build = staticmethod(cv._comb_table.__wrapped__)

    @pytest.mark.parametrize("n", [5, 7, 29])
    @pytest.mark.parametrize("a", [0, 1, 22])
    def test_every_point_of_f23(self, a, n):
        # small-order bases make rows and sums O, which the batched
        # conversions must leave out of their products
        params = cv.CurveParams(q=23, a=a, b=1, G=None, n=n, h=1)
        hit_identity = False
        for x in range(23):
            for y in range(23):
                table = self.build(params, (x, y))
                assert table == reference_comb_table(params, (x, y))
                hit_identity |= None in table[1:]
        assert hit_identity

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
        assert self.build(params, unreduced) == reference_comb_table(params, P)


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
        with pytest.raises(cv.CurveTooLarge):
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
        # the curves find_invalid_curves scans: b+1, ..., b+64
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
        (fixtures.SUPERSINGULAR, 0),
        (fixtures.N_EQ_Q, 1),
        (fixtures.MOV, 2),
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
        with pytest.raises(cv.OrderMismatch):
            cv.point_order(f23, (0, 1), 5)


class TestFindPointOfOrder:
    def test_order_seven(self, f23):
        W = cv.find_point_of_order(f23, 7, 28, rng_seed=1)
        assert cv.point_order(f23, W, 28) == 7

    def test_order_two_has_zero_y(self, f23):
        W = cv.find_point_of_order(f23, 2, 28, rng_seed=2)
        assert W[1] == 0

    def test_non_divisor_rejected(self, f23):
        with pytest.raises(ValueError):
            cv.find_point_of_order(f23, 5, 28, rng_seed=3)


class TestFindInvalidCurves:
    def test_postconditions(self, toy16):
        hits = cv.find_invalid_curves(toy16, rng_seed=11)
        product = 1
        orders = []
        for hit in hits:
            assert hit.q == toy16.q and hit.a == toy16.a
            assert hit.b != toy16.b
            assert not cv.is_on_curve(toy16, hit.G)
            assert cv.is_on_curve(hit, hit.G)
            group_order = cv.count_points(hit)
            assert group_order == hit.h * hit.n
            assert cv.point_order(hit, hit.G, group_order) == hit.n
            product *= hit.n
            orders.append(hit.n)
        assert product > toy16.n
        assert len(set(orders)) == len(orders)

    def test_deterministic_for_seed(self, toy16):
        a = cv.find_invalid_curves(toy16, rng_seed=5)
        b = cv.find_invalid_curves(toy16, rng_seed=5)
        assert a == b

    @pytest.mark.parametrize("name, seed, expected", [
        (fixtures.GOOD, 7, [
            (324565, 3, (657345, 80680), 1049508),
            (324566, 631, (884368, 1032950), 1048091),
            (324567, 197, (162418, 1007345), 1048828),
        ]),
        (fixtures.TOY16, 11, [
            (30751, 2, (27261, 0), 65822),
            (30752, 911, (50836, 61888), 65592),
            (30754, 10847, (51275, 29058), 65082),
        ]),
    ])
    def test_golden_curves(self, name, seed, expected):
        # (b', order, point, #E') as found with the exhaustive count
        params = fixtures.load(name)
        hits = cv.find_invalid_curves(params, rng_seed=seed)
        assert [(h.b, h.n, h.G, h.h * h.n) for h in hits] == expected

    def test_n_below_two_refused(self, toy16):
        with pytest.raises(ValueError):
            cv.find_invalid_curves(dataclasses.replace(toy16, n=1), rng_seed=1)

    def test_candidate_budget(self, toy16):
        # the small orders of 64 toy16 curves stay below n = 2^1000 + 1
        huge_n = dataclasses.replace(toy16, n=(1 << 1000) + 1)
        with pytest.raises(cv.SearchBudgetExceeded, match="after 64 curves$"):
            cv.find_invalid_curves(huge_n, rng_seed=1)


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
