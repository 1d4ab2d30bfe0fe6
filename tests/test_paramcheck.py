import pytest

from hyhlab import curve as cv
from hyhlab import fixtures
from hyhlab import numtheory as nt
from hyhlab.paramcheck import (
    CHECK_NAMES,
    DEFAULT_MOV_ROUNDS,
    mov_embedding_degree,
    validate_domain_params,
)


class TestMovEmbeddingDegree:
    def test_examples(self):
        assert mov_embedding_degree(23, 3) == 2   # 23 = 2, 23^2 = 529 = 1 mod 3
        assert mov_embedding_degree(23, 2) == 1   # odd q is 1 mod 2
        # 2 has order 23 mod 47, beyond the 20 rounds
        assert DEFAULT_MOV_ROUNDS == 20
        assert mov_embedding_degree(2, 47) is None
        assert (2 ** 23 - 1) % 47 == 0

    def test_result_divides(self):
        for q, n in [(23, 7), (131, 13), (1048573, 10909)]:
            i = mov_embedding_degree(q, n)
            if i is not None:
                assert (q**i - 1) % n == 0

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            mov_embedding_degree(23, 1)


class TestReportShape:
    def test_exactly_nine_checks_in_order(self, good_params):
        report = validate_domain_params(good_params)
        assert tuple(c.name for c in report.checks) == CHECK_NAMES

    def test_never_raises_on_junk(self):
        junk = cv.CurveParams(q=9, a=1, b=1, G=(2, 3), n=6, h=2)
        report = validate_domain_params(junk)
        assert not report.overall
        assert "q_prime" in report.failed_names()


class TestFixtureCorpus:
    def test_good_sets_pass(self, good_params, toy16):
        for params in (good_params, toy16, fixtures.load(fixtures.SECP160R1)):
            report = validate_domain_params(params)
            assert report.overall, report.failed_names()

    def test_each_bad_fixture_fails_its_check(self):
        for name, check in fixtures.BAD_FIXTURES.items():
            report = validate_domain_params(fixtures.load(name))
            assert check in report.failed_names(), (name, report.failed_names())

    def test_bad_fixtures_fail_nothing_else(self):
        # the supersingular set necessarily fails MOV too: its only large
        # prime-order subgroup divides q + 1, so q^2 = 1 mod n
        expected = {
            fixtures.COMPOSITE_N: ["n_prime"],
            fixtures.SMALL_N: ["n_above_4sqrt_q"],
            fixtures.MOV: ["mov_condition"],
            fixtures.N_EQ_Q: ["not_anomalous"],
            fixtures.SUPERSINGULAR: ["mov_condition", "not_supersingular"],
        }
        for name, failures in expected.items():
            report = validate_domain_params(fixtures.load(name))
            assert report.failed_names() == failures, name

    def test_classroom_curve_fails_small_subgroup_bound(self, f23_n7):
        report = validate_domain_params(f23_n7)
        assert "n_above_4sqrt_q" in report.failed_names()
        assert not report["n_above_4sqrt_q"].passed  # n^2 = 49 vs 16q = 368

    def test_supersingular_f23(self):
        params = cv.CurveParams(q=23, a=1, b=0, G=(9, 5), n=3, h=8)
        if not cv.is_on_curve(params, params.G):
            pytest.skip("fixture point moved")
        report = validate_domain_params(params)
        assert "not_supersingular" in report.failed_names()
        assert "t = 0" in report["not_supersingular"].detail


class TestSingleCheckCorruptions:
    """Flipping one property of a passing set flips the matching check.

    Checks 1 and 2 drag companions along by arithmetic necessity (a composite
    field or a singular curve breaks group structure elsewhere); everything
    from check 3 down flips alone.
    """

    def test_q_composite(self, good_params):
        corrupted = cv.CurveParams(q=good_params.q + 2, a=good_params.a,
                                   b=good_params.b, G=good_params.G,
                                   n=good_params.n, h=good_params.h)
        assert not nt.is_prime(corrupted.q)
        report = validate_domain_params(corrupted)
        assert "q_prime" in report.failed_names()
        assert not report["not_supersingular"].passed
        assert report["not_supersingular"].detail == (
            f"check aborted: cannot count points: q = {corrupted.q} is not prime")

    def test_singular_curve(self, toy16):
        # the cusp y^2 = x^3: smooth points form the additive group F_q^+
        cusp = cv.CurveParams(q=toy16.q, a=0, b=0, G=(1, 1), n=toy16.q, h=1)
        report = validate_domain_params(cusp)
        assert "nonsingular" in report.failed_names()
        # the additive structure still annihilates G at the field order
        assert report["n_annihilates_g"].passed
        assert not report["not_supersingular"].passed
        assert report["not_supersingular"].detail == (
            "check aborted: cannot count points: the curve is singular")

    def test_base_point_missing_flips_only_that(self, good_params):
        corrupted = cv.CurveParams(q=good_params.q, a=good_params.a,
                                   b=good_params.b, G=None,
                                   n=good_params.n, h=good_params.h)
        report = validate_domain_params(corrupted)
        assert report.failed_names() == ["base_point_valid"]

    def test_composite_n_flips_only_that(self, good_params):
        fixture = fixtures.load(fixtures.COMPOSITE_N)
        assert fixture.q == good_params.q and fixture.G == good_params.G
        report = validate_domain_params(fixture)
        assert report.failed_names() == ["n_prime"]

    def test_wrong_n_flips_annihilation_and_count(self, good_params):
        # n - 6 is prime and h*(n - 6) lies in the Hasse window, so only
        # n*G and the point count refute it
        q, n, h = good_params.q, good_params.n, good_params.h
        n2 = n - 6
        t = q + 1 - h * n2
        assert nt.is_prime(n2) and t * t <= 4 * q
        corrupted = cv.CurveParams(q=q, a=good_params.a, b=good_params.b,
                                   G=good_params.G, n=n2, h=h)
        report = validate_domain_params(corrupted)
        assert report.failed_names() == ["n_annihilates_g", "not_supersingular"]
        assert report["not_supersingular"].detail == \
            f"h*n = {h * n2} but #E = {h * n}"

    def test_small_order_flips_only_bound(self):
        report = validate_domain_params(fixtures.load(fixtures.SMALL_N))
        assert report.failed_names() == ["n_above_4sqrt_q"]

    def test_mov_fixture_flips_only_mov(self):
        report = validate_domain_params(fixtures.load(fixtures.MOV))
        assert report.failed_names() == ["mov_condition"]

    def test_anomalous_flips_only_that(self):
        report = validate_domain_params(fixtures.load(fixtures.N_EQ_Q))
        assert report.failed_names() == ["not_anomalous"]

    def test_wrong_cofactor_flips_only_supersingular_check(self, good_params):
        corrupted = cv.CurveParams(q=good_params.q, a=good_params.a,
                                   b=good_params.b, G=good_params.G,
                                   n=good_params.n, h=good_params.h + 1)
        report = validate_domain_params(corrupted)
        assert report.failed_names() == ["not_supersingular"]
        assert "Hasse" in report["not_supersingular"].detail

    def test_claimed_order_in_hasse_window_but_not_the_count(self, good_params):
        # h*n = q + 1 passes the Hasse test; only the point count refutes it
        q = good_params.q
        corrupted = cv.CurveParams(q=q, a=good_params.a, b=good_params.b,
                                   G=good_params.G, n=q + 1, h=1)
        report = validate_domain_params(corrupted)
        assert report.failed_names() == ["n_prime", "n_annihilates_g",
                                         "mov_condition", "not_supersingular"]
        assert report["not_supersingular"].detail == \
            "h*n = 1048574 but #E = 1047264"


class TestPassingSetConsequences:
    def test_annihilation_and_hasse(self, good_params, toy16):
        for params in (good_params, toy16):
            assert validate_domain_params(params).overall
            assert cv.scalar_mul(params, params.n, params.G) is None
            t = params.q + 1 - params.h * params.n
            assert t * t <= 4 * params.q

    def test_count_agrees_with_claim(self, good_params):
        assert cv.count_points(good_params) == good_params.h * good_params.n
