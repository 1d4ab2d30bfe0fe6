#!/usr/bin/env python3
"""Regenerate the bundled parameter fixtures.

Every fixture is found by deterministic seeded search, then pushed through
the domain-parameter validator to pin down exactly which checks it fails.
Run from the repository root:

    python scripts/gen_fixtures.py

Outputs land in src/hyhlab/fixtures/. The searches take well under a minute.
"""

import json
import math
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hyhlab import curve as cv
from hyhlab import numtheory as nt
from hyhlab import paramcheck
from hyhlab.fixtures import params_to_dict

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyhlab" / "fixtures"


GROUP_ORDER_DRAWS = 6


def group_order(params: cv.CurveParams, rng: random.Random) -> int | None:
    """#E(F_q) by ``curve.count_points``, or None when none of up to
    GROUP_ORDER_DRAWS random points has an order with exactly one multiple
    in the window [q+1-span, q+1+span], span = isqrt(4q)+1.

    The count alone would do; the draws stay because they come from the
    generator's rng, so they and the rule decide which curves become the
    fixtures, params_good (the benchmark's corpus fixture) among them.
    Dropping them would change every fixture and golden file.
    """
    q = params.q
    span = math.isqrt(4 * q) + 1
    N = cv.count_points(params)
    for _ in range(GROUP_ORDER_DRAWS):
        order = cv.point_order(params, cv.random_point(params, rng), N)
        if (q + 1 + span) // order - (q - span) // order == 1:
            return N
    return None


def random_curve(q: int, rng: random.Random) -> cv.CurveParams:
    while True:
        a, b = rng.randrange(q), rng.randrange(q)
        if (4 * a ** 3 + 27 * b * b) % q != 0:
            return cv.CurveParams(q=q, a=a, b=b, G=None, n=1, h=1)


def base_point_of_order(params: cv.CurveParams, order: int, group_order: int,
                        rng: random.Random) -> cv.Point:
    """(group_order/order)*P for the first random P that it gives a point of
    exact order ``order``. The draws come from the generator's rng, so they
    decide the fixtures; unlike ``curve.find_point_of_order`` this never
    walks down a Sylow subgroup, so on one that is not cyclic no P serves,
    and the draw ends after ``curve._SEARCH_TRIES`` tries in
    ``curve.SearchBudgetExceeded``."""
    for _ in range(cv._SEARCH_TRIES):
        P = cv.random_point(params, rng)
        G = cv.scalar_mul(params, group_order // order, P)
        if G is not None and cv.scalar_mul(params, order, G) is None:
            return G
    raise cv.SearchBudgetExceeded(
        f"no point of order {order} found in {cv._SEARCH_TRIES} tries")


def prev_prime(n: int) -> int:
    """Largest prime strictly below n."""
    n = n - 2 if n % 2 else n - 1
    while not nt.is_prime(n):
        n -= 2
    return n


def gen_good(q_start: int, seed: int, require_even_h: bool) -> cv.CurveParams:
    """A parameter set passing all nine checks: prime-order base point with
    n > 4*sqrt(q), large embedding degree, non-supersingular."""
    rng = random.Random(seed)
    q = prev_prime(q_start)
    while True:
        cand = random_curve(q, rng)
        N = group_order(cand, rng)
        if N is None or N == q + 1 or N == q:
            continue
        n = max(nt.factor(N))
        h = N // n
        if not nt.is_prime(n) or n * n <= 16 * q:
            continue
        if require_even_h and h % 2 != 0:
            continue
        if paramcheck.mov_embedding_degree(q, n) is not None:
            continue
        G = base_point_of_order(cand, n, N, rng)
        params = cv.CurveParams(q=q, a=cand.a, b=cand.b, G=G, n=n, h=h)
        report = paramcheck.validate_domain_params(params)
        assert report.overall, report.failed_names()
        return params


def gen_small_n(q_start: int, seed: int) -> cv.CurveParams:
    """Fails only the n > 4*sqrt(q) check: honest prime-order point, but the
    order is small enough for a meet-in-the-middle discrete log."""
    rng = random.Random(seed)
    q = prev_prime(q_start)
    limit = math.isqrt(16 * q)
    while True:
        cand = random_curve(q, rng)
        N = group_order(cand, rng)
        if N is None or N == q + 1 or N == q:
            continue
        usable = [m for m in nt.factor(N)
                  if 23 <= m <= limit and m * m <= 16 * q
                  and paramcheck.mov_embedding_degree(q, m) is None]
        if not usable:
            continue
        m = max(usable)
        G = base_point_of_order(cand, m, N, rng)
        params = cv.CurveParams(q=q, a=cand.a, b=cand.b, G=G, n=m, h=N // m)
        report = paramcheck.validate_domain_params(params)
        assert report.failed_names() == ["n_above_4sqrt_q"], report.failed_names()
        return params


def gen_mov(q_start: int, seed: int) -> cv.CurveParams:
    """Fails only the MOV check: a curve of order q-1, so n | q - 1 and the
    discrete log transfers straight into F_q."""
    rng = random.Random(seed)
    q = prev_prime(q_start)
    while True:
        n = max(nt.factor(q - 1))
        if nt.is_prime(n) and n * n > 16 * q:
            break
        q = prev_prime(q)
    while True:
        cand = random_curve(q, rng)
        P = cv.random_point(params=cand, rng=rng)
        if cv.scalar_mul(cand, q - 1, P) is not None:
            continue
        if cv.point_order(cand, P, q - 1) != q - 1:
            continue
        # full-order point found: #E = q - 1 exactly
        G = cv.scalar_mul(cand, (q - 1) // n, P)
        params = cv.CurveParams(q=q, a=cand.a, b=cand.b, G=G, n=n, h=(q - 1) // n)
        assert cv.count_points(params) == q - 1
        report = paramcheck.validate_domain_params(params)
        assert report.failed_names() == ["mov_condition"], report.failed_names()
        return params


def gen_anomalous(q_start: int, seed: int) -> cv.CurveParams:
    """Fails only the n != q check: a curve with exactly q points."""
    rng = random.Random(seed)
    q = prev_prime(q_start)
    while True:
        cand = random_curve(q, rng)
        P = cv.random_point(params=cand, rng=rng)
        if cv.scalar_mul(cand, q, P) is not None:
            continue
        # order of P divides prime q and P != O, so #E = q
        params = cv.CurveParams(q=q, a=cand.a, b=cand.b, G=P, n=q, h=1)
        assert cv.count_points(params) == q
        report = paramcheck.validate_domain_params(params)
        assert report.failed_names() == ["not_anomalous"], report.failed_names()
        return params


def gen_supersingular(q_start: int, seed: int) -> cv.CurveParams:
    """y^2 = x^3 + x over q = 3 mod 4 has q + 1 points (trace zero). The MOV
    check necessarily fails along with the supersingular one: any prime-order
    subgroup big enough to clear the 4*sqrt(q) bound divides q + 1, which
    forces q^2 = 1 mod n."""
    rng = random.Random(seed)
    q = prev_prime(q_start)
    while q % 4 != 3 or not nt.is_prime((q + 1) // 4):
        q = prev_prime(q)
    cand = cv.CurveParams(q=q, a=1, b=0, G=None, n=1, h=1)
    N = q + 1
    assert cv.count_points(cand) == N
    n = N // 4
    G = base_point_of_order(cand, n, N, rng)
    params = cv.CurveParams(q=q, a=1, b=0, G=G, n=n, h=4)
    report = paramcheck.validate_domain_params(params)
    assert report.failed_names() == ["mov_condition", "not_supersingular"], \
        report.failed_names()
    return params


def derive_composite_n(good: cv.CurveParams) -> cv.CurveParams:
    """Same curve and point as the good set, but n doubled and h halved:
    only the n-prime check can tell the difference."""
    assert good.h % 2 == 0
    params = cv.CurveParams(q=good.q, a=good.a, b=good.b, G=good.G,
                            n=2 * good.n, h=good.h // 2)
    report = paramcheck.validate_domain_params(params)
    assert report.failed_names() == ["n_prime"], report.failed_names()
    return params


def gen_f23() -> cv.CurveParams:
    """The 28-point classroom curve with its order-7 subgroup claimed as n."""
    base = cv.CurveParams(q=23, a=1, b=1, G=(0, 1), n=28, h=1)
    assert cv.count_points(base) == 28
    G = cv.scalar_mul(base, 4, (0, 1))
    params = cv.CurveParams(q=23, a=1, b=1, G=G, n=7, h=4)
    assert cv.point_order(params, G, 28) == 7
    return params


def secp160r1() -> cv.CurveParams:
    q = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF
    params = cv.CurveParams(
        q=q,
        a=q - 3,
        b=0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45,
        G=(0x4A96B5688EF573284664698968C38BB913CBFC82,
           0x23A628553168947D59DCC912042351377AC5FB32),
        n=0x0100000000000000000001F4C8F927AED3CA752257,
        h=1,
    )
    report = paramcheck.validate_domain_params(params)
    assert report.overall, report.failed_names()
    return params


def generate() -> dict[str, cv.CurveParams]:
    """Every bundled fixture, by file name without the .json suffix."""
    good = gen_good(1 << 20, seed=2024, require_even_h=True)
    return {
        "params_good": good,
        "params_toy16": gen_good(1 << 16, seed=16, require_even_h=False),
        "params_composite_n": derive_composite_n(good),
        "params_small_n": gen_small_n(1 << 18, seed=61),
        "params_mov": gen_mov(1 << 17, seed=7),
        "params_n_eq_q": gen_anomalous(1 << 17, seed=8),
        "params_supersingular": gen_supersingular(1 << 17, seed=9),
        "params_f23_n7": gen_f23(),
        "params_secp160r1": secp160r1(),
    }


def render(params: cv.CurveParams) -> str:
    """The fixture file's text."""
    return json.dumps(params_to_dict(params), indent=2) + "\n"


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, params in generate().items():
        (OUT_DIR / f"{name}.json").write_text(render(params))
        print(f"{name:24} q={params.q} n={params.n} h={params.h}")


if __name__ == "__main__":
    main()
