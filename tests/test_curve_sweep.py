"""A drawn search for breaks of the paper/strict duality. Each example
draws a parameter set (``param_sets``), an honest curve or a hostile claim,
and ``check_duality`` writes it to a params file and runs ``keygen`` in
both modes and ``demo all`` at a seed from 0 to 3 through ``cli.main``.
Every run ends in exit 0, 1 or 2, ``demo all`` in 0 or 1 with nothing on
stderr, and its table keeps the duality (``problems``).

Each of the two properties takes a quarter of the Hypothesis profile's
example count: 25 in Tier-1, 250 under ``HYHLAB_HYPOTHESIS_PROFILE=ci``
(tests/conftest.py)."""

import itertools
import json
import math
import random

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hyhlab import cli, curve, fixtures, hyh, numtheory
from hyhlab.curve import CurveParams


def _primes_by_bit_length(bound: int) -> dict[int, list[int]]:
    """The primes below bound, by bit length, from a sieve."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return {bits: list(primes) for bits, primes in itertools.groupby(
        itertools.compress(range(bound), sieve), int.bit_length)}


# q's bit length is drawn from 3 to 18, so every run draws curves below
# q = 100 and from 2^12 up
PRIMES = _primes_by_bit_length(1 << 18)


@st.composite
def param_sets(draw, honest: bool) -> CurveParams:
    """A prime q and any a and b. An honest set is a nonsingular curve with
    #E from count_points, a G of order n, found one of two ways, and
    h = #E/n. A hostile set takes G on the curve or any pair, and claims n
    in [2, 2^13), since degenerate_key_demo spends about n hashes, and h in
    [1, 300]."""
    q = draw(st.sampled_from(PRIMES[draw(st.integers(3, 18))]))
    a, b = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
    E = CurveParams(q, a, b, None, 0, 0)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if honest:
        assume((4 * a ** 3 + 27 * b ** 2) % q)
        order = curve.count_points(E)
        if draw(st.booleans()):
            n = max(numtheory.factor(order))
            G = curve.find_point_of_order(E, n, order)
        else:
            G = curve.random_point(E, rng)
            n = curve.point_order(E, G, order)
        return CurveParams(q, a, b, G, n, order // n)
    if draw(st.booleans()):
        G = curve.random_point(E, rng)
    else:
        G = (draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1)))
    return CurveParams(q, a, b, G, draw(st.integers(2, 2**13 - 1)),
                       draw(st.integers(1, 300)))


def strict_keys_share_x(params: CurveParams, seed: int) -> bool:
    """Whether the strict nonce-reuse staging at seed signcrypts its two
    messages under session keys d_B*R with one x-coordinate."""
    config = hyh.SchemeConfig(params=params, mode=hyh.STRICT)
    rng, alice, bob = cli._stage(config, seed)
    return len({hyh.x_coord(curve.scalar_mul(params, bob.d, hyh.signcrypt(
        config, alice.d, bob.U, m, rng_seed=rng).R))
        for m in cli.NONCE_REUSE_MESSAGES}) == 1


def problems(params: CurveParams, honest: bool, seed: int,
             findings: list[dict]) -> list[str]:
    """What breaks the duality in the findings of ``demo all`` on params at
    seed, one line each: on an honest set, a staged paper row that is held;
    a strict row that lands, but for a nonce-reuse whose two strict texts
    share a keystream."""
    found = []
    for row in findings:
        if honest and row["paper_success"] is False:
            found.append(f"paper {row['attack']} held")
        if row["strict_success"] and not (row["attack"] == "nonce-reuse"
                                          and strict_keys_share_x(params, seed)):
            found.append(f"strict {row['attack']} landed")
    return found


# y^2 = x^3 + 101x + 37 over F_173, G of order 5: every x(r*G) = 1 mod 5,
# so at some seeds a nonce-reuse message signcrypts to s = 0 under every r
F173_N5 = CurveParams(q=173, a=101, b=37, G=(31, 75), n=5, h=36)
# y^2 = x^3 + 33x + 36 over F_61: the group Z/24 x Z/3 has no cyclic 3-Sylow
F61_N3 = CurveParams(q=61, a=33, b=36, G=(46, 58), n=3, h=24)


def check_duality(capsys, tmp_path, params: CurveParams, honest: bool,
                  seed: int) -> None:
    """Runs params through keygen in both modes and demo all at seed, and
    asserts the exit codes, the empty stderr and that nothing breaks the
    duality."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps(fixtures.params_to_dict(params)))
    for mode in (hyh.PAPER, hyh.STRICT):
        assert cli.main(["--params", str(path), "--mode", mode, "keygen"]) in (0, 1, 2)
    capsys.readouterr()
    rc = cli.main(["--params", str(path), "--seed", str(seed), "demo", "all"])
    out, err = capsys.readouterr()
    assert (rc in (0, 1), err) == (True, "")
    assert problems(params, honest, seed, json.loads(out)["findings"]) == []


_DRAWN = settings(max_examples=settings.default.max_examples // 4, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@_DRAWN
@given(params=param_sets(honest=True), seed=st.integers(0, 3))
@example(params=F173_N5, seed=0)
@example(params=F173_N5, seed=1)
@example(params=F61_N3, seed=0)
@example(params=F61_N3, seed=1)
def test_duality_holds_on_random_honest_curves(capsys, tmp_path, params, seed):
    check_duality(capsys, tmp_path, params, True, seed)


@_DRAWN
@given(params=param_sets(honest=False), seed=st.integers(0, 3))
def test_duality_holds_on_hostile_claims(capsys, tmp_path, params, seed):
    # tests/test_cli.py runs the 84 F_17 claims of
    # test_hostile_parameters_end_in_an_exit_code through check_duality too
    check_duality(capsys, tmp_path, params, False, seed)


def test_strict_landing_explained_by_a_shared_session_key():
    # on params_f23_n7, seed 11's two fresh ephemerals give x(d_B*R1) =
    # x(d_B*R2), and strict nonce-reuse lands; at seed 0 they do not
    params = fixtures.load(fixtures.F23_N7)
    findings = cli.run_demo_all(params, 11)["findings"]
    landed = [row["attack"] for row in findings if row["strict_success"]]
    assert landed == ["nonce-reuse"]
    assert problems(params, True, 11, findings) == []
    assert [strict_keys_share_x(params, seed) for seed in (0, 11)] == [False, True]
