#!/usr/bin/env python3
"""Check the paper/strict duality of ``demo all`` on random honest curves.

The bundled fixtures are nine hand-picked parameter sets; this script draws
curves at random instead. From a fixed seed it draws, for each curve, a
prime q in [--q-min, --q-max), coefficients a and b of a nonsingular curve,
and its point count #E (``curve.count_points``). Even-numbered curves take
n as the largest prime factor of #E and G of order n from
``curve.find_point_of_order``; odd-numbered ones take a random point G and
n = ord(G), which may be composite. In both, h = #E/n. ``F173_N5``, on
which strict nonce-reuse once crashed ``demo all``, and ``F61_N3``, whose
n-Sylow subgroup is not cyclic, are checked first.

Each curve runs ``cli.run_demo_all`` at seeds 0 and 1, and a run is a
problem when:

- it raises, so ``demo all`` would print no table;
- a paper row that was staged did not land;
- a strict row landed, unless it is nonce-reuse and the two session keys
  d_B*R1 and d_B*R2 of the strict staging share their x-coordinate, so the
  two texts share a keystream (ROADMAP item 4). That condition is
  recomputed from ``cli._stage`` and ``cli.NONCE_REUSE_MESSAGES``.

Each problem prints one line, and the exit code is 1 if there was any.
hyhlab is imported from PYTHONPATH; there is no golden file:

    PYTHONPATH=src python scripts/curve_sweep.py
    PYTHONPATH=src python scripts/curve_sweep.py --q-min 4096 --q-max 262144 --curves 120

The first takes well under a second; the second, about ten seconds.
tests/test_curve_sweep.py runs the default list in-process.
"""

import argparse
import random
import sys

from hyhlab import cli, curve, hyh, numtheory

SEED = 16
SEEDS = (0, 1)
# y^2 = x^3 + 101x + 37 over F_173: #E = 180, G = (31, 75) of order 5. Every
# x(r*G) = 1 mod 5, so at a seed whose d_A = -H(M) mod 5 for one of the
# nonce-reuse messages M, that message signcrypts to s = 0 under every r
F173_N5 = curve.CurveParams(q=173, a=101, b=37, G=(31, 75), n=5, h=36)
# y^2 = x^3 + 33x + 36 over F_61: #E = 72 and the group is Z/24 x Z/3, so
# the 3-Sylow subgroup is not cyclic and (#E/n)*P = 24*P = O for every P;
# a G of order 3 takes find_point_of_order's walk down that subgroup
F61_N3 = curve.CurveParams(q=61, a=33, b=36, G=(46, 58), n=3, h=24)


def random_curves(count: int, q_min: int, q_max: int) -> list[curve.CurveParams]:
    """``count`` honest domain parameter sets drawn from SEED, as the module
    docstring describes."""
    rng = random.Random(SEED)
    curves = []
    while len(curves) < count:
        q = rng.randrange(q_min, q_max)
        a, b = rng.randrange(q), rng.randrange(q)
        if not numtheory.is_prime(q) or (4 * a ** 3 + 27 * b * b) % q == 0:
            continue
        E = curve.CurveParams(q, a, b, None, 0, 0)
        order = curve.count_points(E)
        if len(curves) % 2 == 0:
            n = max(numtheory.factor(order))
            G = curve.find_point_of_order(E, n, order)
        else:
            G = curve.random_point(E, rng)
            n = curve.point_order(E, G, order)
        curves.append(curve.CurveParams(q, a, b, G, n, order // n))
    return curves


def strict_keys_share_x(params: curve.CurveParams, seed: int) -> bool:
    """Whether the strict nonce-reuse staging at seed signcrypts its two
    messages under session keys d_B*R with one x-coordinate."""
    config = hyh.SchemeConfig(params=params, mode=hyh.STRICT)
    rng, alice, bob = cli._stage(config, seed)
    return len({hyh.x_coord(curve.scalar_mul(params, bob.d, hyh.signcrypt(
        config, alice.d, bob.U, m, rng_seed=rng).R))
        for m in cli.NONCE_REUSE_MESSAGES}) == 1


def problems(params: curve.CurveParams, seed: int) -> list[str]:
    """What goes wrong in ``demo all`` on params at seed, one line each."""
    try:
        findings = cli.run_demo_all(params, seed)["findings"]
    except Exception as exc:
        return [f"no table: {type(exc).__name__}: {exc}"]
    found = []
    for row in findings:
        if row["paper_success"] is False:
            found.append(f"paper {row['attack']} held")
        if row["strict_success"] and not (row["attack"] == "nonce-reuse"
                                          and strict_keys_share_x(params, seed)):
            found.append(f"strict {row['attack']} landed")
    return found


def sweep(curves: list[curve.CurveParams]) -> list[str]:
    """Every problem on every curve at every seed in SEEDS, one line each."""
    return [f"{params} seed {seed}: {line}"
            for params in curves for seed in SEEDS for line in problems(params, seed)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--curves", type=int, default=50,
                        help="random curves to draw (default 50)")
    parser.add_argument("--q-min", type=int, default=100,
                        help="least field size q to draw (default 100)")
    parser.add_argument("--q-max", type=int, default=3000,
                        help="bound past the greatest q to draw (default 3000)")
    args = parser.parse_args(argv)
    found = sweep([F173_N5, F61_N3, *random_curves(args.curves, args.q_min, args.q_max)])
    for line in found:
        print(line)
    print(f"{len(found)} problems on {args.curves + 2} curves at seeds {SEEDS}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
