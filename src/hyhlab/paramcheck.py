"""Domain-parameter validation for the lab's curves.

Nine checks, always all of them, in the order ``validate_domain_params``
names them, so a bad set gets a complete diagnostic, not its first failure.
The supersingular test works off the claimed cofactor (trace = q + 1 - h*n)
and is cross-checked against a point count (``curve.count_points``) whenever
q is below the counting bound.
"""

import functools
from dataclasses import asdict, dataclass

from . import curve as cv
from .numtheory import is_prime

DEFAULT_MOV_ROUNDS = 20

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ParamReport:
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "checks": [asdict(c) for c in self.checks],
        }


def mov_embedding_degree(q: int, n: int) -> int | None:
    """Smallest i <= DEFAULT_MOV_ROUNDS with q^i = 1 (mod n), or None."""
    if n < 2:
        raise ValueError("n must be >= 2")
    acc = 1
    for i in range(1, DEFAULT_MOV_ROUNDS + 1):
        acc = acc * q % n
        if acc == 1:
            return i
    return None


@functools.lru_cache(maxsize=256)
def validate_domain_params(params: cv.CurveParams) -> ParamReport:
    """Run the full nine-check battery against a parameter set.

    Below q = ``curve.DEFAULT_COUNT_BOUND`` a point count cross-checks the
    claimed h*n. Reports are cached, as the validator is pure.
    """
    q, a, b, G, n, h = params.q, params.a, params.b, params.G, params.n, params.h
    results = []

    def run(name, fn):
        try:
            passed, detail = fn()
        except Exception as exc:  # a broken parameter may crash later math
            passed, detail = False, f"check aborted: {exc}"
        results.append(CheckResult(name, bool(passed), detail))

    run("q_prime", lambda: (is_prime(q), f"q = {q}"))
    run("nonsingular", lambda: (
        (4 * a ** 3 + 27 * b * b) % q != 0,
        f"4a^3 + 27b^2 = {(4 * a ** 3 + 27 * b * b) % q} mod q",
    ))
    run("base_point_valid", lambda: (
        G is not None and cv.is_on_curve(params, G),
        "G = O" if G is None else f"G = {G}",
    ))
    run("n_prime", lambda: (is_prime(n), f"n = {n}"))

    def annihilates():
        nG = cv.scalar_mul(params, n, G)
        return nG is None, f"n*G = {nG}"

    run("n_annihilates_g", annihilates)
    run("n_above_4sqrt_q", lambda: (
        n * n > 16 * q,
        f"n^2 = {n * n} vs 16q = {16 * q}",
    ))

    def mov():
        i = mov_embedding_degree(q, n)
        if i is None:
            return True, f"q^i != 1 mod n for i <= {DEFAULT_MOV_ROUNDS}"
        return False, f"n divides q^{i} - 1"

    run("mov_condition", mov)
    run("not_anomalous", lambda: (n != q, f"n {'=' if n == q else '!='} q"))

    def supersingular():
        group_order = h * n
        t = q + 1 - group_order
        if t * t > 4 * q:
            return False, f"h*n = {group_order} outside the Hasse interval"
        if q < cv.DEFAULT_COUNT_BOUND:
            counted = cv.count_points(params)
            if counted != group_order:
                return False, f"h*n = {group_order} but #E = {counted}"
        if t % q == 0:
            return False, f"trace t = {t}: supersingular"
        return True, f"trace t = {t}"

    run("not_supersingular", supersingular)
    return ParamReport(checks=tuple(results))
