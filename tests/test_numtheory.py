import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyhlab import numtheory as nt

SMALL_ODD_PRIMES = [3, 5, 7, 11, 13, 101, 997, 7919, 65521]


class TestModInverse:
    def test_identity(self):
        for m in (2, 7, 97, 2**61 - 1):
            assert nt.mod_inverse(1, m) == 1

    def test_three_mod_seven(self):
        assert nt.mod_inverse(3, 7) == 5
        assert 3 * 5 % 7 == 1

    def test_zero_not_invertible(self):
        with pytest.raises(nt.NotInvertible):
            nt.mod_inverse(0, 7)

    def test_shared_factor_not_invertible(self):
        with pytest.raises(nt.NotInvertible):
            nt.mod_inverse(6, 9)

    @given(st.integers(min_value=1, max_value=10**12),
           st.integers(min_value=2, max_value=10**12))
    def test_inverse_multiplies_to_one(self, a, m):
        if math.gcd(a, m) == 1:
            assert a * nt.mod_inverse(a, m) % m == 1
        else:
            with pytest.raises(nt.NotInvertible):
                nt.mod_inverse(a, m)


class TestSqrtMod:
    def test_examples(self):
        assert nt.sqrt_mod(4, 7) == 2          # the smaller of 2 and 5
        assert nt.sqrt_mod(2, 7) == 3          # residues mod 7 are {0,1,2,4}
        assert nt.sqrt_mod(5, 7) is None
        assert nt.sqrt_mod(0, 7) == 0

    def test_composite_modulus_rejected(self):
        with pytest.raises(nt.InvalidModulus):
            nt.sqrt_mod(4, 15)

    @pytest.mark.parametrize("p", SMALL_ODD_PRIMES)
    def test_against_brute_force(self, p):
        # the oracle: enumerate all squares directly
        roots = {}
        for y in range(p):
            roots.setdefault(y * y % p, []).append(y)
        for a in range(min(p, 400)):
            got = nt.sqrt_mod(a, p)
            if a in roots:
                assert got == min(roots[a])
            else:
                assert got is None

    def test_tonelli_branch(self):
        # p = 1 mod 4 exercises the full algorithm, not the shortcut
        p = 1000033
        assert p % 4 == 1 and nt.is_prime(p)
        for a in range(2, 60):
            got = nt.sqrt_mod(a, p)
            if got is not None:
                assert got * got % p == a
                assert got <= p - got


class TestIsPrime:
    def test_small_values(self):
        assert nt.is_prime(2) and nt.is_prime(3) and nt.is_prime(7)
        assert not nt.is_prime(0) and not nt.is_prime(1)
        assert not nt.is_prime(561)  # 3 * 11 * 17, a Carmichael number

    def test_against_trial_division(self):
        def trial(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(math.isqrt(n)) + 1))
        for n in range(0, 2000):
            assert nt.is_prime(n) == trial(n), n

    def test_large(self):
        assert nt.is_prime(2**61 - 1)
        assert not nt.is_prime((2**61 - 1) * (2**31 - 1))
        # Carmichael numbers beyond the small-prime table
        assert not nt.is_prime(252601)


class TestCrtCombine:
    def test_examples(self):
        assert nt.crt_combine([(2, 3), (3, 5)]) == 8
        assert nt.crt_combine([(4, 9)]) == 4

    def test_non_coprime(self):
        with pytest.raises(nt.NonCoprimeModuli):
            nt.crt_combine([(1, 4), (1, 6)])

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            nt.crt_combine([(5, 3)])

    @given(st.lists(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]),
                    min_size=1, max_size=8, unique=True),
           st.randoms(use_true_random=False))
    def test_residues_reproduced(self, moduli, rnd):
        pairs = [(rnd.randrange(m), m) for m in moduli]
        x = nt.crt_combine(pairs)
        prod = math.prod(moduli)
        assert 0 <= x < prod
        for value, m in pairs:
            assert x % m == value


class TestFactor:
    def test_examples(self):
        assert nt.factor(28) == {2: 2, 7: 1}
        assert nt.factor(1) == {}
        assert nt.factor(13) == {13: 1}

    def test_rebuild_and_primality(self):
        for n in [2, 97, 1024, 65521 * 3, 2**20 - 3, 1048576, 600851475143]:
            fac = nt.factor(n)
            rebuilt = 1
            for p, e in fac.items():
                assert nt.is_prime(p)
                rebuilt *= p**e
            assert rebuilt == n

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=10**9))
    def test_roundtrip(self, n):
        fac = nt.factor(n)
        assert math.prod(p**e for p, e in fac.items()) == n
        assert all(nt.is_prime(p) for p in fac)

    def test_budget(self):
        # a 120-bit semiprime cannot fall to a starved rho budget
        p, q = 2**61 - 1, 2**61 + 15  # both prime
        with pytest.raises(nt.FactoringBudgetExceeded):
            nt._pollard_rho(p * q, 4, random.Random(0xFAC70))
