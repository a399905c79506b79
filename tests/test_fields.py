import time

import pytest

from torsorkit.errors import NotPrime
from torsorkit.fields import GF, _is_prime


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if _trial_division(n)]


def test_large_prime_field_is_fast():
    start = time.perf_counter()
    F = GF(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert F.mul(F.inv(3), 3) == 1


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(NotPrime):
        GF(n)


def test_moduli_beyond_the_certified_range_rejected():
    with pytest.raises(NotPrime, match="too large to certify"):
        GF(2 ** 89 - 1)
