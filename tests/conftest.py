"""Session-scoped default verification runs, shared across test modules.

The five verifiers are deterministic, so running each once and asserting
against the shared report keeps the suite fast without weakening anything.
The Hecke relation check at a prime, read off package coefficients, and
the search for a prime's totally positive generator are shared the same
way.
"""

import pytest

from eigenprod import (
    EisensteinDescriptor,
    factor_ideal,
    verify_section3_equal,
    verify_section3_unequal,
    verify_section4_inert,
    verify_section4_noninert,
    verify_section5,
)
from oracles import TotallyPositiveElement, coefficient, enumerate_totally_nonneg


@pytest.fixture(scope="session")
def report_s3u():
    return verify_section3_unequal()


@pytest.fixture(scope="session")
def report_s3e():
    return verify_section3_equal()


@pytest.fixture(scope="session")
def report_s4i():
    return verify_section4_inert()


@pytest.fixture(scope="session")
def report_s4n():
    return verify_section4_noninert()


@pytest.fixture(scope="session")
def report_s5():
    return verify_section5()


@pytest.fixture(scope="session")
def default_reports(report_s3u, report_s3e, report_s4i, report_s4n, report_s5):
    return {
        "s3-unequal": report_s3u,
        "s3-equal": report_s3e,
        "s4-inert": report_s4i,
        "s4-noninert": report_s4n,
        "s5": report_s5,
    }


def _omega_mul(D: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    # (x + y w)(u + v w) with w^2 = t w - m, t = D mod 2, t^2 - 4m = D
    t = D % 2
    m = (t - D) // 4
    (x, y), (u, v) = a, b
    return x * u - m * y * v, x * v + y * u + t * y * v


def _prime_generator(D: int, prime_norm: int) -> TotallyPositiveElement:
    # the first totally positive element of that norm by trace; narrow
    # class number one gives every prime such a generator
    bound = 2
    while True:
        for nu in enumerate_totally_nonneg(D, bound):
            if nu.norm() == prime_norm:
                return nu
        bound *= 2


def check_hecke_relations(D: int, prime_norm: int, k: int, j_max: int):
    """Check the Hecke relations of E_k at a prime of norm prime_norm.

    With pi a totally positive generator of the prime, N = prime_norm and
    c the package coefficient of E_k, asserts

        c(pi^(j+1)) = c(pi) c(pi^j) - N^(k-1) c(pi^(j-1))   for 1 <= j < j_max,
        c(pi^m) <= 3^m N^(m (k-1))                          for m <= j_max,

    and returns the class of the prime.
    """
    pi = _prime_generator(D, prime_norm)
    ((norm, cls, e),) = factor_ideal(D, pi.x, pi.y).entries
    assert (norm, e) == (prime_norm, 1), (D, prime_norm)
    powers = [(1, 0)]
    for _ in range(j_max):
        powers.append(_omega_mul(D, powers[-1], (pi.x, pi.y)))
    form = EisensteinDescriptor(D, k)
    c = [coefficient(form, TotallyPositiveElement(D, x, y)) for x, y in powers]
    q = prime_norm ** (k - 1)
    for j in range(1, j_max):
        assert c[j + 1] == c[1] * c[j] - q * c[j - 1], (D, prime_norm, k, j)
    for m, cm in enumerate(c):
        assert cm <= 3**m * q**m, (D, prime_norm, k, m)
    return cls


@pytest.fixture(scope="session")
def hecke_relations():
    return check_hecke_relations


@pytest.fixture(scope="session")
def prime_generator():
    return _prime_generator
