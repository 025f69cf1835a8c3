"""Real and imaginary quadratic field invariants, exactly.

Class numbers are computed by counting reduced binary quadratic forms
(imaginary case) or cycles of reduced indefinite forms under the rho
operation (narrow class number, real case).  The unit norm is not
computed on its own: a form with a = -1 on the principal cycle is a unit
of norm -1.  Everything is integer arithmetic on exact inequalities, no
floating point.

The verification layer only ever runs over real quadratic fields of
narrow class number one; ``narrow_one_fields`` enumerates those up to a
discriminant bound.  It does not count cycles.  It walks only the
principal rho-cycle, which decides h+(D) = 1 on its own: the cycle must
hold a form with a = -1 (a unit of norm -1, so the narrow and wide class
groups agree) and a form with a = l for every prime l < sqrt(D)/2 that
does not stay inert (the primes of norm below Minkowski's bound, which
generate the class group).  That is O(sqrt(D)) work per field, where the
cycle count lists every reduced form; ``narrow_class_number`` stays for
``field`` and as the test oracle.  A field is a ``FieldDescriptor``, a
``NamedTuple``.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .exact import (
    _is_prime,
    _primes_up_to,
    _require_real_fundamental,
    is_fundamental_discriminant,
    kronecker,
)


class Splitting(Enum):
    INERT = "Inert"
    SPLIT = "Split"
    RAMIFIED = "Ramified"


def radicand(D: int) -> int:
    _require_real_fundamental(D)
    return D if D % 2 == 1 else D // 4


def splitting_of_two(D: int) -> Splitting:
    """Behaviour of the rational prime 2 in the field of discriminant D."""
    _require_real_fundamental(D)
    if D % 2 == 0:
        return Splitting.RAMIFIED
    return Splitting.INERT if D % 8 == 5 else Splitting.SPLIT


# ---------------------------------------------------------------------------
# Imaginary quadratic class numbers


@lru_cache(maxsize=None)
def class_number_imaginary(delta: int) -> int:
    """h(delta) for a fundamental discriminant delta < 0.

    Counts reduced positive definite forms (a, b, c) of discriminant
    delta: |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    """
    if delta >= 0 or not is_fundamental_discriminant(delta):
        raise ValueError(f"{delta} is not an imaginary fundamental discriminant")
    n = -delta
    count = 0
    b = n % 2
    while 3 * b * b <= n:
        m = (b * b + n) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                # c = m // a >= a is automatic here
                if b == 0 or a == b or a * a == m:
                    count += 1
                else:
                    count += 2
            a += 1
        b += 2
    return count


# ---------------------------------------------------------------------------
# Narrow class numbers of real quadratic fields
#
# Reduced indefinite form (a, b, c), b^2 - 4ac = D:
#     0 < b < sqrt(D)  and  sqrt(D) - b < 2|a| < sqrt(D) + b,
# all tested by integer squaring.  The rho operation permutes the reduced
# forms; the number of cycles is the narrow class number.


def _reduced_indefinite_forms(D: int) -> list[tuple[int, int, int]]:
    s = math.isqrt(D)
    forms = []
    for b in range(1, s + 1):
        if (D - b) % 2 != 0:
            continue
        m = D - b * b  # = -4ac > 0
        # |a| window from (sqrt(D)-b)/2 < |a| < (sqrt(D)+b)/2; start one
        # low and end one high, the exact squaring tests reject overshoot
        for abs_a in range(max(1, (s - b) // 2), (s + b) // 2 + 2):
            t = 2 * abs_a + b
            if t * t <= D:  # need 2|a| + b > sqrt(D)
                continue
            u = 2 * abs_a - b
            if u > 0 and u * u >= D:  # need 2|a| - b < sqrt(D)
                continue
            if m % (4 * abs_a) != 0:
                continue
            c_abs = m // (4 * abs_a)
            forms.append((abs_a, b, -c_abs))
            forms.append((-abs_a, b, c_abs))
    return forms


def _rho(form: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    _, b, c = form
    m = 2 * abs(c)
    r0 = (-b) % m
    # largest r = r0 (mod m) with r <= isqrt(D); then r > sqrt(D) - m
    r = r0 + ((s - r0) // m) * m
    return (c, r, (r * r - D) // (4 * c))


def narrow_class_number(D: int) -> int:
    """h+(D): cycles of reduced indefinite forms under rho."""
    _require_real_fundamental(D)
    s = math.isqrt(D)
    forms = _reduced_indefinite_forms(D)
    remaining = set(forms)
    cycles = 0
    while remaining:
        start = next(iter(remaining))
        cycles += 1
        f = start
        for _ in range(len(forms) + 1):
            remaining.discard(f)
            f = _rho(f, D, s)
            if f == start:
                break
        else:
            raise ArithmeticError(f"rho walk failed to close for D={D}")
    return cycles


@lru_cache(maxsize=None)
def _narrow_class_number_is_one(D: int) -> bool:
    """h+(D) == 1, read off the principal rho-cycle alone.

    The cycle starts at (1, b0, (b0^2 - D)/4), b0 the largest integer
    below sqrt(D) with b0 = D (mod 2); that form is reduced, since
    sqrt(D) - b0 < 2 < sqrt(D) + b0.  The cycle is the set of reduced
    forms properly equivalent to it, i.e. the trivial narrow class.

    Lemma: a form that properly represents m, with 0 < |m| < sqrt(D)/2,
    has a reduced form (m, b, c) in its cycle.  It is properly equivalent
    to some (m, b', c'), and the translation b' -> b' + 2mt reaches a b
    with sqrt(D) - 2|m| < b < sqrt(D); then 0 < b and
    sqrt(D) - b < 2|m| < sqrt(D) + b, so (m, b, c) is reduced.

    The predicate holds iff the cycle contains
    (i) a form with a = -1, and
    (ii) for every prime l with 4 l^2 < D and (D/l) != -1, a form with a = l.

    The forms of the cycle represent exactly what the principal form, the
    norm form, represents.  If h+ = 1, then h+ = h forces a unit of norm
    -1, so the principal form represents -1, and every prime ideal of
    norm l has a generator of norm l, so it represents l; by the lemma
    (1 < sqrt(D)/2 for D >= 5) both show up in the cycle.  Conversely,
    (i) gives an element of norm -1, a unit, so the narrow and wide class
    groups are equal.  A form (l, b, c) in the cycle gives an element of
    norm l, which generates one of the primes above l; its conjugate
    generates the other.  By Minkowski's bound sqrt(D)/2 every ideal
    class holds an ideal of norm below sqrt(D)/2, a product of primes of
    norm l with 4 l^2 < D and of inert primes (l), which are principal;
    so (ii) makes every class trivial.

    Half the cycle is walked.  A reduced form with |a| = 1 has b = b0,
    since sqrt(D) - 2 < b < sqrt(D) and b = D (mod 2), so the only such
    forms are the start and its negation N(start), where N(a, b, c) =
    (-a, b, -c).  The walk stops at the first of the two it reaches.  If
    that is the start, the whole cycle was walked without a = -1, and
    (i) fails.  Otherwise it is N(start), reached in L steps.  Since rho
    reads only b and |c|, rho(N(f)) = N(rho(f)), so L more steps from
    N(start) reach N(N(start)) = start: the rest of the cycle is the
    negation of the walked half.  The values |a| over the half are then
    those over the whole cycle, and a form with a = l lies on the cycle
    iff l or -l does on the half, so (ii) reads the set of |a|.
    """
    s = math.isqrt(D)
    b0 = s if (D - s) % 2 == 0 else s - 1
    start = form = (1, b0, (b0 * b0 - D) // 4)
    leading = set()
    while True:
        leading.add(abs(form[0]))
        form = _rho(form, D, s)
        if abs(form[0]) == 1:
            break
    if form == start:
        return False
    ell = 2
    while 4 * ell * ell < D:
        if ell not in leading and kronecker(D, ell) != -1 and _is_prime(ell):
            return False
        ell += 1 if ell == 2 else 2
    return True


class FieldDescriptor(NamedTuple):
    """A real quadratic field pinned by its fundamental discriminant."""

    discriminant: int
    radicand: int
    two_splitting: Splitting
    narrow_class_number: int


def field_descriptor(D: int) -> FieldDescriptor:
    _require_real_fundamental(D)
    return FieldDescriptor(D, radicand(D), splitting_of_two(D), narrow_class_number(D))


@lru_cache(maxsize=None)
def narrow_one_fields(limit: int) -> tuple[FieldDescriptor, ...]:
    """All real quadratic fields with narrow class number one and
    discriminant <= limit, ascending.

    Genus theory prefilter: h+ is odd only when the discriminant has a
    single prime divisor, so D = 8 or D a prime congruent to 1 mod 4,
    read from one sieve up to the limit.
    The principal rho-cycle then decides (``_narrow_class_number_is_one``):
    h+ = 1 iff the cycle holds a form with a = -1, so that narrow and
    wide classes agree, and a form with a = l for each prime l below
    Minkowski's bound sqrt(D)/2 that is not inert, so that the primes
    generating the class group are principal.
    """
    out = []
    prime = _primes_up_to(limit)
    for D in range(5, limit + 1):
        if D != 8 and not (D % 4 == 1 and prime[D]):
            continue
        if _narrow_class_number_is_one(D):
            out.append(FieldDescriptor(D, radicand(D), splitting_of_two(D), 1))
    return tuple(out)
