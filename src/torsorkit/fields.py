"""Exact scalar fields: the rationals and prime fields GF(p).

Every computation in the engine runs over one of these two field kinds.
Elements are plain Python values (``fractions.Fraction`` for the rationals,
``int`` residues for GF(p)); a ``Field`` object bundles the arithmetic so
matrices can stay field-generic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotPrime, ScalarParseError


class Field:
    """Common interface of QQ and GF(p).  Values are opaque to callers."""

    name = "?"

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def parse(self, s):
        """Parse a scalar from an int or a decimal string like ``-3/7``."""
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class Rationals(Field):
    name = "Q"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return Fraction(n)

    def parse(self, s):
        if isinstance(s, int):
            return Fraction(s)
        if isinstance(s, Fraction):
            return s
        if isinstance(s, str):
            try:
                return Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise ScalarParseError(f"bad rational literal {s!r}") from exc
        raise ScalarParseError(f"cannot parse scalar from {type(s).__name__}")

    def to_str(self, a):
        return str(a)


# deterministic Miller-Rabin: the first 12 prime bases decide primality
# exactly below psi_12 (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Exact primality test; raises ``NotPrime`` above the certified range."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise NotPrime(f"GF({n}): modulus too large to certify")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """GF(p) with residues stored as ints in ``[0, p)``."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise NotPrime(f"GF({p}): modulus is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def from_int(self, n):
        return n % self.p

    def parse(self, s):
        if isinstance(s, int):
            return s % self.p
        if isinstance(s, str):
            if "/" in s:
                num, _, den = s.partition("/")
                try:
                    return self.div(int(num) % self.p, int(den) % self.p)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ScalarParseError(f"bad GF({self.p}) literal {s!r}") from exc
            try:
                return int(s) % self.p
            except ValueError as exc:
                raise ScalarParseError(f"bad GF({self.p}) literal {s!r}") from exc
        raise ScalarParseError(f"cannot parse scalar from {type(s).__name__}")

    def to_str(self, a):
        return str(a % self.p)


QQ = Rationals()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_spec(spec) -> Field:
    """Field from a document spec: the string ``"Q"`` or ``{"GF": p}``."""
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"GF"}:
        p = spec["GF"]
        if isinstance(p, str) and p.isascii() and p.isdigit():
            p = int(p)
        if type(p) is not int:
            raise ScalarParseError(f"GF modulus must be an integer, not {p!r}")
        return GF(p)
    raise ScalarParseError(f"unrecognised field spec {spec!r}")


def field_to_spec(field: Field):
    if isinstance(field, Rationals):
        return "Q"
    if isinstance(field, PrimeField):
        return {"GF": field.p}
    raise ScalarParseError(f"unrecognised field object {field!r}")
