"""Exact scalar fields: the rationals and prime fields GF(p).

Every computation in the engine runs over one of these two field kinds.
Elements are plain Python values; a ``Field`` object bundles the arithmetic
so matrices can stay field-generic.  Each value has exactly one stored
form.  Over QQ it is an ``int`` when the value is integral and a
``fractions.Fraction`` with denominator > 1 otherwise, so the integral
values that dominate the paper's examples stay in native ``int``
arithmetic and the general representation is used only where it is needed
(as ``fmpz`` does in Hart, *FLINT: Fast Library for Number Theory*, ICMS
2010).  ``Fraction(2) == 2``, ``hash(Fraction(2)) == hash(2)`` and
``to_str`` writes both as ``2``, so equality, hashes and documents do not
depend on the form.  Over GF(p) it is an ``int`` residue in ``[0, p)``.
No value is ever a ``float``: nothing outside this module divides with
``/``.

The scalar methods (``add``, ``mul``, ``is_zero`` and the rest) serve the
engine one value at a time and return stored forms.  The ``Matrix`` kernels
do not call them per entry: they compute each term with the native ``+``,
``-`` and ``*`` of the stored values and hand every result row, column or
vector once to ``Field.normalise``, which returns its stored form, with the
zeros dropped.  Over QQ that turns each integral ``Fraction`` (``2 * 1/2``,
``1/2 + 1/2``) into its ``int`` and filters zeros where terms were summed;
over GF(p) it reduces every value mod p once (delayed modular reduction, as
in Dumas, Giorgi and Pernet, *FFLAS and FFPACK*, ACM TOMS 35(3), 2008).
``normalise_rows`` does the same for the rows of a matrix built from
arbitrary values and also says whether every value is an ``int``, which
picks the QQ product's path.

Both fields parse only the literals ``to_str`` writes: ``[+-]digits`` or
``[+-]digits/digits``.  Exponents, decimal points, underscores and
whitespace are refused, so no short literal expands into a huge integer.
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

    def normalise(self, acc: dict, summed: bool) -> dict:
        """Stored form of ``acc``, a dict of raw values built with native
        ``+ - *`` from stored values: canonical values, zeros dropped.

        ``summed`` says a value may be zero: terms were added, or the values
        are arbitrary input.  When it is false every value is a product of
        nonzero stored values.  The result may be ``acc`` itself.
        """
        raise NotImplementedError

    def normalise_rows(self, rows) -> tuple[list, bool]:
        """``normalise(row, True)`` of each row, and whether every value is
        known to be an ``int``: the pass that puts the values in stored
        form reads their types, so a matrix built from arbitrary input
        learns them for free (``Matrix._ints``)."""
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def parse(self, s):
        """Parse a scalar from an int (never a bool) or a literal like ``-3/7``."""
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.name


def _literal(s: str, kind: str) -> tuple[int, int]:
    """Numerator and denominator of a scalar literal in the grammar
    ``to_str`` writes, ``[+-]digits`` or ``[+-]digits/digits`` with ASCII
    digits; anything else raises ``ScalarParseError``."""
    try:
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if digits.isascii() and digits.isdigit() and (
                not slash or den.isascii() and den.isdigit()):
            return int(num), int(den) if slash else 1
    except ValueError:  # more digits than the interpreter converts
        pass
    raise ScalarParseError(f"bad {kind} literal {s!r}")


def _stored(v):
    """The stored form of a rational: an integral ``Fraction`` becomes its int."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


class Rationals(Field):
    """QQ, each value an ``int`` when integral, else a ``Fraction`` with
    denominator > 1."""

    name = "Q"

    def __init__(self):
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return _stored(a + b)

    def sub(self, a, b):
        return _stored(a - b)

    def mul(self, a, b):
        return _stored(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        # 1/(num/den) is den/num; never ``1 / a``, a float when a is an int
        return _stored(Fraction(a.denominator, a.numerator))

    def is_zero(self, a):
        return a == 0

    def normalise(self, acc, summed):
        for v in acc.values():
            if type(v) is not int:
                # a sum or product of Fractions may be integral (2 * 1/2)
                return {k: x.numerator if type(x) is not int and x.denominator == 1 else x
                        for k, x in acc.items() if x}
        # a product of nonzero ints is nonzero: only sums need the zero filter
        return {k: v for k, v in acc.items() if v} if summed else acc

    def normalise_rows(self, rows):
        out, ints = [], True
        for acc in rows:
            for v in acc.values():
                if type(v) is not int:
                    # an integral Fraction leaves the flag False: a hint only
                    ints = False
                    out.append(self.normalise(acc, True))
                    break
            else:
                out.append({k: v for k, v in acc.items() if v})
        return out, ints

    def from_int(self, n):
        return n

    def parse(self, s):
        if isinstance(s, bool):
            raise ScalarParseError(f"a boolean is not a scalar: {s!r}")
        if isinstance(s, int):
            return s
        if isinstance(s, Fraction):
            return _stored(s)
        if isinstance(s, str):
            num, den = _literal(s, "rational")
            if den == 0:
                raise ScalarParseError(f"bad rational literal {s!r}")
            return num if den == 1 else _stored(Fraction(num, den))
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

    def normalise(self, acc, summed):
        # every raw value needs its reduction, summed or not
        p = self.p
        return {k: r for k, v in acc.items() if (r := v % p)}

    def normalise_rows(self, rows):
        normalise = self.normalise
        return [normalise(r, True) for r in rows], True

    def from_int(self, n):
        return n % self.p

    def parse(self, s):
        if isinstance(s, bool):
            raise ScalarParseError(f"a boolean is not a scalar: {s!r}")
        if isinstance(s, int):
            return s % self.p
        if isinstance(s, str):
            num, den = _literal(s, f"GF({self.p})")
            if den == 1:
                return num % self.p
            if den % self.p == 0:
                raise ScalarParseError(f"bad GF({self.p}) literal {s!r}")
            return self.div(num % self.p, den % self.p)
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
