"""Exact coefficient fields: the rationals and prime fields.

A rational value is a plain ``int`` when it is integral and a reduced
``fractions.Fraction`` with denominator > 1 otherwise; prime-field values are
plain ints in ``[0, p)``.  All arithmetic in the package goes through a
``Field`` so the two fields never mix.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import DgError, FieldMismatch, ParseError

# the README's coefficient grammar: ASCII digits only, so neither "1_0" nor
# "\u0663" parses, on every Python (Fraction accepts "1_0" from 3.11 on)
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson & Webster, Math. Comp. 86, 2017); no order at or above it is trusted
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; callers reject n >= _MR_EXACT_BELOW first
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ascii_int(text: str) -> int:
    """The int of ``text`` in the grammar ``[+-]?[0-9]+`` after ``strip``; else ValueError."""
    if not _INTEGER.fullmatch(text := text.strip()):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text, 10)


def _literal(text: str) -> str:
    """The repr of a literal for an error message, cut to 40 characters."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _too_long(text: str) -> str:
    """``"longer than N digits"`` when a number in ``text`` is past the
    interpreter's int conversion limit of N digits, else ``""``."""
    limit = sys.get_int_max_str_digits()
    if limit and any(len(run.replace("_", "")) > limit for run in re.findall(r"\d[\d_]*", text)):
        return f"longer than {limit} digits"
    return ""


class Field:
    """Common interface of the two supported fields."""

    kind: str

    def characteristic(self) -> int:
        raise NotImplementedError

    def coerce(self, x):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    # arithmetic on raw values
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

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


def _norm(x):
    """An integral Fraction as its int numerator; ints and other Fractions as they are."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


class RationalField(Field):
    """QQ: integral values are ``int``, all others reduced ``Fraction``.

    ``int`` and ``Fraction`` compare, hash and print alike, so the split is
    invisible to dict keys, equality and output; it only keeps integral
    arithmetic off the slower ``Fraction`` path.
    """

    kind = "rationals"
    zero = 0
    one = 1

    def characteristic(self):
        return 0

    def coerce(self, x):
        if isinstance(x, bool):
            raise DgError("bool is not a scalar")
        if isinstance(x, int):
            return int(x)
        if isinstance(x, Fraction):
            return _norm(Fraction(x))
        if isinstance(x, str):
            return self.parse(x)
        raise DgError(f"cannot coerce {type(x).__name__} into the rationals")

    def parse(self, text):
        text = text.strip()
        if "." in text or "e" in text.lower():
            raise ParseError(f"not an exact rational literal: {_literal(text)}")
        try:
            m = _RATIONAL.fullmatch(text)
            if not m:
                raise ValueError(f"Invalid literal for Fraction: {text!r}")
            num, den = m.groups()
            return int(num) if den is None else _norm(Fraction(int(num), int(den)))
        except (ValueError, ZeroDivisionError) as exc:
            reason = _too_long(text) or str(exc).replace(repr(text), _literal(text))
            raise ParseError(f"bad rational literal {_literal(text)}: {reason}") from None

    def format(self, a):
        return str(a)

    def add(self, a, b):
        return _norm(a + b)

    def sub(self, a, b):
        return _norm(a - b)

    def mul(self, a, b):
        return _norm(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _norm(Fraction(1, a))

    def is_zero(self, a):
        return not a

    def describe(self):
        return {"kind": "rationals"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if isinstance(p, int) and p >= _MR_EXACT_BELOW:
            raise DgError(f"prime field order must be below {_MR_EXACT_BELOW}, got {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise DgError(f"prime field order must be prime, got {p!r}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def characteristic(self):
        return self.p

    def coerce(self, x):
        if isinstance(x, bool):
            raise DgError("bool is not a scalar")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldMismatch(f"denominator divisible by {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if isinstance(x, str):
            return self.parse(x)
        raise DgError(f"cannot coerce {type(x).__name__} into GF({self.p})")

    def parse(self, text):
        text = text.strip()
        if "/" in text:
            raise ParseError(f"fractions are not residues: {_literal(text)}")
        try:
            return ascii_int(text) % self.p
        except ValueError:
            reason = _too_long(text)
            raise ParseError(f"bad residue literal {_literal(text)}" + (reason and f": {reason}")) from None

    def format(self, a):
        return str(a % self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def describe(self):
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if type(p) is not int:  # before the cache: a list is unhashable, and 2.0 would find GF(2)
        raise DgError(f"prime field order must be prime, got {p!r}")
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_description(desc: dict) -> Field:
    """Inverse of Field.describe, used by the file formats."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ParseError("field description must be an object with a 'kind'")
    kind = desc["kind"]
    if kind == "rationals":
        if set(desc) != {"kind"}:
            raise ParseError(f"unexpected keys in field description: {sorted(set(desc) - {'kind'})}")
        return QQ
    if kind == "prime":
        if set(desc) != {"kind", "p"}:
            raise ParseError("prime field description needs exactly 'kind' and 'p'")
        try:
            return GF(desc["p"])
        except DgError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown field kind {kind!r}")
