"""Cantor normal form ordinals below epsilon_0.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with ordinal exponents
e1 > e2 > ... > ek and natural coefficients ci >= 1.  The empty sum is 0.
The representation is unique, and the usual ordinal order is the
lexicographic order on term lists.

Values are immutable and interned (hash-consed): every value is built by
`_ord`, which returns the one live object for its term tuple, so equal
ordinals are the same object, `==` is `is`, and values hash by identity.
`terms` is a plain slot, read-only by convention.

Each value's order key is built once, when the value is first built: the
flat tuple (height, key(e1), c1, key(e2), c2, ...) of ints and the
exponents' own keys.  Tuple order on keys is the value order, and comparing
two keys never calls back into Python; every order test reads the key
through order_key.  Height may lead because a <= b implies
cnf_height(a) <= cnf_height(b), by induction on the leading exponent
(lub's tower rule relies on it too); equal heights fall through to the
lexicographic term order.  Keys are never hashed: a key's hash walks the
whole tree.  The height and the widest coefficient's bit length are set at
the same time; a value taller than MAX_HEIGHT is refused with
BudgetExceeded.  Naturals are plain Python ints (arbitrary precision).
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import Iterable, List, Optional, Tuple

from .errors import BudgetExceeded, OrdinalDomainError

Natural = int


class Ordinal:
    """An ordinal below epsilon_0 in Cantor normal form."""

    __slots__ = ("terms", "_key", "_bits", "__weakref__")

    def __new__(cls, terms: Iterable[Tuple["Ordinal", int]] = ()):
        terms = tuple(terms)
        prev = None
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise OrdinalDomainError(f"exponent must be an Ordinal, got {exp!r}")
            check_natural(coeff, "coefficient", 1)
            if prev is not None and order_key(prev) <= order_key(exp):
                raise OrdinalDomainError("exponents must be strictly decreasing")
            prev = exp
        return _ord(terms)

    def __reduce__(self):
        # Copies and unpickled values go back through the table; the default
        # protocol would call Ordinal() and overwrite the slots of ZERO.
        return _ord, (self.terms,)

    def __deepcopy__(self, memo):
        return self  # immutable and interned; __reduce__ would walk every level

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_natural(self) -> bool:
        """True for 0 and for single-term w^0*c, i.e. the finite ordinals."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] is ZERO)

    def natural_value(self) -> Natural:
        if not self.terms:
            return 0
        if self.is_natural:
            return self.terms[0][1]
        raise OrdinalDomainError(f"{self} is not a natural number")

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ordering ----------------------------------------------------------

    def __lt__(self, other) -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return order_key(self) < order_key(other)

    def __le__(self, other) -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return order_key(self) <= order_key(other)

    def __gt__(self, other) -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return order_key(self) > order_key(other)

    def __ge__(self, other) -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return order_key(self) >= order_key(other)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        # Canonical text form; notation's eval_expr(parse(text)) reads it back:
        # terms joined by " + ", each "w^E*C" with the shorthands w^0*C -> "C",
        # w^1*C -> "w*C", and "*1" dropped.  A composite exponent (anything
        # other than a natural or w itself) gets parentheses, e.g. "w^(w + 1)".
        # Values are interned, so exponents are tested by identity.
        if not self.terms:
            return "0"
        out = []
        for exp, coeff in self.terms:
            if exp is ZERO:
                out.append(str(coeff))
                continue
            if exp is ONE:
                base = "w"
            elif exp is OMEGA:
                base = "w^w"
            elif len(exp.terms) == 1 and exp.terms[0][0] is ZERO:
                base = f"w^{exp.terms[0][1]}"
            else:
                base = f"w^({exp})"
            out.append(base if coeff == 1 else f"{base}*{coeff}")
        return " + ".join(out)

    def __repr__(self) -> str:
        return f"<Ordinal {self}>"


# The order key of a value; see the module docstring.
order_key = attrgetter("_key")


def compare(x: Ordinal, y: Ordinal) -> int:
    """Three-way comparison: -1, 0, or 1.

    CNF order is lexicographic on (exponent, coefficient) term lists, a
    missing term counting as smaller: tuple order on the order keys, all
    in C.
    """
    return 0 if x is y else -1 if order_key(x) < order_key(y) else 1


class _Ref(weakref.ref):
    __slots__ = ("key",)


# Term tuple -> weak reference to the one live Ordinal with those terms.
_TABLE = {}

# The tallest normal form _ord builds: every walk of a value's nesting (order,
# str, JSON, pickle, lub) fits the default stack, 190 frames to spare on 3.11.
MAX_HEIGHT = 200


def _drop(ref: _Ref) -> None:
    # Called when a value dies; a newer value may already own the entry.
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


def _ord(terms) -> Ordinal:
    # The one constructor; the caller guarantees a valid term list.
    terms = tuple(terms)
    ref = _TABLE.get(terms)
    o = ref() if ref is not None else None
    if o is None:
        # Height grows with value, so the leading exponent is the tallest.
        height = 1 + terms[0][0]._key[0] if terms else 0
        if height > MAX_HEIGHT:
            raise BudgetExceeded(
                f"a height-{height} normal form exceeds the {MAX_HEIGHT}-level cap")
        o = object.__new__(Ordinal)
        o.terms = terms
        key = [height]
        bits = 0
        for e, c in terms:
            key += (e._key, c)
            b = c.bit_length()
            if b > bits:
                bits = b
            b = e._bits
            if b > bits:
                bits = b
        o._key = tuple(key)
        o._bits = bits
        ref = _TABLE[terms] = _Ref(o, _drop)
        ref.key = terms
    return o


def interned(terms: tuple) -> Optional[Ordinal]:
    """The live value whose term tuple is terms, or None; builds nothing."""
    ref = _TABLE.get(terms)
    return None if ref is None else ref()


def check_natural(value, what: str, least: int = 0) -> None:
    """Reject anything but an int >= least; bools are not numbers here."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise OrdinalDomainError(f"{what} must be an integer >= {least}, got {value!r}")


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_natural(n: Natural) -> Ordinal:
    check_natural(n, "natural")
    if n == 0:
        return ZERO
    return _ord(((ZERO, n),))


def omega_power(exp: Ordinal) -> Ordinal:
    """w**exp as a single CNF term."""
    return _ord(((exp, 1),))


def is_additive_principal(x: Ordinal) -> bool:
    """True iff x = w^e for some e, i.e. exactly one unit term.

    These are the ordinals that absorb any smaller summand on the left.
    Note 1 = w^0 qualifies but 2 = w^0*2 does not.
    """
    return len(x.terms) == 1 and x.terms[0][1] == 1


def is_successor(x: Ordinal) -> bool:
    return bool(x.terms) and x.terms[-1][0] is ZERO


def is_limit(x: Ordinal) -> bool:
    return bool(x.terms) and x.terms[-1][0] is not ZERO


def successor(x: Ordinal) -> Ordinal:
    terms = x.terms
    if terms and terms[-1][0] is ZERO:
        e, c = terms[-1]
        return _ord(terms[:-1] + ((e, c + 1),))
    return _ord(terms + ((ZERO, 1),))


def predecessor(x: Ordinal) -> Ordinal:
    if not is_successor(x):
        raise OrdinalDomainError(f"{x} has no predecessor")
    e, c = x.terms[-1]
    if c > 1:
        return _ord(x.terms[:-1] + ((e, c - 1),))
    return _ord(x.terms[:-1])


def limit_and_finite_parts(x: Ordinal) -> Tuple[Ordinal, Natural]:
    """Write x = L + m with L zero or a limit and m a natural."""
    if is_successor(x):
        return _ord(x.terms[:-1]), x.terms[-1][1]
    return x, 0


def fundamental_prefix(lam: Ordinal, n: Natural) -> List[Ordinal]:
    """The first n members [lam[0], ..., lam[n-1]] of lam's fundamental sequence.

    For the last CNF term w^g of lam:
      g = g' + 1:   lam[k] = rest + w^g' * k
      g a limit:    lam[k] = rest + w^(g[k])
    where rest is lam with one unit of its last term removed.  Examples:
    w[3] = 3, (w^2)[3] = w*3, (w^w)[2] = w^2.  The last term is split once
    for all n members, and a limit exponent once per nesting level.
    """
    check_natural(n, "prefix length")
    return _members(lam, range(n))


def fundamental_sequence(lam: Ordinal, k: Natural) -> Ordinal:
    """lam[k] by fundamental_prefix's rule, one split per nesting level."""
    check_natural(k, "sequence index")
    return _members(lam, (k,))[0]


def _members(lam: Ordinal, ks: Iterable[Natural]) -> List[Ordinal]:
    # [lam[k] for k in ks], splitting the last term of lam once.
    if not is_limit(lam):
        raise OrdinalDomainError(f"{lam} is not a limit ordinal")
    (g, c), lead = lam.terms[-1], lam.terms[:-1]
    rest = lead + ((g, c - 1),) if c > 1 else lead
    if is_successor(g):
        gp = predecessor(g)
        return [_ord(rest + ((gp, k),)) if k else _ord(rest) for k in ks]
    return [_ord(rest + ((e, 1),)) for e in _members(g, ks)]


def cnf_height(x: Ordinal) -> Natural:
    """Nesting depth of the normal form: 0 for 0, else 1 + max over exponents.

    Every ordinal below w^w has height <= 2, below w^w^w height <= 3, and
    so on; unbounded height along an increasing sequence forces the
    supremum up to epsilon_0.  No value is taller than MAX_HEIGHT.
    """
    return x._key[0]
