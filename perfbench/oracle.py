"""Second routes for the benchmark's correctness checks.

Nothing here imports the package under test.  Ordinals are plain nested
tuples ``((exponent, coefficient), ...)`` with strictly decreasing
exponents, ``()`` being zero, and the functions below render, compare,
generate, add, multiply and exponentiate them, evaluate level 4 of the
ladder below w^w, and evaluate the integer hyperoperations, independently
of ``transfinite``.  The workloads turn plain values into ``Ordinal`` only
to feed the code under test.
"""

from __future__ import annotations

import itertools
import random
from functools import cmp_to_key
from typing import List, Tuple

Plain = Tuple[Tuple["Plain", int], ...]

ZERO: Plain = ()
ONE: Plain = ((ZERO, 1),)
OMEGA: Plain = ((ONE, 1),)


def nat(k: int) -> Plain:
    return ((ZERO, k),) if k else ZERO


def wpow(p: Plain) -> Plain:
    """w^p as a single term."""
    return ((p, 1),)


def is_nat(p: Plain) -> bool:
    return not p or (len(p) == 1 and p[0][0] == ZERO)


def cmp(x: Plain, y: Plain) -> int:
    """Cantor normal form order: lexicographic on (exponent, coefficient)."""
    for (e1, c1), (e2, c2) in zip(x, y):
        c = cmp(e1, e2)
        if c:
            return c
        if c1 != c2:
            return -1 if c1 < c2 else 1
    return (len(x) > len(y)) - (len(x) < len(y))


def add(x: Plain, y: Plain) -> Plain:
    """x + y: the terms of x below y's leading exponent are absorbed."""
    if not y:
        return x
    lead, count = y[0]
    keep = tuple(t for t in x if cmp(t[0], lead) > 0)
    same = [c for e, c in x if e == lead]
    if same:
        return keep + ((lead, same[0] + count),) + y[1:]
    return keep + y


def mul(x: Plain, y: Plain) -> Plain:
    """x * y, distributing x over the terms of y from the left:
    x * w^b = w^(a + b) for b > 0, and x * c multiplies only x's leading
    coefficient, where w^a is x's leading power."""
    if not x:
        return ZERO
    (lead, count), rest = x[0], x[1:]
    out = ZERO
    for e, c in y:
        out = add(out, ((lead, count * c),) + rest if e == ZERO else ((add(lead, e), c),))
    return out


def split_finite(y: Plain) -> Tuple[Plain, int]:
    """y = lim + m with lim zero or a limit and m finite."""
    if y and y[-1][0] == ZERO:
        return y[:-1], y[-1][1]
    return y, 0


def nat_pow(k: int, m: int, max_bits: int) -> int:
    """k ** m, refusing a value wider than max_bits before building it."""
    if k > 1 and m * (k.bit_length() - 1) > max_bits:
        raise TooBig
    value = k ** m
    if value.bit_length() > max_bits:
        raise TooBig
    return value


def power(x: Plain, y: Plain, max_bits: int) -> Plain:
    """x ** y.  With y = lim + m (lim a limit or zero, m finite):
    k^lim = w^(lim / w) for finite k >= 2, x^lim = w^(a * lim) for
    infinite x with leading exponent a, and x^m by repeated squaring.
    0^y is 1 at y = 0 and at limits (by continuity), else 0."""
    lim, m = split_finite(y)
    if not x:
        return ZERO if m else ONE
    if x == ONE:
        return ONE
    if is_nat(x):
        tail = nat(nat_pow(x[0][1], m, max_bits))
        if not lim:
            return tail
        # w * z = lim term by term: w * w^e = w^(1 + e), and 1 + e = e for infinite e.
        z = tuple((nat(e[0][1] - 1) if is_nat(e) else e, c) for e, c in lim)
        return mul(wpow(z), tail)
    out = wpow(mul(x[0][0], lim)) if lim else ONE
    square = x
    while m:
        if m & 1:
            out = mul(out, square)
        m >>= 1
        if m:
            square = mul(square, square)
    return out


def coefficient_bits(p: Plain) -> int:
    """Widest coefficient anywhere in the form, exponents included."""
    return max((max(c.bit_length(), coefficient_bits(e)) for e, c in p), default=0)


class Unrepresentable(Exception):
    """A ladder value is epsilon_0 or larger, beyond Cantor normal form over w."""


def tetration(a: Plain, b: Plain, max_bits: int) -> Plain:
    """Level 4 of the ladder, S(4, a, b), for a >= 2 and b below w^w.

    b = u_1 + ... + u_k in additive units, and the value is the right fold
    H_1 ^ (H_2 ^ ... ^ H_k) with H_i = S(4, a, u_i): S(4, a, 1) = a, and
    S(4, a, w) = sup of the finite towers a^a^...^a, which is w for
    finite a and epsilon_0 for infinite a.  Every larger unit w^e, e >= 2,
    is a supremum over values with S(4, a, w) inside, so at least
    epsilon_0.  The fold runs from the innermost unit out and stops at
    the first refusal it meets: Unrepresentable, or TooBig for a value
    with a coefficient wider than max_bits.
    """
    if is_nat(a) and cmp(a, nat(2)) < 0:
        raise ValueError("the left operand must be at least 2")
    if not b:
        return ONE
    value = None
    for e, c in reversed(b):
        if not is_nat(e):
            raise ValueError("the right operand must be below w^w")
        if e == ZERO:
            head = a
        elif e == ONE and is_nat(a):
            head = OMEGA
        else:
            raise Unrepresentable
        for _ in range(c):
            value = head if value is None else power(head, value, max_bits)
            if coefficient_bits(value) > max_bits:
                raise TooBig
    return value


def render(p: Plain) -> str:
    """The canonical text form the command line prints.

    Terms are joined by " + "; w^0*C prints as C, w^1 as w, w^w as w^w,
    a natural exponent n as w^n, any other exponent in parentheses, and
    a coefficient of 1 is dropped.
    """
    if not p:
        return "0"
    out = []
    for e, c in p:
        if e == ZERO:
            out.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif e == OMEGA:
            base = "w^w"
        elif is_nat(e):
            base = f"w^{e[0][1]}"
        else:
            base = f"w^({render(e)})"
        out.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(out)


def render_expanded(p: Plain) -> str:
    """An equal value written without coefficients: w^e*3 -> w^e + w^e + w^e.

    An infinite value also gets a leading "1 + ", which it absorbs.
    """
    if not p:
        return "0"
    units = []
    for e, c in p:
        unit = "1" if e == ZERO else f"w^({render_expanded(e)})"
        units.extend([unit] * c)
    prefix = "" if is_nat(p) else "1 + "
    return prefix + " + ".join(units)


def rand_below_w_w(rng: random.Random, max_exp: int = 5,
                   max_terms: int = 3, max_coeff: int = 4) -> Plain:
    """Random value below w^w, drawn like ``rand_below_w_w`` in the tests."""
    count = rng.randint(0, max_terms)
    exps = rng.sample(range(max_exp + 1), min(count, max_exp + 1))
    return tuple((nat(e), rng.randint(1, max_coeff)) for e in sorted(exps, reverse=True))


def rand_below_w_w2(rng: random.Random, max_terms: int = 2, max_coeff: int = 3) -> Plain:
    """Random value below w^(w^2), drawn like ``rand_below_w_w2`` in the tests."""
    count = rng.randint(0, max_terms)
    pairs = set()
    while len(pairs) < count:
        pairs.add((rng.randint(0, 2), rng.randint(0, 2)))
    return _below_w_w2(rng, pairs, max_coeff)


def _below_w_w2(rng: random.Random, pairs, max_coeff: int = 3) -> Plain:
    """Sum of w^(w*a + b)*c over the exponent pairs (a, b), c drawn in 1..max_coeff."""
    out = []
    for a, b in sorted(pairs, reverse=True):
        exp = ((ONE, a),) * (a > 0) + ((ZERO, b),) * (b > 0)  # w*a + b
        out.append((exp, rng.randint(1, max_coeff)))
    return tuple(out)


# One cycle of the shapes rand_below_w_w2 draws, in their exact shares:
# zero, one term and two terms a third each, every exponent pair equally.
_EXPONENTS = [(a, b) for a in range(3) for b in range(3)]
_SHAPE_CYCLE = ([()] * 36 + [(e,) for e in _EXPONENTS for _ in range(4)]
                + list(itertools.combinations(_EXPONENTS, 2)))


def stratified_below_w_w2(rng: random.Random, count: int) -> List[Plain]:
    """``count`` values from the distribution of rand_below_w_w2, with each
    shape (the set of exponents) in its exact share and only the order,
    the coefficients and the remainder after whole cycles left to chance.
    The cost of an operation depends mostly on its operands' shapes, so
    this keeps the work in a corpus nearly the same from seed to seed."""
    cycles, rest = divmod(count, len(_SHAPE_CYCLE))
    shapes = _SHAPE_CYCLE * cycles + rng.sample(_SHAPE_CYCLE, rest)
    rng.shuffle(shapes)
    return [_below_w_w2(rng, shape) for shape in shapes]


def rand_tree(rng: random.Random, depth: int) -> Plain:
    """Random normal form nested up to ``depth``, drawn like ``rand_tree`` in the tests."""
    if depth == 0 or rng.random() < 0.3:
        return nat(rng.randint(0, 9))
    count = rng.randint(1, 3)
    exps: list = []
    while len(exps) < count:
        e = rand_tree(rng, depth - 1)
        if all(cmp(e, f) for f in exps):
            exps.append(e)
    exps.sort(key=cmp_to_key(cmp), reverse=True)
    return tuple((e, rng.randint(1, 9)) for e in exps)


def json_form(p: Plain) -> dict:
    """The structure ``eval --format json`` prints."""
    return {"terms": [{"exp": json_form(e), "coeff": str(c)} for e, c in p]}


class TooBig(Exception):
    """An integer hyperoperation value is wider than the bit cap."""


def hyper(n: int, a: int, b: int, max_bits: int) -> int:
    """Rightward hyperoperation [a, b] at level n, refusing wide values."""
    if n == 1:
        value = a + b
    elif n == 2:
        value = a * b
    else:
        value = 1
        for _ in range(b):
            value = hyper(n - 1, a, value, max_bits)
    if value.bit_length() > max_bits:
        raise TooBig
    return value


def left_hyper(n: int, a: int, b: int, max_bits: int) -> int:
    """Leftward hyperoperation: [a, b+1] = [[a, b], a] one level down."""
    if n <= 2:
        return hyper(n, a, b, max_bits)
    value = 1
    for _ in range(b):
        value = left_hyper(n - 1, value, a, max_bits)
    return value
