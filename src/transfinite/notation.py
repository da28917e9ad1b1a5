"""Surface syntax for ordinal expressions.

Grammar (whitespace-insensitive)::

    expr := sum
    sum  := prod ("+" prod)*
    prod := pw ("*" pw)*
    pw   := atom ("^" pw)?          # right-associative, binds tightest
    atom := "w" | NAT | "(" expr ")" | FUNC
    FUNC := ("H"|"L") "(" NAT "," NAT "," NAT ")"
          | ("S"|"N") "(" NAT "," expr "," expr ")"

`w` is the first infinite ordinal.  The function forms take the
operation index first: H and L are the rightward and leftward finite
hyperoperations, S is the unified transfinite operation sequence, and N
is its naive literal extension.  Indices start at 1 (addition).
"""
from __future__ import annotations

import json
import sys
from collections import namedtuple
from typing import List, Optional, Tuple, Union

from .arithmetic import add, mul, pow_
from .budget import EvalBudget
from .errors import BudgetExceeded, ParseError
from .hyper import hyper, left_hyper
from .ordinal import OMEGA, Ordinal, from_natural
from .synthesis import naive_ext, synth

__all__ = [
    "NatLit", "Omega", "Add", "Mul", "Pow",
    "Hyper", "LeftHyper", "Synth", "NaiveExt",
    "Expr", "parse", "eval_expr", "format_ordinal",
]


class _Node:
    """A node equals only a node of its own type (Add(a, b) != Mul(a, b)),
    hashes by its fields and is always true, even the fieldless Omega()."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __bool__(self):
        return True


# Every index, NatLit's value and the operands of Hyper and LeftHyper are
# naturals; every other field is an Expr.
class NatLit(_Node, namedtuple("NatLit", "value")):
    __slots__ = ()


class Omega(_Node, namedtuple("Omega", "")):
    __slots__ = ()


class Add(_Node, namedtuple("Add", "left right")):
    __slots__ = ()


class Mul(_Node, namedtuple("Mul", "left right")):
    __slots__ = ()


class Pow(_Node, namedtuple("Pow", "base exponent")):
    __slots__ = ()


class Hyper(_Node, namedtuple("Hyper", "index base arg")):
    __slots__ = ()


class LeftHyper(_Node, namedtuple("LeftHyper", "index base arg")):
    __slots__ = ()


class Synth(_Node, namedtuple("Synth", "index left right")):
    __slots__ = ()


class NaiveExt(_Node, namedtuple("NaiveExt", "index left right")):
    __slots__ = ()


Expr = Union[NatLit, Omega, Add, Mul, Pow, Hyper, LeftHyper, Synth, NaiveExt]


# --- tokenizer ------------------------------------------------------------

# (kind, text, position); kind is "nat", "name", or the symbol itself.
Token = Tuple[str, str, int]

_SYMBOLS = set("+*^(),")


def _tokenize(text: str) -> List[Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("nat", text[i:j], i))
            i = j
        elif ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isalpha():
            tokens.append(("name", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[Token]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {kind!r}, got end of input", len(self.text))
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        if self.peek() is None or self.peek()[0] != kind:
            return False
        self.pos += 1
        return True

    # sum := prod ("+" prod)*
    def sum(self) -> Expr:
        node = self.prod()
        while self.accept("+"):
            node = Add(node, self.prod())
        return node

    # prod := pw ("*" pw)*
    def prod(self) -> Expr:
        node = self.pw()
        while self.accept("*"):
            node = Mul(node, self.pw())
        return node

    # pw := atom ("^" pw)?   -- right-associative
    def pw(self) -> Expr:
        node = self.atom()
        if self.accept("^"):
            node = Pow(node, self.pw())
        return node

    def atom(self) -> Expr:
        tok = self.next()
        kind, text, at = tok
        if kind == "nat":
            return NatLit(_natural(text))
        if kind == "(":
            node = self.sum()
            self.expect(")")
            return node
        if kind == "name":
            if text == "w":
                return Omega()
            if text in _FUNCS:
                return self.func(*_FUNCS[text])
            raise ParseError(f"unknown name {text!r}", at)
        raise ParseError(f"unexpected token {text!r}", at)

    def func(self, cls, operand) -> Expr:
        self.expect("(")
        tok = self.expect("nat")
        index = _natural(tok[1])
        if index < 1:
            raise ParseError("operation index must be at least 1", tok[2])
        self.expect(",")
        left = operand(self)
        self.expect(",")
        right = operand(self)
        self.expect(")")
        return cls(index, left, right)

    def nat(self) -> int:
        return _natural(self.expect("nat")[1])


_FUNCS = {"H": (Hyper, _Parser.nat), "L": (LeftHyper, _Parser.nat),
          "S": (Synth, _Parser.sum), "N": (NaiveExt, _Parser.sum)}


def _natural(digits: str) -> int:
    # int() refuses digit strings past the interpreter's limit, which the
    # command line lifts above what max_bits allows.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:
        raise BudgetExceeded(f"a {len(digits)}-digit literal exceeds the {limit}-digit limit")
    return int(digits)


def parse(text: str) -> Expr:
    """Parse `text` into an expression tree, or raise ParseError.

    A numeral longer than the interpreter converts, or nesting too deep
    for the interpreter stack, raises BudgetExceeded.
    """
    parser = _Parser(text)
    try:
        node = parser.sum()
    except RecursionError as exc:
        raise BudgetExceeded(f"parsing failed: {exc}") from exc
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing[1]!r}", trailing[2])
    return node


# --- evaluation -----------------------------------------------------------

def eval_expr(node: Expr, budget: Optional[EvalBudget] = None) -> Ordinal:
    """Evaluate an expression tree to an ordinal.

    Hyperoperation results are naturals and come back embedded via
    from_natural.  Every value, operands included, is held to max_bits.
    Raises BudgetExceeded, also for a tree past the stack, or NotRepresentable.
    """
    budget = budget or EvalBudget()
    try:
        return _eval(node, budget)
    except RecursionError as exc:
        raise BudgetExceeded(f"evaluation failed: {exc}") from exc


def _eval(node: Expr, budget: EvalBudget) -> Ordinal:
    if isinstance(node, NatLit):
        value = from_natural(node.value)
    elif isinstance(node, Omega):
        value = OMEGA
    elif isinstance(node, Add):
        value = add(_eval(node.left, budget), _eval(node.right, budget))
    elif isinstance(node, Mul):
        value = mul(_eval(node.left, budget), _eval(node.right, budget))
    elif isinstance(node, Pow):
        value = pow_(_eval(node.base, budget), _eval(node.exponent, budget), budget)
    elif isinstance(node, Hyper):
        value = from_natural(hyper(node.index, node.base, node.arg, budget))
    elif isinstance(node, LeftHyper):
        value = from_natural(left_hyper(node.index, node.base, node.arg, budget))
    elif isinstance(node, Synth):
        value = synth(node.index, _eval(node.left, budget), _eval(node.right, budget), budget)
    elif isinstance(node, NaiveExt):
        value = naive_ext(node.index, _eval(node.left, budget), _eval(node.right, budget), budget)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    budget.check_bits(value._bits)
    return value


# --- formatting -----------------------------------------------------------

def format_ordinal(x: Ordinal, style: str = "text") -> str:
    """Render an ordinal as canonical text or as a JSON document.

    A coefficient longer than the interpreter converts raises BudgetExceeded.
    """
    try:
        if style == "text":
            return str(x)
        if style == "json":
            return json.dumps(_json_obj(x))
    except ValueError as exc:
        # int-to-str refuses past the interpreter's limit; the CLI lifts it.
        raise BudgetExceeded(f"rendering failed: {exc}") from exc
    raise ValueError(f"unknown style {style!r}")


def _json_obj(x: Ordinal) -> dict:
    # Coefficients are decimal strings so arbitrary precision survives
    # any JSON parser; exponents recurse as nested objects.
    return {
        "terms": [
            {"exp": _json_obj(e), "coeff": str(c)} for e, c in x.terms
        ]
    }
