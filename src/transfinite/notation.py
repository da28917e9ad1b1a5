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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class NatLit:
    value: int


@dataclass(frozen=True)
class Omega:
    pass


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"


@dataclass(frozen=True)
class Hyper:
    index: int
    base: int
    arg: int


@dataclass(frozen=True)
class LeftHyper:
    index: int
    base: int
    arg: int


@dataclass(frozen=True)
class Synth:
    index: int
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class NaiveExt:
    index: int
    left: "Expr"
    right: "Expr"


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

    # sum := prod ("+" prod)*
    def sum(self) -> Expr:
        node = self.prod()
        while self.peek() is not None and self.peek()[0] == "+":
            self.next()
            node = Add(node, self.prod())
        return node

    # prod := pw ("*" pw)*
    def prod(self) -> Expr:
        node = self.pw()
        while self.peek() is not None and self.peek()[0] == "*":
            self.next()
            node = Mul(node, self.pw())
        return node

    # pw := atom ("^" pw)?   -- right-associative
    def pw(self) -> Expr:
        node = self.atom()
        if self.peek() is not None and self.peek()[0] == "^":
            self.next()
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
            if text in ("H", "L"):
                return self.nat_func(text)
            if text in ("S", "N"):
                return self.expr_func(text)
            raise ParseError(f"unknown name {text!r}", at)
        raise ParseError(f"unexpected token {text!r}", at)

    def nat_func(self, letter: str) -> Expr:
        self.expect("(")
        index = self.op_index()
        self.expect(",")
        base = _natural(self.expect("nat")[1])
        self.expect(",")
        arg = _natural(self.expect("nat")[1])
        self.expect(")")
        cls = Hyper if letter == "H" else LeftHyper
        return cls(index, base, arg)

    def expr_func(self, letter: str) -> Expr:
        self.expect("(")
        index = self.op_index()
        self.expect(",")
        left = self.sum()
        self.expect(",")
        right = self.sum()
        self.expect(")")
        cls = Synth if letter == "S" else NaiveExt
        return cls(index, left, right)

    def op_index(self) -> int:
        tok = self.expect("nat")
        index = _natural(tok[1])
        if index < 1:
            raise ParseError("operation index must be at least 1", tok[2])
        return index


def _natural(digits: str) -> int:
    # int() refuses digit strings past the interpreter's limit, which the
    # command line lifts above what max_bits allows.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:
        raise BudgetExceeded(f"a {len(digits)}-digit literal exceeds the {limit}-digit limit")
    return int(digits)


def parse(text: str) -> Expr:
    """Parse `text` into an expression tree, or raise ParseError.

    A numeral longer than the interpreter converts raises BudgetExceeded.
    """
    parser = _Parser(text)
    node = parser.sum()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing[1]!r}", trailing[2])
    return node


# --- evaluation -----------------------------------------------------------

def eval_expr(node: Expr, budget: Optional[EvalBudget] = None) -> Ordinal:
    """Evaluate an expression tree to an ordinal.

    Hyperoperation results are naturals and come back embedded via
    from_natural.  BudgetExceeded and NotRepresentable propagate.
    """
    budget = budget or EvalBudget()
    return _eval(node, budget)


def _eval(node: Expr, budget: EvalBudget) -> Ordinal:
    if isinstance(node, NatLit):
        budget.check_bits(node.value.bit_length())
        return from_natural(node.value)
    if isinstance(node, Omega):
        return OMEGA
    if isinstance(node, Add):
        return add(_eval(node.left, budget), _eval(node.right, budget))
    if isinstance(node, Mul):
        return mul(_eval(node.left, budget), _eval(node.right, budget))
    if isinstance(node, Pow):
        return pow_(_eval(node.base, budget), _eval(node.exponent, budget), budget)
    if isinstance(node, Hyper):
        return from_natural(hyper(node.index, node.base, node.arg, budget))
    if isinstance(node, LeftHyper):
        return from_natural(left_hyper(node.index, node.base, node.arg, budget))
    if isinstance(node, Synth):
        return synth(node.index, _eval(node.left, budget), _eval(node.right, budget), budget)
    if isinstance(node, NaiveExt):
        return naive_ext(node.index, _eval(node.left, budget), _eval(node.right, budget), budget)
    raise TypeError(f"not an expression node: {node!r}")


# --- formatting -----------------------------------------------------------

def format_ordinal(x: Ordinal, style: str = "text") -> str:
    """Render an ordinal as canonical text or as a JSON document."""
    if style == "text":
        return str(x)
    if style == "json":
        return json.dumps(_json_obj(x))
    raise ValueError(f"unknown style {style!r}")


def _json_obj(x: Ordinal) -> dict:
    # Coefficients are decimal strings so arbitrary precision survives
    # any JSON parser; exponents recurse as nested objects.
    return {
        "terms": [
            {"exp": _json_obj(e), "coeff": str(c)} for e, c in x.terms
        ]
    }
