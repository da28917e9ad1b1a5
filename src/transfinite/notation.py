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
from .budget import DEFAULT_BUDGET, EvalBudget
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
    hashes by its fields and is always true, even the fieldless Omega().
    Equality, hash and repr walk from a work list, so trees of any depth work."""

    __slots__ = ()

    def _flat(self):
        # Every node's type and every leaf, breadth first.  Each type has a
        # fixed number of fields, so this tuple determines the tree.
        todo = [self]
        for x in todo:
            if isinstance(x, _Node):
                todo += x
        return tuple(type(x) if isinstance(x, _Node) else x for x in todo)

    def __eq__(self, other):
        return type(other) is type(self) and self._flat() == other._flat()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._flat())

    def __repr__(self):
        # The named tuple's text, Add(left=Omega(), right=NatLit(value=2)),
        # from a work list of literal text and (field value,) items.
        out, todo = [], [(self,)]
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
            elif not isinstance(item[0], _Node):
                out.append(repr(item[0]))
            else:
                node = item[0]
                out.append(type(node).__name__ + "(")
                todo.append(")")
                for k in reversed(range(len(node))):
                    todo += ((node[k],), ", " * (k > 0) + node._fields[k] + "=")
        return "".join(out)

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


_FUNCS = {"H": Hyper, "L": LeftHyper, "S": Synth, "N": NaiveExt}
_BINARY = {"+": Add, "*": Mul, "^": Pow}
# The open operators each symbol applies first: "^" groups to the right.
_FIRST = {"+": ("+", "*", "^"), "*": ("*", "^"), "^": ()}


def _natural(digits: str) -> int:
    # int() refuses digit strings past the interpreter's limit, which the
    # command line lifts above what max_bits allows.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:
        raise BudgetExceeded(f"a {len(digits)}-digit literal exceeds the {limit}-digit limit")
    return int(digits)


def parse(text: str) -> Expr:
    """Parse `text` into an expression tree, or raise ParseError.

    One loop over the tokens with its own lists, so input of any nesting
    parses.  A numeral longer than the interpreter converts raises
    BudgetExceeded.
    """
    tokens = _tokenize(text)
    tokens.append(("end", "end of input", len(text)))
    pos = 0

    def expect(kind: str) -> str:
        nonlocal pos
        got, word, at = tokens[pos]
        if got != kind:
            raise ParseError(f"expected {kind!r}, got "
                             + (word if got == "end" else repr(word)), at)
        pos += 1
        return word

    # Open "+", "*", "^", "(" and (class, index, left) markers of S and N
    # forms, whose left is None until its "," is read.
    ops = []
    operands = []
    while True:
        kind, word, at = tokens[pos]
        pos += 1
        if kind == "nat":
            operands.append(NatLit(_natural(word)))
        elif kind == "(":
            ops.append("(")
            continue
        elif kind != "name":
            raise ParseError("unexpected end of input" if kind == "end"
                             else f"unexpected token {word!r}", at)
        elif word == "w":
            operands.append(Omega())
        elif word in _FUNCS:
            cls = _FUNCS[word]
            expect("(")
            at = tokens[pos][2]
            index = _natural(expect("nat"))
            if index < 1:
                raise ParseError("operation index must be at least 1", at)
            expect(",")
            if cls is Synth or cls is NaiveExt:
                ops.append((cls, index, None))
                continue
            base = _natural(expect("nat"))
            expect(",")
            operands.append(cls(index, base, _natural(expect("nat"))))
            expect(")")
        else:
            raise ParseError(f"unknown name {word!r}", at)
        # After an operand: apply what binds tighter than the next symbol,
        # then open it, or close the innermost "(" or S/N form.
        while True:
            kind, word, at = tokens[pos]
            first = _FIRST.get(kind, _FIRST["+"])
            while ops and ops[-1] in first:
                right = operands.pop()
                operands[-1] = _BINARY[ops.pop()](operands[-1], right)
            if kind in _FIRST:
                ops.append(kind)
                pos += 1
                break
            if not ops:
                if kind == "end":
                    return operands[0]
                raise ParseError(f"trailing input {word!r}", at)
            top = ops.pop()
            if top == "(":
                expect(")")
            elif top[2] is None:
                expect(",")
                ops.append((top[0], top[1], operands.pop()))
                break
            else:
                expect(")")
                right = operands.pop()
                operands.append(top[0](top[1], top[2], right))


# --- evaluation -----------------------------------------------------------

# The two operands of every inner node are its last two fields.
_APPLY = {
    Add: lambda node, x, y, budget: add(x, y),
    Mul: lambda node, x, y, budget: mul(x, y),
    Pow: lambda node, x, y, budget: pow_(x, y, budget),
    Synth: lambda node, x, y, budget: synth(node.index, x, y, budget),
    NaiveExt: lambda node, x, y, budget: naive_ext(node.index, x, y, budget),
}
_APPLY_NEXT = object()  # on the work list above the inner node it applies


def eval_expr(node: Expr, budget: Optional[EvalBudget] = None) -> Ordinal:
    """Evaluate an expression tree to an ordinal.

    The tree is walked from a list, left operand first, so a tree of any
    depth evaluates.  Hyperoperation results are naturals and come back
    embedded via from_natural.  Every value, operands included, is held to
    max_bits.  Raises BudgetExceeded or NotRepresentable.
    """
    budget = budget or DEFAULT_BUDGET
    todo = [node]
    values = []
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is NatLit:
            value = from_natural(node.value)
        elif kind is Omega:
            value = OMEGA
        elif kind is Hyper:
            value = from_natural(hyper(*node, budget))
        elif kind is LeftHyper:
            value = from_natural(left_hyper(*node, budget))
        elif node is _APPLY_NEXT:
            node = todo.pop()
            right = values.pop()
            value = _APPLY[type(node)](node, values.pop(), right, budget)
        elif kind in _APPLY:
            todo += (node, _APPLY_NEXT, node[-1], node[-2])
            continue
        else:
            raise TypeError(f"not an expression node: {node!r}")
        budget.check_bits(value._bits)
        values.append(value)
    return values[0]


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
