"""Expression trees for edge-coefficient functions, and their grammar.

The grammar covers real literals, the chart variable ``x``, the operators
``+ - * / ^`` (integer powers only), unary minus, ``exp`` and parentheses.
That is enough to write every coefficient used in this package, e.g. the
Fubini-Study weight ``2*exp(2*x)/(1+exp(2*x))^2``, while keeping symbolic
differentiation exact and trivial.

``Opaque`` nodes have no source text: a callable of x (or of -l - x, in
a reversed chart) with an optional derivative factory.  They carry
windows, interpolants, antiderivatives and reversed trees.  ``Poly`` is
a polynomial in x with ``Num`` coefficients, summed by Horner's rule.
The product and quotient helpers cancel g*(f/g) and (f*g)/g to f when
both g are one node, so the Hodge star applied twice returns its input.

Trees are immutable, so each node caches what is derived from it.
``node.diff()`` builds the derivative once, and a derivative shares
subtrees with its tree.  ``parse_expression`` caches its trees by source
text, and its parser builds one node per distinct subtree, so the two
``exp(2*x)`` of the Fubini-Study weight are one node.  ``node(x)`` (or
``node.eval(x)``) walks the tree and computes each distinct node once
per call, so a subtree shared by identity is computed once.  One walk
can also read several roots at x, as quadrature does with all the
integrands of a chart: the roots' values come out in order, and a node
they share is computed once for all of them.  A float x
gives Python-float arithmetic.  An array x gives numpy arithmetic and an
array of its shape, with each float literal a one-element array that
broadcasts: numpy's scalar ``**`` rounds differently from its array
loop, and this way a subtree of literals rounds as it would on arrays of
x's shape.

A literal may also be a column: an (F, 1) array.  A tree with column
literals (and polynomial coefficients, which are literals) holds F
expressions that differ only in those numbers, one per row: a family of
test forms is one tree per edge.  Its value at an array x of n nodes is
an (F, n) array whose row r is, bit for bit, the value of the tree with
each column replaced by its r-th entry, since numpy broadcasts the
columns elementwise; a walk can take a subset of the rows.
``rows(node)`` is F, or 1 for a tree without columns.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["Expression", "ExpressionError", "Opaque", "Poly", "parse_expression", "polynomial", "rows", "to_source"]


class ExpressionError(ValueError):
    """Syntax or name error in an expression, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Expression:
    """Base node of the expression tree."""

    def _derivative(self) -> "Expression":
        raise NotImplementedError

    # the derivative cache lives in the instance dict, which a frozen dataclass leaves writable
    def diff(self) -> "Expression":
        """The exact derivative, built once per node."""
        d = self.__dict__.get("_diff")
        if d is None:
            d = self.__dict__["_diff"] = self._derivative()
        return d

    def __call__(self, x):
        return _walk(self, x)

    eval = __call__


@dataclass(frozen=True)
class Num(Expression):
    value: float  # or an (F, 1) column

    def _derivative(self):
        return Num(0.0)


@dataclass(frozen=True)
class Var(Expression):
    def _derivative(self):
        return Num(1.0)


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression

    def _derivative(self):
        return _neg(self.arg.diff())


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression

    def _derivative(self):
        return _add(self.left.diff(), self.right.diff())


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression

    def _derivative(self):
        return _sub(self.left.diff(), self.right.diff())


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression

    def _derivative(self):
        return _add(_mul(self.left.diff(), self.right), _mul(self.left, self.right.diff()))


@dataclass(frozen=True)
class Div(Expression):
    left: Expression
    right: Expression

    def _derivative(self):
        num = _sub(_mul(self.left.diff(), self.right), _mul(self.left, self.right.diff()))
        return Div(num, Pow(self.right, 2))


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int

    def _derivative(self):
        if self.exponent == 0:
            return Num(0.0)
        inner = self.base.diff()
        outer = _mul(Num(float(self.exponent)), _pow(self.base, self.exponent - 1))
        return _mul(outer, inner)


@dataclass(frozen=True)
class Exp(Expression):
    arg: Expression

    def _derivative(self):
        return _mul(self, self.arg.diff())


@dataclass(frozen=True, eq=False)
class Opaque(Expression):
    """fn applied to arg; derivative() gives fn' as a tree in x, else fn' is a central difference."""

    fn: Callable
    arg: Expression = Var()
    derivative: Callable[[], Expression] | None = None

    def _derivative(self):
        inner = self.derivative() if self.derivative else Opaque(_central_difference(self.fn))
        if not isinstance(self.arg, Var):  # inner is a tree in x, to be read at arg
            inner = Opaque(inner, self.arg, inner.diff)
        return _mul(inner, self.arg.diff())


@dataclass(frozen=True, eq=False)
class Poly(Expression):
    """sum(coeffs[k] * x^k) of degree 1 or more, by Horner's rule in np.polyval's order.

    Its derivative is the polynomial of k * coeffs[k], not the product
    rule run through the Horner steps, which rounds differently."""

    coeffs: tuple  # of Num

    def _derivative(self):
        return polynomial([k * c.value for k, c in enumerate(self.coeffs) if k])


def _central_difference(fn: Callable) -> Callable:
    def deriv(x):
        x = np.asarray(x, dtype=float)
        h = np.maximum(1e-6, 1e-8 * np.abs(x))
        return (fn(x + h) - fn(x - h)) / (2.0 * h)

    return deriv


_BINARY = {Add, Sub, Mul, Div}
_OPS = {Neg: operator.neg, Exp: np.exp, Add: operator.add, Sub: operator.sub, Mul: operator.mul,
        Div: operator.truediv}


def _walk(roots, x, select=None):
    """Each root at x, computing each distinct node of all roots once.

    ``roots`` is one tree, whose value is returned, or a sequence of
    trees, whose values are yielded in order.  A pre-pass counts the
    readers over all roots, and a value is dropped after its last read,
    so a node shared by several roots is kept only until the last of
    them, and a caller that reduces each yielded value holds one root's
    value at a time.  ``select``, an index array, reads each column
    literal at those rows only, so a root with columns comes out with
    len(select) rows.
    """
    one = isinstance(roots, Expression)
    roots = (roots,) if one else tuple(roots)
    array = bool(np.ndim(x))
    x = np.asarray(x, dtype=float) if array else float(x)
    readers, values = {}, {}

    def count(node: Expression):
        key = id(node)
        if key in readers:
            readers[key] += 1
            return
        readers[key] = 1
        kind = type(node)
        if kind in _BINARY:
            count(node.left)
            count(node.right)
        elif kind is Poly:
            for c in node.coeffs:
                count(c)
        elif kind is not Num and kind is not Var:
            count(node.base if kind is Pow else node.arg)

    def value(node: Expression):
        key = id(node)
        v = values.get(key)
        if v is None:
            kind = type(node)
            if kind is Num:
                v = node.value
                if type(v) is np.ndarray:
                    v = v if select is None else v[select]
                else:
                    v = np.array([float(v)]) if array else float(v)
            elif kind is Var:
                v = x
            elif kind in _BINARY:
                v = _OPS[kind](value(node.left), value(node.right))
            elif kind is Poly:
                coeffs = node.coeffs
                v = value(coeffs[-1])
                for c in coeffs[-2::-1]:
                    v = v * x + value(c)
            elif kind is Opaque:
                arg = value(node.arg)
                v = _walk(node.fn, arg, select) if isinstance(node.fn, Expression) else node.fn(arg)
            elif kind is Pow:
                v = value(node.base) ** node.exponent
            else:
                v = _OPS[kind](value(node.arg))
        readers[key] -= 1
        if readers[key]:
            values[key] = v
        else:
            values.pop(key, None)
        return v

    def result(root: Expression):
        # a root without the variable or columns is a one-element array, filled to x's shape;
        # a root with the variable has x's shape already, and one with columns but not
        # the variable is an (F, 1) column
        v = value(root)
        return np.full(x.shape, v[0]) if array and np.shape(v) == (1,) != x.shape else v

    for root in roots:
        count(root)
    return result(roots[0]) if one else map(result, roots)


def _fields(node: Expression) -> list:
    return [getattr(node, name) for name in node.__match_args__]


def _children(node: Expression):
    kind = type(node)
    if kind is Poly:
        return node.coeffs
    if kind is Opaque:
        return (node.arg, node.fn) if isinstance(node.fn, Expression) else (node.arg,)
    return [f for f in _fields(node) if isinstance(f, Expression)]


def rows(node: Expression) -> int:
    """The rows of the tree's value: the length of its column literals, or 1 without any; cached per node."""
    r = node.__dict__.get("_rows")
    if r is None:
        value = node.value if type(node) is Num else None
        r = len(value) if type(value) is np.ndarray else max(map(rows, _children(node)), default=1)
        node.__dict__["_rows"] = r
    return r


def _literal(value) -> Num:
    """A number, or an (F, 1) column of them, as a literal node."""
    return Num(value if type(value) is np.ndarray else float(value))


def polynomial(coeffs) -> Expression:
    """sum(coeffs[k] * x^k) by Horner's rule in np.polyval's order: its bits for finite x, bar a leading -0.0.

    A coefficient is a float or an (F, 1) column.  A constant polynomial is
    its ``Num``, any other a ``Poly``.
    """
    coeffs = [_literal(c) for c in coeffs]
    if len(coeffs) <= 1:
        return coeffs[0] if coeffs else Num(0.0)
    return Poly(tuple(coeffs))


def _is_zero(e: Expression) -> bool:
    return type(e) is Num and type(e.value) is not np.ndarray and e.value == 0.0


def _is_one(e: Expression) -> bool:
    return type(e) is Num and type(e.value) is not np.ndarray and e.value == 1.0


def _neg(e):
    if isinstance(e, Num):
        return Num(-e.value)
    return Neg(e)


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    if type(a) is Num or type(b) is Num:
        if _is_zero(a) or _is_zero(b):
            return Num(0.0)
        if _is_one(a):
            return b
        if _is_one(b):
            return a
    if type(b) is Div and b.right is a:  # g * (f/g) = f exactly
        return b.left
    if type(a) is Div and a.right is b:
        return a.left
    return Mul(a, b)


def _div(a, b):
    if _is_one(b):
        return a
    if type(a) is Mul and a.right is b:  # (f*g)/g = f exactly
        return a.left
    if type(a) is Mul and a.left is b:
        return a.right
    return Div(a, b)


def _pow(base, n):
    if n == 0:
        return Num(1.0)
    if n == 1:
        return base
    return Pow(base, n)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


MAX_EXPONENT = 1024
# diff, the walk and to_source recurse per tree level, the parser per
# nesting level; both stay far below the recursion limit.  A derivative
# shares subtrees with its tree, and diff and the walk take each shared
# node once, so a k-th derivative stays small (819 distinct nodes for the
# third of the quotient chain exp(x)/(1+...) 15 deep); to_source still
# visits about depth^(k+1) nodes.  MAX_NODES bounds wide trees.
MAX_DEPTH = 32
MAX_NODES = 256


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.nodes = {}

    def intern(self, node: Expression) -> Expression:
        """The first node built with node's type, children and value, so a repeated subtree is one object.

        Keyed on the children's ids, as a dataclass hash would recurse the
        whole tree; ``hex`` keeps -0.0 apart from 0.0."""
        key = (type(node), *(id(f) if isinstance(f, Expression) else f.hex() if type(f) is float else f
                             for f in _fields(node)))
        return self.nodes.setdefault(key, node)

    def nested(self, parse, pos):
        if self.depth == MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expression:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ExpressionError(f"unexpected trailing input {value!r}", pos)
        return node

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = self.intern(Add(node, rhs) if value == "+" else Sub(node, rhs))
            else:
                return node

    def term(self) -> Expression:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                node = self.intern(Mul(node, rhs) if value == "*" else Div(node, rhs))
            else:
                return node

    def unary(self) -> Expression:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return self.intern(Neg(self.nested(self.unary, pos)))
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return self.intern(_pow(base, self.exponent()))
        return base

    def exponent(self) -> int:
        # Integer powers only; a '^' chain associates to the right.  Each
        # power along the chain must be an integer of magnitude at most
        # MAX_EXPONENT.  A literal has at most 4 significant digits and the
        # exponent m of the chain is already bounded, so n ** abs(m) is cheap.
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, pos = self.peek()
        if kind != "num" or any(c in value for c in ".eE"):
            raise ExpressionError("exponent must be an integer literal", pos)
        self.advance()
        too_large = ExpressionError(f"exponent exceeds {MAX_EXPONENT} in magnitude", pos)
        if len(value.lstrip("0")) > 4:
            raise too_large
        n = sign * int(value)
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            m = self.nested(self.exponent, pos)
            if m < 0 and abs(n) != 1:
                raise ExpressionError(f"exponent {n}^{m} is not an integer", pos)
            n = n ** abs(m)  # an int, and for n = +-1 equal to n ** m
        if abs(n) > MAX_EXPONENT:
            raise too_large
        return n

    def atom(self) -> Expression:
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            return self.intern(Num(float(value)))
        if kind == "name":
            self.advance()
            if value == "x":
                return self.intern(Var())
            if value == "exp":
                self.expect_op("(")
                arg = self.nested(self.expr, pos)
                self.expect_op(")")
                return self.intern(Exp(arg))
            raise ExpressionError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            self.advance()
            node = self.nested(self.expr, pos)
            self.expect_op(")")
            return node
        raise ExpressionError(f"expected a value, found {value!r}" if value else "unexpected end of input", pos)


@lru_cache(maxsize=256)
def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an expression tree.

    The tree is cached by source text and shared between callers, with
    its derivatives.  Raises ExpressionError with the byte
    offset of the first problem, or offset 0 for a tree deeper than
    MAX_DEPTH or larger than MAX_NODES.
    """
    tree = _Parser(text).parse()
    nodes, stack = 0, [(tree, 1)]
    while stack:  # no recursion: a long '+' chain is as deep as it is long
        node, level = stack.pop()
        nodes += 1
        if nodes > MAX_NODES:
            raise ExpressionError(f"expression has more than {MAX_NODES} nodes", 0)
        if level > MAX_DEPTH:
            raise ExpressionError(f"expression tree is deeper than {MAX_DEPTH} levels", 0)
        stack.extend((c, level + 1) for c in _fields(node) if isinstance(c, Expression))
    return tree


def to_source(node: Expression) -> str:
    """Print a tree back to grammar source; it reparses while it nests at most MAX_DEPTH deep."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return f"-({to_source(node.arg)})"
    if isinstance(node, Add):
        return f"({to_source(node.left)}+{to_source(node.right)})"
    if isinstance(node, Sub):
        return f"({to_source(node.left)}-{to_source(node.right)})"
    if isinstance(node, Mul):
        return f"({to_source(node.left)}*{to_source(node.right)})"
    if isinstance(node, Div):
        return f"({to_source(node.left)}/{to_source(node.right)})"
    if isinstance(node, Pow):
        # the base gets its own parentheses: '^' binds tighter than
        # unary minus, so -(x)^2 would reparse as -(x^2)
        if node.exponent < 0:
            return f"(({to_source(node.base)})^-{-node.exponent})"
        return f"(({to_source(node.base)})^{node.exponent})"
    if isinstance(node, Exp):
        return f"exp({to_source(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")
