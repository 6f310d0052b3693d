"""Recursive-descent parser for the coefficient-field expression language.

Grammar (EBNF)::

    expr     = term { ("+" | "-") term } ;
    term     = unary { ("*" | "/") unary } ;
    unary    = "-" unary | power ;
    power    = atom [ "^" exponent ] ;
    exponent = [ "-" ] INTEGER ;
    atom     = NUMBER | VARIABLE | FUNC "(" expr ")" | "(" expr ")" ;
    FUNC     = "sin" | "cos" | "exp" ;

``+ - * /`` are left-associative; ``^`` binds tighter than unary minus and
requires a constant integer exponent, which keeps dual-number arithmetic
total.  Whitespace is insignificant.  Variable names are supplied by the
caller (typically ``x0..x{n-1}``, plus ``y0..`` or ``t`` where permitted);
anything else is an unknown identifier.  All errors carry the byte offset at
which they were detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dual as dm
from .fields import CoordDomain, GeoconnError, MatrixField, ScalarField, ShapeError, VectorField

_FUNCTIONS = ("sin", "cos", "exp")


class ParseError(GeoconnError):
    """Syntax or name error, positioned at a byte offset of the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    slot: int


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Num | Var | Neg | Bin | Pow | Call


def evaluate(node: Node, env: Sequence):
    """Evaluate over floats, dual numbers or numpy arrays (broadcasting)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.slot]
    if isinstance(node, Neg):
        return -evaluate(node.arg, env)
    if isinstance(node, Bin):
        a = evaluate(node.left, env)
        b = evaluate(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        return evaluate(node.base, env) ** node.exponent
    if node.fn == "sin":
        return dm.sin(evaluate(node.arg, env))
    if node.fn == "cos":
        return dm.cos(evaluate(node.arg, env))
    return dm.exp(evaluate(node.arg, env))


def variables_used(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables_used(node.arg)
    if isinstance(node, Bin):
        return variables_used(node.left) | variables_used(node.right)
    if isinstance(node, Pow):
        return variables_used(node.base)
    if isinstance(node, Call):
        return variables_used(node.arg)
    return set()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_str(node: Node) -> str:
    """Canonical printer; ``parse(to_str(parse(s)))`` equals ``parse(s)``."""

    def go(n: Node, parent_prec: int) -> str:
        if isinstance(n, Num):
            v = n.value
            s = repr(int(v)) if float(v).is_integer() and abs(v) < 1e16 else repr(v)
            return s
        if isinstance(n, Var):
            return n.name
        if isinstance(n, Neg):
            inner = go(n.arg, _PREC["neg"])
            s = f"-{inner}"
            return f"({s})" if parent_prec > _PREC["neg"] else s
        if isinstance(n, Bin):
            p = _PREC[n.op]
            left = go(n.left, p)
            # Right operand of - and / needs strictly higher precedence.
            right = go(n.right, p + 1)
            s = f"{left} {n.op} {right}"
            return f"({s})" if parent_prec > p else s
        if isinstance(n, Pow):
            base = go(n.base, _PREC["^"] + 1)
            s = f"{base}^{n.exponent}"
            return f"({s})" if parent_prec > _PREC["^"] else s
        return f"{n.fn}({go(n.arg, 0)})"

    return go(node, 0)


# -- tokenizer ----------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | lparen | rparen | end
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            start = i
            while i < n and (src[i].isdigit() or src[i] == "."):
                i += 1
            if i < n and src[i] in "eE":
                j = i + 1
                if j < n and src[j] in "+-":
                    j += 1
                if j < n and src[j].isdigit():
                    i = j
                    while i < n and src[i].isdigit():
                        i += 1
            text = src[start:i]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", start) from None
            if text.count(".") > 1:
                raise ParseError(f"malformed number {text!r}", start)
            tokens.append(_Token("num", text, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(_Token("ident", src[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], slots: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.slots = slots

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.offset)
        return self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Node:
        node = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Pow(node, self.parse_exponent())
        return node

    def parse_exponent(self) -> int:
        sign = 1
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            sign = -1
        tok = self.expect("num")
        value = float(tok.text)
        if not value.is_integer() or "." in tok.text or "e" in tok.text or "E" in tok.text:
            raise ParseError("exponent must be an integer literal", tok.offset)
        return sign * int(value)

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "lparen":
            self.advance()
            node = self.parse_expr()
            self.expect("rparen")
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in _FUNCTIONS:
                if self.peek().kind != "lparen":
                    raise ParseError(f"function {tok.text!r} requires an argument list", tok.offset)
                self.advance()
                arg = self.parse_expr()
                self.expect("rparen")
                return Call(tok.text, arg)
            if tok.text in self.slots:
                return Var(tok.text, self.slots[tok.text])
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.offset)


def parse(src: str, variables: Sequence[str]) -> Node:
    """Parse ``src`` against the ordered variable names ``variables``."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    slots = {name: i for i, name in enumerate(variables)}
    parser = _Parser(_tokenize(src), slots)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
    return node


# -- field construction ---------------------------------------------------


def coord_names(dim: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i}" for i in range(dim)]


def to_field(expr: Node | str | float, domain: CoordDomain) -> ScalarField:
    """Scalar field on ``domain`` with exact dual-number derivatives."""
    if isinstance(expr, (int, float)):
        return ScalarField.constant(domain, float(expr))
    names = coord_names(domain.dim)
    if isinstance(expr, str):
        expr = parse(expr, names)
    used = variables_used(expr)
    allowed = set(names)
    if not used <= allowed:
        raise ShapeError(f"expression uses {sorted(used - allowed)} outside domain dim {domain.dim}")
    node = expr
    return ScalarField(domain, lambda env: evaluate(node, env), mode="dual")


def to_vector_field(exprs: Sequence, domain: CoordDomain) -> VectorField:
    return VectorField([to_field(e, domain) for e in exprs])


def to_matrix_field(rows: Sequence[Sequence], domain: CoordDomain) -> MatrixField:
    return MatrixField([[to_field(e, domain) for e in row] for row in rows])


def time_batch(exprs: Sequence, derivative: bool = False):
    """Batched map from times to the values of expressions in ``t``.

    Shape ``(m,) -> (m, len(exprs))``, or ``() -> (len(exprs),)`` for one
    time.  With ``derivative`` the map gives the ``t``-derivatives instead,
    from one evaluation on dual numbers seeded with the times.
    """
    nodes = [parse(e, ["t"]) if isinstance(e, str) else Num(float(e)) for e in exprs]

    def batch(ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        env = dm.seed(ts[..., None]) if derivative else [ts]
        cols = []
        for n in nodes:
            v = evaluate(n, env)
            if derivative:
                v = v.eps[0] if isinstance(v, dm.Dual) else 0.0
            cols.append(np.broadcast_to(np.asarray(v, dtype=float), ts.shape))
        return np.stack(cols, axis=-1)

    return batch
