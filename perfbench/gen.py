"""Seeded input generator for the benchmark.

Every expression is built as a small tree that can print itself in geoconn's
expression syntax, evaluate itself with numpy and differentiate itself
symbolically.  The benchmark hands geoconn only the printed text; the numpy
callables and the symbolic derivatives are kept for the reference checks, so
those checks never go through geoconn's own parser or derivative engine.

Constants are rounded to four decimals, so that the printed text parses back
to exactly the float the reference uses.
"""

from __future__ import annotations

import numpy as np


class Expr:
    def __add__(self, other):
        return add(self, lift(other))

    def __sub__(self, other):
        return add(self, neg(lift(other)))

    def __mul__(self, other):
        return mul(self, lift(other))

    def __truediv__(self, other):
        return Div(self, lift(other))

    def __neg__(self):
        return neg(self)


class Const(Expr):
    def __init__(self, c: float):
        self.c = float(c)

    def src(self) -> str:
        text = repr(self.c)
        return f"({text})" if self.c < 0 else text

    def ev(self, env):
        return self.c

    def d(self, name):
        return ZERO


class Var(Expr):
    def __init__(self, name: str):
        self.name = name

    def src(self) -> str:
        return self.name

    def ev(self, env):
        return env[self.name]

    def d(self, name):
        return ONE if name == self.name else ZERO


class Add(Expr):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def src(self) -> str:
        return f"({self.a.src()} + {self.b.src()})"

    def ev(self, env):
        return self.a.ev(env) + self.b.ev(env)

    def d(self, name):
        return add(self.a.d(name), self.b.d(name))


class Neg(Expr):
    def __init__(self, a):
        self.a = a

    def src(self) -> str:
        return f"(-{self.a.src()})"

    def ev(self, env):
        return -self.a.ev(env)

    def d(self, name):
        return neg(self.a.d(name))


class Mul(Expr):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def src(self) -> str:
        return f"({self.a.src()} * {self.b.src()})"

    def ev(self, env):
        return self.a.ev(env) * self.b.ev(env)

    def d(self, name):
        return add(mul(self.a.d(name), self.b), mul(self.a, self.b.d(name)))


class Div(Expr):
    """Quotients only appear in curve velocities, which are printed and
    evaluated but never differentiated."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def src(self) -> str:
        return f"({self.a.src()} / {self.b.src()})"

    def ev(self, env):
        return self.a.ev(env) / self.b.ev(env)


class Call(Expr):
    NUMPY = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

    def __init__(self, fn: str, a):
        self.fn, self.a = fn, a

    def src(self) -> str:
        return f"{self.fn}({self.a.src()})"

    def ev(self, env):
        return self.NUMPY[self.fn](self.a.ev(env))

    def d(self, name):
        if self.fn == "sin":
            outer = Call("cos", self.a)
        elif self.fn == "cos":
            outer = neg(Call("sin", self.a))
        else:
            outer = self
        return mul(outer, self.a.d(name))


ZERO = Const(0.0)
ONE = Const(1.0)


def lift(v) -> Expr:
    return v if isinstance(v, Expr) else Const(v)


def _is(e, c) -> bool:
    return isinstance(e, Const) and e.c == c


def add(a, b) -> Expr:
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.c + b.c)
    return Add(a, b)


def neg(a) -> Expr:
    if isinstance(a, Const):
        return Const(-a.c)
    return Neg(a)


def mul(a, b) -> Expr:
    if _is(a, 0.0) or _is(b, 0.0):
        return ZERO
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.c * b.c)
    return Mul(a, b)


def sin(a) -> Expr:
    return Call("sin", lift(a))


def cos(a) -> Expr:
    return Call("cos", lift(a))


def exp(a) -> Expr:
    return Call("exp", lift(a))


def coords(n: int) -> list[Var]:
    return [Var(f"x{i}") for i in range(n)]


def env_of(x) -> dict:
    """Variable environment of a base point."""
    x = np.asarray(x, dtype=float)
    return {f"x{i}": x[i] for i in range(x.shape[0])}


def ev_array(exprs, env) -> np.ndarray:
    """Evaluate a nested list of expressions to a float array of the same nesting."""
    if isinstance(exprs, Expr):
        return np.asarray(exprs.ev(env), dtype=float)
    return np.array([ev_array(e, env) for e in exprs])


def src_nested(exprs):
    if isinstance(exprs, Expr):
        return exprs.src()
    return [src_nested(e) for e in exprs]


def substitute(e: Expr, values: dict) -> Expr:
    """``e`` with every variable named in ``values`` replaced by its expression."""
    if isinstance(e, Var):
        return values.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return Neg(substitute(e.a, values))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.a, values))
    return type(e)(substitute(e.a, values), substitute(e.b, values))


def d_nested(exprs, name: str):
    if isinstance(exprs, Expr):
        return exprs.d(name)
    return [d_nested(e, name) for e in exprs]


# -- random pieces ------------------------------------------------------------


def const(rng: np.random.Generator, lo: float, hi: float) -> Const:
    return Const(round(float(rng.uniform(lo, hi)), 4))


KINDS = ("const", "poly", "sin", "exp")


def coefficient(rng: np.random.Generator, xs: list[Var], scale: float, kind: str) -> Expr:
    """One coefficient entry of the given kind, in the coordinates ``xs``."""
    i, j = (int(v) for v in rng.integers(len(xs), size=2))
    if kind == "const":
        return const(rng, -scale, scale)
    if kind == "poly":
        return const(rng, -scale, scale) + const(rng, -scale, scale) * xs[i] + const(rng, -scale, scale) * xs[i] * xs[j]
    if kind == "sin":
        return const(rng, -scale, scale) * sin(const(rng, 0.5, 2.0) * xs[i] + const(rng, -1.0, 1.0))
    return const(rng, -scale, scale) * exp(const(rng, -0.5, 0.5) * xs[i])


def _balanced(rng, xs, count: int, scale: float) -> list[Expr]:
    """``count`` coefficients whose kinds come in equal shares (up to one
    entry), so the cost of evaluating them varies little from seed to seed."""
    offset = int(rng.integers(len(KINDS)))
    kinds = [KINDS[(i + offset) % len(KINDS)] for i in rng.permutation(count)]
    return [coefficient(rng, xs, scale, kind) for kind in kinds]


def block(rng, xs, rows: int, cols: int, scale: float) -> list[list[Expr]]:
    flat = _balanced(rng, xs, rows * cols, scale)
    return [flat[r * cols : (r + 1) * cols] for r in range(rows)]


def connection(rng, xs, k: int, l: int, scale: float) -> list[list[list[Expr]]]:
    """Linear connection coefficients nested ``[alpha][A][B]``, kinds
    balanced over all of them."""
    flat = _balanced(rng, xs, k * l * l, scale)
    return [[flat[(a * l + r) * l : (a * l + r + 1) * l] for r in range(l)] for a in range(k)]


def skew_structure(rng, xs, k: int, scale: float) -> list[list[list[Expr]]]:
    """Structure functions ``[lam][alpha][beta]``, skew in the lower pair."""
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    entries = block(rng, xs, k, len(pairs), scale)
    out = [[[ZERO] * k for _ in range(k)] for _ in range(k)]
    for lam in range(k):
        for (a, b), e in zip(pairs, entries[lam]):
            out[lam][a][b] = e
            out[lam][b][a] = neg(e)
    return out


CURVE_KINDS = ("poly", "sin", "exp")


def time_component(rng, t: Var, center: float, amp: float, kind: str | None = None) -> Expr:
    """A curve coordinate in ``t`` on ``[0, 1]`` that stays within ``center +- amp``."""
    kind = kind or CURVE_KINDS[int(rng.integers(len(CURVE_KINDS)))]
    c = Const(round(center, 4))
    if kind == "poly":
        a = const(rng, -amp / 2, amp / 2)
        b = const(rng, -amp / 2, amp / 2)
        return c + a * t + b * t * t
    if kind == "sin":
        return c + const(rng, -amp, amp) * sin(const(rng, 1.0, 6.0) * t + const(rng, -1.0, 1.0))
    # |a| * (e^{|w|} - 1) stays below amp for |w| <= 1.
    return c + const(rng, -amp / 2, amp / 2) * (exp(const(rng, -1.0, 1.0) * t) - 1.0)


def gauss_legendre(fn, t0: float, t1: float, nodes: int = 64) -> float:
    """Integral of a vectorised ``fn`` over ``[t0, t1]``."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    ts = 0.5 * (t1 - t0) * z + 0.5 * (t1 + t0)
    return float(0.5 * (t1 - t0) * np.sum(w * fn(ts)))
