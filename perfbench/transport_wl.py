"""``transport`` workload: lifts along single curves and transport around loops.

Why it exists: the ``_kernels`` RK4 loop does almost all the work on long
curves, while on the short segments of a loop per-call overhead sets the
median op (the 101-point admissibility loop, the coefficient-grid set-up and
the zero-vector integration each segment throws away).  The same layer is
used in two ways, so a change that helps one use and costs the other shows.

One op is one ``geoconn.lift_curve`` or one piecewise
``geoconn.parallel_transport`` around a closed loop.  Inputs: identity
anchors on ``[-2, 2]^n`` with ``n`` in 1..3, connections with generated
constant, polynomial, sine and exponential coefficients, fiber rank ``l`` in
{1, 2, 4, 6}, step counts log-uniform on [50, 10000]; a third of the ops are
loops of 4 or 16 short curved segments.  Curves are admissible by construction:
``u`` is the symbolic derivative of ``x``.

Reference check (Liouville): ``det T = exp(int tr A dt)``, with the integral
taken by Gauss-Legendre quadrature from the generator's own numpy callables,
and for lifts the final fiber point equals ``T y0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import gen

# Sizes are the same for every seed, so that seeds differ in content but not
# in cost: step counts at the midpoints of four equal strata of
# log [50, 10000], and loops as (segments, steps per segment).
FIBER_RANKS = (1, 2, 4, 6)
LIFT_STEPS = tuple(int(round(50 * 200 ** ((j + 0.5) / 4))) for j in range(4))
LOOPS = ((4, 100), (16, 40))
COEFF_SCALE = 0.3
BOX = 2.0
# RK4 at the step counts used here stays well within this of the Liouville
# determinant on these coefficient sizes (worst over 30 seeds: 4.4e-8, on
# loops of 40-step segments); rounding alone is ~1e-14.
DET_REL_TOL = 1e-6
FIBER_REL_TOL = 1e-10


@dataclass
class Segment:
    x: list  # gen.Expr per base axis, in t on [0, 1]
    u: list
    curve: object = None


@dataclass
class TransportOp:
    kind: str  # "lift" or "loop"
    n: int
    l: int
    steps: int
    coeffs: list  # [alpha][A][B] of gen.Expr
    segments: list[Segment]
    y0: np.ndarray | None = None
    conn: object = None

    @property
    def label(self) -> str:
        return f"{self.kind} n={self.n} l={self.l} steps={self.steps} segments={len(self.segments)}"


def _curve_exprs(rng, n: int, index: int):
    """Component kinds cycle with the op index, so that every seed builds
    curves of the same cost."""
    t = gen.Var("t")
    centers = rng.uniform(-0.5, 0.5, n)
    kinds = gen.CURVE_KINDS
    xs = [gen.time_component(rng, t, float(c), 1.0, kinds[(index + i) % len(kinds)]) for i, c in enumerate(centers)]
    return xs, [x.d("t") for x in xs]


def _loop_exprs(rng, n: int, count: int):
    """Closed polygon with a sine bump on every edge; the bump vanishes at
    both ends of the edge, so consecutive segments meet exactly."""
    t = gen.Var("t")
    verts = [np.round(rng.uniform(-1.0, 1.0, n), 4) for _ in range(count)]
    verts.append(verts[0])
    out = []
    for p, q in zip(verts, verts[1:]):
        bump = gen.sin(gen.Const(math.pi) * t)
        xs = [
            gen.Const(float(p[i])) + gen.Const(float(q[i] - p[i])) * t + gen.const(rng, -0.2, 0.2) * bump
            for i in range(n)
        ]
        out.append(Segment(xs, [x.d("t") for x in xs]))
    return out


def generate(seed: int) -> list[TransportOp]:
    """The op pool: every fiber rank crossed with every size; the base
    dimension cycles through 1..3, shifted for each rank."""
    rng = np.random.default_rng(seed)
    ops = []
    for shift, l in enumerate(FIBER_RANKS):
        for steps in LIFT_STEPS:
            n = 1 + (len(ops) + shift) % 3
            xs, us = _curve_exprs(rng, n, len(ops))
            coeffs = gen.connection(rng, gen.coords(n), n, l, COEFF_SCALE)
            ops.append(TransportOp("lift", n, l, steps, coeffs, [Segment(xs, us)], y0=rng.uniform(-1, 1, l)))
        for count, steps in LOOPS:
            n = 1 + (len(ops) + shift) % 3
            coeffs = gen.connection(rng, gen.coords(n), n, l, COEFF_SCALE)
            ops.append(TransportOp("loop", n, l, steps, coeffs, _loop_exprs(rng, n, count)))
    return ops


def build(ops: list[TransportOp], geoconn, workdir, root) -> None:
    """Turn the generated expressions into geoconn objects (set-up, untimed)."""
    for op in ops:
        bundle = geoconn.AnchorBundle.identity(geoconn.CoordDomain.cube(op.n, -BOX, BOX))
        op.conn = geoconn.LinearConnection.from_exprs(bundle, gen.src_nested(op.coeffs))
        for seg in op.segments:
            seg.curve = geoconn.AdmissibleCurve.from_exprs(gen.src_nested(seg.x), gen.src_nested(seg.u), (0.0, 1.0))


def run(op: TransportOp, geoconn):
    if op.kind == "lift":
        return geoconn.lift_curve(op.conn, op.segments[0].curve, op.y0, op.steps)
    return geoconn.parallel_transport(op.conn, [s.curve for s in op.segments], op.steps)


def useful_integrations(op: TransportOp) -> int:
    """Vector integrations the op's result needs: the basis columns, plus y0
    for a lift; a loop returns only the matrix."""
    return op.l + 1 if op.kind == "lift" else op.l * len(op.segments)


def instrument(ops: list[TransportOp], tracer, geoconn) -> None:
    """Spans around the curves' batch samplers, which live on each curve."""
    for op in ops:
        for seg in op.segments:
            tracer.hook_attribute(seg.curve, "x_batch", "transport.curve_batch")
            tracer.hook_attribute(seg.curve, "u_batch", "transport.curve_batch")


def _trace_integral(op: TransportOp, seg: Segment) -> float:
    def tr_a(ts):
        env = {f"x{i}": seg.x[i].ev({"t": ts}) * np.ones_like(ts) for i in range(op.n)}
        total = np.zeros_like(ts)
        for alpha in range(op.n):
            u = seg.u[alpha].ev({"t": ts}) * np.ones_like(ts)
            diag = sum(op.coeffs[alpha][a][a].ev(env) * np.ones_like(ts) for a in range(op.l))
            total = total + u * diag
        return total

    return gen.gauss_legendre(tr_a, 0.0, 1.0)


def check(op: TransportOp, out, rng) -> str | None:
    """Liouville's formula, and ``y(1) = T y0`` for lifts."""
    matrix = out.transport_matrix if op.kind == "lift" else out
    if matrix.shape != (op.l, op.l) or not np.all(np.isfinite(matrix)):
        return f"transport matrix has shape {matrix.shape} or non-finite entries"
    want = math.exp(sum(_trace_integral(op, seg) for seg in op.segments))
    got = float(np.linalg.det(matrix))
    if abs(got - want) > DET_REL_TOL * want:
        return f"det T = {got!r}, Liouville gives {want!r}"
    if op.kind == "lift":
        y1 = out.final_fiber()
        ty0 = matrix @ op.y0
        scale = max(1.0, float(np.max(np.abs(ty0))))
        if float(np.max(np.abs(y1 - ty0))) > FIBER_REL_TOL * scale:
            return f"final fiber {y1.tolist()} differs from T y0 {ty0.tolist()}"
    return None
