"""``verify`` workload: the verification suite, ``geoconn check``.

Why it exists: the ``checks``, ``derivative``, ``prelie``, ``linalg`` and
per-point ``dual``/``fields`` work happens here, on user-written closures
with nested finite differences.  There is no transport kernel beyond the
admissibility check.

One op is one in-process ``geoconn.cli.main(["check", "--config", ...,
"--deterministic", "--out", ...])``.  Inputs: generated configs over all six
gallery anchors and over expression anchors, plus the five files in
``configs/`` as they are.  Curves are admissible by construction (``u``
solves ``anchor(x) u = x'`` symbolically), except where a config is meant to
fail.

Reference check: the verdict must match the verdict known by construction,
and the ``--deterministic`` report must be byte-identical every time the same
config runs again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

COEFF_SCALE = 0.3
# Verdicts of the shipped example configs: two of them fail by design.
SHIPPED = {
    "flat_ehresmann.json": True,
    "heisenberg_lie.json": True,
    "scalar_transport.json": False,
    "torsion_demo.json": True,
    "zero_anchor_nonzero_coeffs.json": False,
}


@dataclass
class VerifyOp:
    name: str
    expect_pass: bool
    doc: dict | None  # None for a shipped config file
    path: Path | None = None
    out_path: Path | None = None
    first_report: bytes | None = None

    @property
    def label(self) -> str:
        return f"check {self.name} expect={'pass' if self.expect_pass else 'fail'}"

    def argv(self) -> list[str]:
        return ["check", "--config", str(self.path), "--deterministic", "--out", str(self.out_path)]


def _curve(xs, us) -> dict:
    return {"x": gen.src_nested(xs), "u": gen.src_nested(us), "t0": 0.0, "t1": 1.0}


def _generic_curve(rng, n: int, center: float = 0.0, amp: float = 1.0):
    t = gen.Var("t")
    return [gen.time_component(rng, t, center + float(rng.uniform(-0.4, 0.4)), amp) for _ in range(n)]


def _contact_curve(rng):
    """Circle in (x0, x1) lifted to the contact distribution: x2' = (x0 x1' - x1 x0') / 2."""
    t = gen.Var("t")
    c0, c1, z0 = (gen.const(rng, -0.4, 0.4) for _ in range(3))
    r, w, phi = gen.const(rng, 0.3, 0.8), gen.const(rng, 0.5, 2.5), gen.const(rng, -1.0, 1.0)
    theta = w * t + phi
    half_r = gen.Const(r.c / 2)
    x2 = (
        z0
        + gen.Const(r.c * r.c * w.c / 2) * t
        + half_r * (c0 * gen.sin(theta) - c1 * gen.cos(theta))
        - gen.Const(r.c / 2 * (c0.c * math.sin(phi.c) - c1.c * math.cos(phi.c)))
    )
    return [c0 + r * gen.cos(theta), c1 + r * gen.sin(theta), x2]


def _gallery_doc(name: str, l: int, curve: dict, connection, seed: int) -> dict:
    return {
        "schema_version": 1,
        "anchor": name,
        "dims": {"l": l},
        "connection": gen.src_nested(connection),
        "curves": [curve],
        "seed": seed,
    }


def _expr_doc(anchor, connection, structure, curves, seed: int, box: float = 2.0) -> dict:
    n, k = len(anchor), len(anchor[0])
    doc = {
        "schema_version": 1,
        "dims": {"n": n, "k": k, "l": len(connection[0])},
        "box": [[-box, box]] * n,
        "anchor": gen.src_nested(anchor),
        "connection": gen.src_nested(connection),
        "curves": curves,
        "seed": seed,
    }
    if structure is not None:
        doc["structure"] = gen.src_nested(structure)
    return doc


def _diagonal_anchor(rng, xs):
    """Diagonal anchor f_i(x_i): its frame fields commute, so the zero
    structure makes it an exact homomorphism."""
    n = len(xs)
    out = [[gen.ZERO] * n for _ in range(n)]
    for i, x in enumerate(xs):
        if rng.integers(2):
            out[i][i] = gen.const(rng, 1.0, 1.5) + gen.const(rng, -0.3, 0.3) * gen.sin(x)
        else:
            out[i][i] = gen.const(rng, 0.8, 1.2) * gen.exp(gen.const(rng, -0.3, 0.3) * x)
    return out


def _gallery_ops(rng, seed: int) -> list[VerifyOp]:
    ops = []
    x2 = gen.coords(2)
    x3 = gen.coords(3)

    xs = _generic_curve(rng, 2)
    dx = [x.d("t") for x in xs]
    ops.append(VerifyOp("ehresmann", True, _gallery_doc(
        "ehresmann", 2, _curve(xs, dx), gen.connection(rng, x2, 2, 2, COEFF_SCALE), seed)))

    xs = _contact_curve(rng)
    dx = [x.d("t") for x in xs]
    ops.append(VerifyOp("subbundle", True, _gallery_doc(
        "subbundle", 2, _curve(xs, dx[:2]), gen.connection(rng, x3, 2, 2, COEFF_SCALE), seed)))

    # Anchor = transposed bivector [[0, 1], [-1, 0]]: x0' = -u1, x1' = u0.
    xs = _generic_curve(rng, 2)
    dx = [x.d("t") for x in xs]
    ops.append(VerifyOp("poisson", True, _gallery_doc(
        "poisson", 2, _curve(xs, [dx[1], -dx[0]]), gen.connection(rng, x2, 2, 2, COEFF_SCALE), seed)))

    # Anchor diag(x1, x0) on [0.5, 2]^2; the deformed bracket is not a
    # homomorphism there, so anchor_hom fails by construction.
    xs = _generic_curve(rng, 2, center=1.25, amp=0.35)
    dx = [x.d("t") for x in xs]
    ops.append(VerifyOp("nijenhuis", False, _gallery_doc(
        "nijenhuis", 2, _curve(xs, [dx[0] / xs[1], dx[1] / xs[0]]), gen.connection(rng, x2, 2, 2, COEFF_SCALE), seed)))

    # The anchor kernel is spanned by (x1/2, -x0/2, 1); an invertible third
    # coefficient block with the first two zero makes the lift kernel
    # smaller, so partial_connection fails by construction.
    xs = _contact_curve(rng)
    dx = [x.d("t") for x in xs]
    l = 2
    third = gen.block(rng, x3, l, l, 0.1)
    for a in range(l):
        third[a][a] = third[a][a] + 1.0
    zero = [[gen.ZERO] * l for _ in range(l)]
    ops.append(VerifyOp("heisenberg-sr", False, _gallery_doc(
        "heisenberg-sr", l, _curve(xs, [dx[0], dx[1], gen.ZERO]), [zero, zero, third], seed)))

    # Anchor rows (1,0,0), (0,1,0), (-x1/2, x0/2, 1); l = k = 3 adds the torsion check.
    xs = _generic_curve(rng, 3)
    dx = [x.d("t") for x in xs]
    u2 = dx[2] + gen.Const(0.5) * xs[1] * dx[0] - gen.Const(0.5) * xs[0] * dx[1]
    ops.append(VerifyOp("heisenberg-lie", True, _gallery_doc(
        "heisenberg-lie", 3, _curve(xs, [dx[0], dx[1], u2]), gen.connection(rng, x3, 3, 3, COEFF_SCALE), seed)))
    return ops


def _expression_ops(rng, seed: int) -> list[VerifyOp]:
    ops = []
    for n in (1, 2, 3):
        xs = gen.coords(n)
        anchor = _diagonal_anchor(rng, xs)
        curve = _generic_curve(rng, n)
        on_curve = {f"x{i}": c for i, c in enumerate(curve)}
        us = [curve[i].d("t") / gen.substitute(anchor[i][i], on_curve) for i in range(n)]
        zero = [[[gen.ZERO] * n for _ in range(n)] for _ in range(n)]
        doc = _expr_doc(anchor, gen.connection(rng, xs, n, 2, COEFF_SCALE), zero, [_curve(curve, us)], seed)
        ops.append(VerifyOp(f"diagonal-n{n}", True, doc))

    # Same kind of anchor, but u is twice the admissible one.
    xs = gen.coords(2)
    anchor = _diagonal_anchor(rng, xs)
    curve = _generic_curve(rng, 2)
    on_curve = {f"x{i}": c for i, c in enumerate(curve)}
    us = [gen.Const(2.0) * curve[i].d("t") / gen.substitute(anchor[i][i], on_curve) for i in range(2)]
    doc = _expr_doc(anchor, gen.connection(rng, xs, 2, 2, COEFF_SCALE), None, [_curve(curve, us)], seed)
    ops.append(VerifyOp("not-admissible", False, doc))

    # Generic anchor with generic structure functions: not a homomorphism.
    anchor = gen.block(rng, xs, 2, 2, 1.0)
    for i in range(2):
        anchor[i][i] = anchor[i][i] + 2.0
    doc = _expr_doc(anchor, gen.connection(rng, xs, 2, 2, COEFF_SCALE), gen.skew_structure(rng, xs, 2, 1.0), [], seed)
    ops.append(VerifyOp("generic-structure", False, doc))

    # Zero anchor: every direction is in its kernel, nonzero coefficients
    # are not, so partial_connection fails.
    anchor = [[gen.ZERO] * 2 for _ in range(2)]
    coeffs = gen.connection(rng, xs, 2, 2, COEFF_SCALE)
    for a in range(2):
        coeffs[a][a][a] = coeffs[a][a][a] + 1.0
    ops.append(VerifyOp("zero-anchor", False, _expr_doc(anchor, coeffs, None, [], seed)))
    return ops


def generate(seed: int) -> list[VerifyOp]:
    rng = np.random.default_rng(seed)
    ops = _gallery_ops(rng, seed) + _expression_ops(rng, seed)
    ops += [VerifyOp(name, verdict, None) for name, verdict in SHIPPED.items()]
    return ops


def build(ops: list[VerifyOp], geoconn, workdir: Path, root: Path) -> None:
    """Write the generated configs (set-up, untimed)."""
    for i, op in enumerate(ops):
        if op.doc is None:
            op.path = root / "configs" / op.name
        else:
            op.path = workdir / f"verify_{i}.json"
            op.path.write_text(json.dumps(op.doc, indent=1), encoding="utf-8")
        op.out_path = workdir / f"verify_out_{i}.json"


def run(op: VerifyOp, geoconn):
    return geoconn.cli.main(op.argv())


def check(op: VerifyOp, rc, rng) -> str | None:
    want_rc = 0 if op.expect_pass else 1
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    report = op.out_path.read_bytes()
    op.out_path.unlink()  # so that a later run must write its own report
    if json.loads(report)["passed"] is not op.expect_pass:
        return "report verdict disagrees with the exit code"
    if op.first_report is None:
        op.first_report = report
    elif report != op.first_report:
        return "deterministic report changed between runs of the same config"
    return None
