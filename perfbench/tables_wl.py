"""``tables`` workload: curvature, torsion and nabla tables on grids.

Why it exists: dual-number partials run point by point over a grid
(``connection.coeff_tensor_partial``, the ``prelie`` component formulas,
``anchor_hom_residual``), followed by report formatting.  This is where
batched jets would show; ``verify`` shows them only weakly and ``transport``
not at all.

One op is one in-process ``geoconn.cli.main([kind, "--config", ...,
"--grid", g, "--format", fmt, "--deterministic", "--out", ...])`` with
``kind`` in curvature/torsion/nabla, ``g`` in 4..6 and ``fmt`` in csv/json,
on a generated expression config with ``n`` in 2..4.  The configs carry no
``points``, because configured points make the CLI ignore ``--grid``.

Reference check: the row count, finite values, and agreement at sampled grid
points with the component formulas evaluated from the generator's
closed-form derivatives.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

# (n, k = l, grid sizes): a point costs roughly n * k * l^2 dual passes, so
# the larger bases get the smaller grids and every op stays well under a second.
SHAPES = ((2, 2, (5, 6)), (3, 2, (4, 5)), (4, 2, (4,)), (2, 3, (4, 6)))
KINDS = ("curvature", "torsion", "nabla")
FORMATS = ("csv", "json")
COEFF_SCALE = 0.3
BOX = 1.0
CHECK_POINTS = 4
VALUE_TOL = 1e-9
HOM_TOL = 1e-8  # geoconn's default anchor_hom_tol, which these configs keep


@dataclass
class TableConfig:
    n: int
    k: int
    seed: int
    anchor: list  # [i][alpha]
    coeffs: list  # [alpha][A][B]
    structure: list  # [lam][alpha][beta]
    s: list
    psi: list
    path: Path | None = None


@dataclass
class TableOp:
    kind: str
    grid: int
    fmt: str
    config: TableConfig
    out_path: Path | None = None
    loaded: object = None  # geoconn RunConfig, for the traced run's reference sample
    grid_points: object = None

    @property
    def label(self) -> str:
        c = self.config
        return f"{self.kind} n={c.n} k=l={c.k} grid={self.grid} {self.fmt}"

    def argv(self) -> list[str]:
        return [
            self.kind, "--config", str(self.config.path), "--grid", str(self.grid),
            "--format", self.fmt, "--deterministic", "--out", str(self.out_path),
        ]


def _config(rng, seed: int, n: int, k: int) -> TableConfig:
    xs = gen.coords(n)
    return TableConfig(
        n=n,
        k=k,
        seed=seed,
        anchor=gen.block(rng, xs, n, k, 1.0),
        coeffs=gen.connection(rng, xs, k, k, COEFF_SCALE),
        structure=gen.skew_structure(rng, xs, k, COEFF_SCALE),
        s=gen.block(rng, xs, 1, k, 1.0)[0],
        psi=gen.block(rng, xs, 1, k, 1.0)[0],
    )


def generate(seed: int) -> list[TableOp]:
    rng = np.random.default_rng(seed)
    ops = []
    for n, k, grids in SHAPES:
        cfg = _config(rng, seed, n, k)
        for grid in grids:
            for kind in KINDS:
                for fmt in FORMATS:
                    ops.append(TableOp(kind, grid, fmt, cfg))
    return ops


def document(cfg: TableConfig) -> dict:
    return {
        "schema_version": 1,
        "dims": {"n": cfg.n, "k": cfg.k, "l": cfg.k},
        "box": [[-BOX, BOX]] * cfg.n,
        "anchor": gen.src_nested(cfg.anchor),
        "connection": gen.src_nested(cfg.coeffs),
        "structure": gen.src_nested(cfg.structure),
        "sections": {"s": gen.src_nested(cfg.s), "psi": gen.src_nested(cfg.psi)},
        "seed": cfg.seed,
    }


def build(ops: list[TableOp], geoconn, workdir: Path, root: Path) -> None:
    """Write each distinct config once (set-up, untimed)."""
    configs = {}
    for i, op in enumerate(ops):
        cfg = op.config
        if id(cfg) not in configs:
            cfg.path = workdir / f"tables_{len(configs)}.json"
            cfg.path.write_text(json.dumps(document(cfg), indent=1), encoding="utf-8")
            configs[id(cfg)] = cfg
        op.out_path = workdir / f"tables_out_{i}.{op.fmt}"


def run(op: TableOp, geoconn):
    return geoconn.cli.main(op.argv())


def instrument(ops: list[TableOp], tracer, geoconn) -> None:
    """Load each op's config and grid for the batched reference sample."""
    loaded = {}
    for op in ops:
        path = op.config.path
        if path not in loaded:
            loaded[path] = geoconn.config.load(str(path))
        op.loaded = loaded[path]
        op.grid_points = op.loaded.bundle.base.grid(op.grid)


def after_traced_op(op: TableOp) -> None:
    """Batched values of the anchor and connection fields on the op's grid:
    the reference beside the op's point-by-point cost."""
    op.loaded.bundle.gamma.sample(op.grid_points)
    for block in op.loaded.connection.coeffs:
        block.sample(op.grid_points)


# -- reference ------------------------------------------------------------------


def _reference_at(cfg: TableConfig, x: np.ndarray) -> dict:
    env = gen.env_of(x)
    n, k = cfg.n, cfg.k
    gam = gen.ev_array(cfg.anchor, env)  # [i, alpha]
    coeff = gen.ev_array(cfg.coeffs, env)  # [alpha, A, B]
    c = gen.ev_array(cfg.structure, env)  # [lam, alpha, beta]
    dcoeff = np.stack([gen.ev_array(gen.d_nested(cfg.coeffs, f"x{j}"), env) for j in range(n)])
    dgam = np.stack([gen.ev_array(gen.d_nested(cfg.anchor, f"x{j}"), env) for j in range(n)])
    curv = (
        -np.einsum("ia,ibBA->abBA", gam, dcoeff)
        + np.einsum("ib,iaBA->abBA", gam, dcoeff)
        + np.einsum("aBC,bCA->abBA", coeff, coeff)
        - np.einsum("bBC,aCA->abBA", coeff, coeff)
        + np.einsum("lab,lBA->abBA", c, coeff)
    )
    tors = np.einsum("bla->abl", coeff) - np.einsum("alb->abl", coeff) - np.einsum("lab->abl", c)
    s = gen.ev_array(cfg.s, env)
    psi = gen.ev_array(cfg.psi, env)
    dpsi = np.stack([gen.ev_array(gen.d_nested(cfg.psi, f"x{j}"), env) for j in range(n)], axis=1)  # [A, j]
    nab = dpsi @ (gam @ s) - np.einsum("aAB,a,B->A", coeff, s, psi)
    hom = np.einsum("lab,il->iab", c, gam) - (
        np.einsum("ja,jib->iab", gam, dgam) - np.einsum("jb,jia->iab", gam, dgam)
    )
    return {"curvature": curv, "torsion": tors, "nabla": nab, "hom": float(np.max(np.abs(hom)))}


def _rows(op: TableOp) -> list[list]:
    text = op.out_path.read_text(encoding="utf-8")
    op.out_path.unlink()  # so that a later run must write its own table
    if op.fmt == "json":
        return json.loads(text)["rows"]
    table = list(csv.reader(io.StringIO(text)))
    return [[v == "True" if v in ("True", "False") else float(v) for v in row] for row in table[1:]]


def check(op: TableOp, rc, rng: np.random.Generator) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    cfg = op.config
    n, k = cfg.n, cfg.k
    rows = _rows(op)
    per_point = {"curvature": k**4, "torsion": k**3, "nabla": k}[op.kind]
    if len(rows) != op.grid**n * per_point:
        return f"{len(rows)} rows, expected {op.grid**n * per_point}"
    value_col = n + {"curvature": 4, "torsion": 3, "nabla": 1}[op.kind]
    values = np.array([float(r[value_col]) for r in rows])
    if not np.all(np.isfinite(values)):
        return "non-finite table value"
    for p in rng.choice(op.grid**n, size=min(CHECK_POINTS, op.grid**n), replace=False):
        block = rows[p * per_point : (p + 1) * per_point]
        x = np.array([float(v) for v in block[0][:n]])
        ref = _reference_at(cfg, x)
        want = ref[op.kind]
        for row in block:
            idx = tuple(int(v) for v in row[n:value_col])
            got = float(row[value_col])
            if abs(got - want[idx]) > VALUE_TOL * (1.0 + abs(want[idx])):
                return f"{op.kind}{list(idx)} at {x.tolist()}: {got!r}, reference {want[idx]!r}"
            if op.kind != "nabla" and not HOM_TOL / 10 < ref["hom"] < 10 * HOM_TOL:
                if row[value_col + 1] != (ref["hom"] <= HOM_TOL):
                    return f"tensorial flag {row[value_col + 1]} at {x.tolist()}, reference residual {ref['hom']:.3e}"
    return None
