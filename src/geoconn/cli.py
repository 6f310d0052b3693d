"""Command-line front end.

Subcommands: ``check``, ``transport``, ``nabla``, ``curvature``, ``torsion``,
``describe``.  Every JSON report embeds the seed and the tolerances, and a
transport report its step count; with ``--deterministic`` the report is
byte-identical across reruns of the same config.  Exit codes: 0 pass, 1 check
failure, 2 config or usage error, 3 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys

import numpy as np

from . import checks as checkmod
from . import config as configmod
from .bundle import AdmissibilityError
from .connection import LinearConnection
from .fields import GeoconnError
from .prelie import anchor_hom_residual, curvature_components, torsion_components
from .derivative import nabla
from .transport import lift_curve

SCHEMA_VERSION = configmod.SCHEMA_VERSION


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(payload: dict, args) -> str:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    if not args.deterministic:
        payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _csv_table(columns: list[str], rows: list[list]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = [_fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _load(args) -> configmod.RunConfig:
    cfg = configmod.load(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _meta(cfg: configmod.RunConfig) -> dict:
    return {"seed": cfg.seed, "tolerances": dataclasses.asdict(cfg.tolerances)}


def cmd_check(args) -> int:
    cfg = _load(args)
    report = checkmod.run_all(cfg)
    report.update(_meta(cfg))
    report["command"] = "check"
    _emit(_json_report(report, args), args.out)
    return 0 if report["passed"] else 1


def cmd_transport(args) -> int:
    cfg = _load(args)
    if not cfg.curves:
        raise configmod.ConfigError("$.curves", "transport needs at least one curve")
    if not 0 <= args.curve_index < len(cfg.curves):
        raise configmod.ConfigError("$.curves", f"curve index {args.curve_index} out of range")
    if cfg.connection is None or not isinstance(cfg.connection, LinearConnection):
        raise configmod.ConfigError("$.connection", "transport needs a linear connection")
    curve = cfg.curves[args.curve_index]
    sources = (args.steps, cfg.steps, getattr(curve, "steps", None))
    steps = next((s for s in sources if s is not None), None)
    y0 = np.array([float(v) for v in args.y0.split(",")]) if args.y0 else np.eye(cfg.connection.l)[0]
    result = lift_curve(cfg.connection, curve, y0, steps)
    payload = {
        "command": "transport",
        "curve_index": args.curve_index,
        "transport_matrix": result.transport_matrix,
        "residual": result.max_admissibility_residual,
        "step_count": result.step_count,
        "y0": y0,
        "y1": result.final_fiber(),
        "steps": result.step_count,
    }
    payload.update(_meta(cfg))
    if args.samples:
        columns = (
            ["t"]
            + [f"x{i}" for i in range(cfg.bundle.n)]
            + [f"y{a}" for a in range(cfg.connection.l)]
        )
        rows = [
            [t, *xs, *ys]
            for t, xs, ys in zip(result.ts, result.base_points, result.fiber_points)
        ]
        with open(args.samples, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_table(columns, rows))
        payload["samples"] = args.samples
    if args.format == "csv":
        columns = [f"m{j}" for j in range(cfg.connection.l)]
        _emit(_csv_table(columns, [list(r) for r in result.transport_matrix]), args.out)
    else:
        _emit(_json_report(payload, args), args.out)
    return 0


def _grid_points(cfg: configmod.RunConfig, per_axis: int | None) -> np.ndarray:
    if cfg.points:
        if per_axis is not None:
            raise configmod.ConfigError("$.points", "--grid conflicts with the configured points")
        return np.stack(cfg.points)
    return cfg.bundle.base.grid(3 if per_axis is None else per_axis)


def _grid_rows(points: np.ndarray, values: np.ndarray, extra: np.ndarray | None = None) -> list[list]:
    """Rows ``[*x, *index, value]``, one per point and component of ``values``
    (shape ``(m,) + S``), ending in the point's ``extra`` entry if given."""
    xs = points.tolist()
    tail = [[]] * len(xs) if extra is None else [[e] for e in extra.tolist()]
    cells = zip(np.ndindex(values.shape), values.reshape(-1).tolist())
    return [[*xs[i[0]], *i[1:], v, *tail[i[0]]] for i, v in cells]


def _emit_table(args, cfg: configmod.RunConfig, columns: list[str], rows: list[list], **extra) -> int:
    """A grid command's table, as CSV or as a JSON report with ``extra`` keys."""
    if args.format == "csv":
        _emit(_csv_table(columns, rows), args.out)
    else:
        payload = {"command": args.command, "columns": columns, "rows": rows, **extra}
        payload.update(_meta(cfg))
        _emit(_json_report(payload, args), args.out)
    return 0


def cmd_nabla(args) -> int:
    cfg = _load(args)
    if cfg.connection is None or not isinstance(cfg.connection, LinearConnection):
        raise configmod.ConfigError("$.connection", "nabla needs a linear connection")
    if "s" not in cfg.sections or "psi" not in cfg.sections:
        raise configmod.ConfigError("$.sections", "nabla needs sections 's' and 'psi'")
    s = cfg.sections["s"]
    psi = cfg.sections["psi"]
    points = _grid_points(cfg, args.grid)
    columns = [f"x{i}" for i in range(cfg.bundle.n)] + ["component", "value"]
    return _emit_table(args, cfg, columns, _grid_rows(points, nabla(cfg.connection, s, psi, points)))


def _component_table(cfg, per_axis: int | None, kind: str) -> tuple[list[str], list[list], list[dict]]:
    components, indices = {
        "curvature": (curvature_components, ["alpha", "beta", "B", "A"]),
        "torsion": (torsion_components, ["alpha", "beta", "lam"]),
    }[kind]
    points = _grid_points(cfg, per_axis)
    residual = anchor_hom_residual(cfg.structure, points)
    tensorial = residual <= cfg.tolerances.anchor_hom_tol
    rows = _grid_rows(points, components(cfg.connection, cfg.structure, points), tensorial)
    flags = [
        {"x": x, "anchor_hom_residual": r}
        for x, r, ok in zip(points.tolist(), residual.tolist(), tensorial.tolist())
        if not ok
    ]
    columns = [f"x{i}" for i in range(cfg.bundle.n)] + indices + ["value", "tensorial"]
    return columns, rows, flags


def cmd_components(args) -> int:
    """``curvature`` and ``torsion``: a component table on a grid."""
    cfg = _load(args)
    kind = args.command
    if cfg.connection is None or not isinstance(cfg.connection, LinearConnection):
        raise configmod.ConfigError("$.connection", f"{kind} needs a linear connection")
    if cfg.structure is None:
        raise configmod.ConfigError("$.structure", f"{kind} needs structure functions")
    if kind == "torsion" and cfg.connection.l != cfg.bundle.k:
        raise configmod.ConfigError("$.connection", "torsion needs a connection on the anchored bundle (l == k)")
    columns, rows, flags = _component_table(cfg, args.grid, kind)
    return _emit_table(args, cfg, columns, rows, non_tensorial_points=flags)


def cmd_describe(args) -> int:
    cfg = _load(args)
    center = cfg.bundle.base.center()
    rank, kernel = cfg.bundle.rank_kernel_at(center, cfg.tolerances.rank_rel_tol)
    payload = {
        "command": "describe",
        "gallery": cfg.gallery,
        "dims": {"n": cfg.bundle.n, "k": cfg.bundle.k, "l": cfg.connection.l if cfg.connection else None},
        "box": [list(b) for b in cfg.bundle.base.bounds],
        "anchor_rank_at_center": rank,
        "anchor_kernel_dim_at_center": kernel.shape[1],
        "has_connection": cfg.connection is not None,
        "has_structure": cfg.structure is not None,
        "curves": len(cfg.curves),
    }
    if cfg.structure is not None:
        payload["anchor_hom_residual_at_center"] = anchor_hom_residual(cfg.structure, center)
        payload["anchor_hom_tol"] = cfg.tolerances.anchor_hom_tol
    payload.update(_meta(cfg))
    _emit(_json_report(payload, args), args.out)
    return 0


def _step_count(text: str) -> int:
    steps = int(text)
    if steps < 1:
        raise argparse.ArgumentTypeError(f"step count must be at least 1, got {steps}")
    return steps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geoconn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="write the report to a file instead of stdout")
        p.add_argument("--deterministic", action="store_true", help="omit the timestamp for byte-identical reruns")

    def table(p):
        common(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def grid(p):
        table(p)
        p.add_argument("--grid", type=int, default=None, help="points per axis (default 3); not with configured points")

    p = sub.add_parser("check", help="run the verification suite of the configured objects")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("transport", help="parallel transport along a configured curve")
    table(p)
    p.add_argument("--steps", type=_step_count, default=None, help="override integrator steps (at least 1)")
    p.add_argument("--curve-index", type=int, default=0)
    p.add_argument("--y0", default=None, help="comma-separated initial fiber vector")
    p.add_argument("--samples", default=None, help="write sampled lift points to this CSV path")
    p.set_defaults(fn=cmd_transport)

    p = sub.add_parser("nabla", help="derivative of a configured section pair on a grid")
    grid(p)
    p.set_defaults(fn=cmd_nabla)

    for kind in ("curvature", "torsion"):
        p = sub.add_parser(kind, help=f"{kind} component table on a grid")
        grid(p)
        p.set_defaults(fn=cmd_components)

    p = sub.add_parser("describe", help="summarise the configured objects")
    common(p)
    p.set_defaults(fn=cmd_describe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except configmod.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except AdmissibilityError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3
    except GeoconnError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
