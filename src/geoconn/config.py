"""Run configuration: JSON documents describing a computation setup.

A config names an anchor (gallery case or expression matrix), optional
connection and structure coefficient tables, curves, sections and evaluation
points.  Errors carry the document path at which they were detected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from . import expr as ex
from .bundle import AdmissibleCurve, AnchorBundle
from .connection import GeneralConnection, LinearConnection
from .defaults import DEFAULT_SEED, Tolerances
from .fields import CoordDomain, GeoconnError, VectorField
from .gallery import GalleryCase, by_name, gallery_names
from .prelie import PreLieStructure

SCHEMA_VERSION = 1


class ConfigError(GeoconnError):
    """Invalid configuration document, positioned by a JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class RunConfig:
    bundle: AnchorBundle
    connection: LinearConnection | GeneralConnection | None
    structure: PreLieStructure | None
    curves: list[AdmissibleCurve]
    sections: dict[str, VectorField]
    points: list[np.ndarray]
    seed: int
    steps: int | None
    tolerances: Tolerances
    gallery: str | None


def _expect(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise ConfigError(f"{path}.{key}", "missing required key")
    return doc[key]


def _tolerance(value, path: str) -> float:
    """A gate: a finite, non-negative JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
        raise ConfigError(path, f"expected a finite non-negative number, got {value!r}")
    return float(value)


def _step_count(value, path: str) -> int:
    """An integrator step count: a JSON integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(path, f"expected an integer step count of at least 1, got {value!r}")
    return value


def _build_curve(spec: dict, path: str, n: int, k: int, residual_tol: float) -> AdmissibleCurve:
    if not isinstance(spec, dict):
        raise ConfigError(path, "curve spec must be an object")
    x_exprs = _expect(spec, "x", path)
    u_exprs = _expect(spec, "u", path)
    for key, exprs, size in (("x", x_exprs, n), ("u", u_exprs, k)):
        if not isinstance(exprs, list) or len(exprs) != size:
            raise ConfigError(f"{path}.{key}", f"expected a list of {size} expressions, got {exprs!r}")
    t0 = float(spec.get("t0", 0.0))
    t1 = float(spec.get("t1", 1.0))
    if not t0 < t1:
        raise ConfigError(path, f"empty parameter range [{t0}, {t1}]")
    try:
        curve = AdmissibleCurve.from_exprs(x_exprs, u_exprs, (t0, t1), residual_tol=residual_tol)
    except ex.ParseError as err:
        raise ConfigError(path, str(err)) from err
    if "steps" in spec:
        curve.steps = _step_count(spec["steps"], f"{path}.steps")  # consumed by the CLI
    return curve


def build(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("$", "config root must be an object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError("$.schema_version", f"unsupported version {version}")

    anchor = _expect(doc, "anchor", "$")
    gallery_case: GalleryCase | None = None
    gallery_name: str | None = None
    try:
        if isinstance(anchor, str):
            if anchor not in gallery_names():
                raise ConfigError("$.anchor", f"unknown gallery name {anchor!r}; know {gallery_names()}")
            gallery_name = anchor
            kwargs = {}
            dims = doc.get("dims", {})
            if "l" in dims:
                kwargs["l"] = int(dims["l"])
            gallery_case = by_name(anchor, **kwargs)
            bundle = gallery_case.bundle
        else:
            dims = _expect(doc, "dims", "$")
            box = _expect(doc, "box", "$")
            domain = CoordDomain.box(box)
            if domain.dim != int(dims["n"]):
                raise ConfigError("$.box", f"box has {domain.dim} axes, dims.n = {dims['n']}")
            bundle = AnchorBundle.from_exprs(domain, anchor)
            if bundle.k != int(dims["k"]):
                raise ConfigError("$.anchor", f"anchor has {bundle.k} columns, dims.k = {dims['k']}")
    except ex.ParseError as err:
        raise ConfigError("$.anchor", str(err)) from err
    except GeoconnError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError("$.anchor", str(err)) from err

    connection = gallery_case.connection if gallery_case else None
    if "connection" in doc and doc["connection"] is not None:
        spec = doc["connection"]
        try:
            if isinstance(spec, dict) and "general" in spec:
                connection = GeneralConnection.from_exprs(bundle, spec["general"])
            else:
                connection = LinearConnection.from_exprs(bundle, spec)
        except (ex.ParseError, GeoconnError) as err:
            raise ConfigError("$.connection", str(err)) from err

    structure = gallery_case.structure if gallery_case else None
    if "structure" in doc and doc["structure"] is not None:
        try:
            structure = PreLieStructure.from_exprs(bundle, doc["structure"])
        except (ex.ParseError, GeoconnError) as err:
            raise ConfigError("$.structure", str(err)) from err

    known = sorted(f.name for f in fields(Tolerances))
    overrides = doc.get("tolerances", {})
    for name in overrides:
        if name not in known:
            raise ConfigError(f"$.tolerances.{name}", f"unknown tolerance; know {known}")
    tolerances = Tolerances(**{name: _tolerance(value, f"$.tolerances.{name}") for name, value in overrides.items()})

    curves = [
        _build_curve(spec, f"$.curves[{idx}]", bundle.n, bundle.k, tolerances.admissibility_tol)
        for idx, spec in enumerate(doc.get("curves", []))
    ]

    sections: dict[str, VectorField] = {}
    for name, spec in doc.get("sections", {}).items():
        path = f"$.sections.{name}"
        if not isinstance(spec, list):
            raise ConfigError(path, f"a section is a list of expressions, got {spec!r}")
        try:
            sections[name] = ex.to_vector_field(spec, bundle.base)
        except (ex.ParseError, GeoconnError) as err:
            raise ConfigError(path, str(err)) from err

    points = []
    for idx, p in enumerate(doc.get("points", [])):
        p = np.asarray(p, dtype=float)
        if not bundle.base.contains(p):
            raise ConfigError(f"$.points[{idx}]", f"point {p.tolist()} outside the box")
        points.append(p)

    return RunConfig(
        bundle=bundle,
        connection=connection,
        structure=structure,
        curves=curves,
        sections=sections,
        points=points,
        seed=int(doc.get("seed", DEFAULT_SEED)),
        steps=_step_count(doc["steps"], "$.steps") if "steps" in doc else None,
        tolerances=tolerances,
        gallery=gallery_name,
    )


def load(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("$", f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError("$", f"invalid JSON: {err}") from None
    return build(doc)
