"""Scalar, vector and matrix fields on box domains of R^n.

All coefficient data in the library (anchors, connection coefficients,
structure functions, sections) is consumed through the field classes here,
which provide a uniform first-derivative service with two modes:

* ``dual`` -- the callable is elementwise: built from arithmetic and the
              :mod:`dual` helpers only, so it accepts coordinates that are
              floats, arrays or dual numbers.  Batched values are one call on
              coordinate arrays; exact gradients, at one point or a batch, are
              one call on seeded duals (expression-defined fields use this);
* ``fd``   -- an opaque callable of one point, sampled point by point and
              differentiated by central differences.

Fields are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dual as dm
from .defaults import FD_STEP_SCALE


class GeoconnError(Exception):
    """Base class for library errors."""


class DomainError(GeoconnError):
    """A point lies outside the coordinate domain of a field."""


class NumericError(GeoconnError):
    """An evaluation produced a non-finite value or diverged."""


class ShapeError(GeoconnError):
    """Dimensions of the supplied objects do not match."""


@dataclass(frozen=True)
class CoordDomain:
    """Axis-aligned box of chart coordinates."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.bounds) < 1:
            raise ShapeError("domain dimension must be at least 1")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ShapeError(f"degenerate interval [{lo}, {hi}]")

    @classmethod
    def box(cls, bounds: Sequence[Sequence[float]]) -> "CoordDomain":
        return cls(tuple((float(lo), float(hi)) for lo, hi in bounds))

    @classmethod
    def cube(cls, dim: int, lo: float = -2.0, hi: float = 2.0) -> "CoordDomain":
        return cls(tuple((float(lo), float(hi)) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, point, margin: float = 0.0) -> bool:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            return False
        # Written as lo <= v <= hi so that a NaN coordinate fails.
        for v, (lo, hi) in zip(point.tolist(), self.bounds):
            if not lo - 1e-12 + margin <= v <= hi + 1e-12 - margin:
                return False
        return True

    def require(self, point, margin: float = 0.0) -> np.ndarray:
        """``point`` checked to lie in the box; a batch ``(m, dim)`` is checked row by row."""
        point = np.asarray(point, dtype=float)
        if point.ndim == 2 and point.shape[1] == self.dim:
            lo, hi = np.array(self.bounds).T
            out = ~((lo - 1e-12 + margin <= point) & (point <= hi + 1e-12 - margin)).all(axis=1)
            if out.any():
                raise DomainError(f"point {point[np.argmax(out)].tolist()} outside domain {self.bounds}")
            return point
        if point.shape != (self.dim,):
            raise ShapeError(f"expected point of dim {self.dim}, got shape {point.shape}")
        if not self.contains(point, margin):
            raise DomainError(f"point {point.tolist()} outside domain {self.bounds}")
        return point

    def center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.bounds])

    def sample(self, rng: np.random.Generator, count: int, margin_frac: float = 0.05) -> np.ndarray:
        """``count`` interior points, kept a fraction of each axis off the walls."""
        pts = np.empty((count, self.dim))
        for j, (lo, hi) in enumerate(self.bounds):
            pad = (hi - lo) * margin_frac
            pts[:, j] = rng.uniform(lo + pad, hi - pad, size=count)
        return pts

    def grid(self, per_axis: int, margin_frac: float = 0.05) -> np.ndarray:
        """Uniform interior grid with ``per_axis`` points along each axis."""
        axes = []
        for lo, hi in self.bounds:
            pad = (hi - lo) * margin_frac
            axes.append(np.linspace(lo + pad, hi - pad, per_axis))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def extend(self, extra_bounds: Sequence[Sequence[float]]) -> "CoordDomain":
        """Product domain, e.g. base box times a fiber box."""
        return CoordDomain(self.bounds + tuple((float(lo), float(hi)) for lo, hi in extra_bounds))


class ScalarField:
    """Real-valued field on a :class:`CoordDomain` with a derivative mode."""

    __slots__ = ("domain", "fn", "mode", "step")

    def __init__(self, domain: CoordDomain, fn: Callable, mode: str = "fd", step: float | None = None):
        if mode not in ("dual", "fd"):
            raise ValueError(f"unknown derivative mode {mode!r}")
        self.domain = domain
        self.fn = fn
        self.mode = mode
        self.step = step

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, domain: CoordDomain, value: float) -> "ScalarField":
        c = float(value)
        return cls(domain, lambda p: c, mode="dual")

    @classmethod
    def coordinate(cls, domain: CoordDomain, axis: int) -> "ScalarField":
        if not 0 <= axis < domain.dim:
            raise ShapeError(f"axis {axis} out of range for dim {domain.dim}")
        return cls(domain, lambda p: p[axis], mode="dual")

    # -- evaluation ----------------------------------------------------------

    def value(self, point) -> float | np.ndarray:
        """Value at one point ``(dim,)``, a float, or at a batch ``(m, dim)``, shape ``(m,)``."""
        point = self.domain.require(point)
        if point.ndim == 2:
            return self.sample(point)
        return self._at(point)

    def _at(self, point: np.ndarray) -> float:
        """Value at one point, without the domain gate; a non-finite value raises."""
        v = dm.real(self.fn(point))
        if not np.isfinite(v):
            raise NumericError(f"field evaluated to {v} at {point.tolist()}")
        return float(v)

    def gen(self, values):
        """Evaluate on a sequence of floats, arrays or duals, without domain checks.

        Dual inputs require ``mode == 'dual'``.
        """
        if self.mode != "dual" and any(isinstance(v, dm.Dual) for v in values):
            raise NumericError("field does not support dual-number evaluation")
        return self.fn(values)

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Values at a batch of points, shape ``(m, dim) -> (m,)``."""
        points = np.asarray(points, dtype=float)
        if self.mode == "dual":
            out = self.fn([points[:, j] for j in range(self.domain.dim)])
            out = np.broadcast_to(np.asarray(out, dtype=float), (points.shape[0],)).copy()
            if not np.all(np.isfinite(out)):
                raise NumericError("field evaluated to a non-finite value in batch")
            return out
        return np.array([self._at(p) for p in points], dtype=float)

    # -- differentiation -----------------------------------------------------

    def _fd_step(self, x_axis: float) -> float:
        return self.step if self.step is not None else FD_STEP_SCALE * max(1.0, abs(x_axis))

    def partial(self, point, axis: int) -> float:
        point = np.asarray(point, dtype=float)
        if not 0 <= axis < self.domain.dim:
            raise ShapeError(f"axis {axis} out of range for dim {self.domain.dim}")
        if self.mode == "dual":
            return float(self.gradient(point)[axis])
        h = self._fd_step(point[axis])
        up = point.copy()
        dn = point.copy()
        up[axis] += h
        dn[axis] -= h
        self.domain.require(up)
        self.domain.require(dn)
        d = (dm.real(self.fn(up)) - dm.real(self.fn(dn))) / (2.0 * h)
        if not np.isfinite(d):
            raise NumericError(f"derivative evaluated to {d} at {point.tolist()}")
        return float(d)

    def gradient(self, points) -> np.ndarray:
        """Gradient at one point ``(dim,)`` or a batch ``(m, dim)``; in dual mode one seeded evaluation."""
        points = self.domain.require(points)
        if self.mode == "fd":
            if points.ndim == 2:
                return np.array([self.gradient(p) for p in points]).reshape(points.shape)
            return np.array([self.partial(points, j) for j in range(self.domain.dim)])
        out = self.fn(dm.seed(points))
        if not isinstance(out, dm.Dual):
            return np.zeros(points.shape)
        return np.broadcast_to(out.eps, points.shape[::-1]).T.copy()

    def check_derivatives(self, rng: np.random.Generator, samples: int = 100, tol: float | None = None) -> float:
        """Max deviation between the field's dual derivatives and central differences.

        Only meaningful for ``dual`` mode; raises if the deviation exceeds
        ``tol``.
        """
        from .defaults import FD_MATCH_TOL

        tol = FD_MATCH_TOL if tol is None else tol
        pts = self.domain.sample(rng, samples)
        grads = self.gradient(pts)
        worst = 0.0
        for axis in range(self.domain.dim):
            h = FD_STEP_SCALE * np.maximum(1.0, np.abs(pts[:, axis])) * 100.0
            up, dn = pts.copy(), pts.copy()
            up[:, axis] += h
            dn[:, axis] -= h
            inside = np.array([self.domain.contains(a) and self.domain.contains(b) for a, b in zip(up, dn)], dtype=bool)
            fd = (self.sample(up[inside]) - self.sample(dn[inside])) / (2.0 * h[inside])
            worst = max(worst, float(np.max(np.abs(grads[inside, axis] - fd), initial=0.0)))
        if worst > tol:
            raise NumericError(f"declared derivatives deviate from differences by {worst}")
        return worst


def _common_domain(fields) -> CoordDomain:
    domains = {id(f.domain): f.domain for f in fields}
    vals = list(domains.values())
    for d in vals[1:]:
        if d.bounds != vals[0].bounds:
            raise ShapeError("fields do not share a common domain")
    return vals[0]


class VectorField:
    """Tuple of scalar fields sharing one domain, viewed as a map to R^m."""

    __slots__ = ("domain", "components")

    def __init__(self, components: Sequence[ScalarField]):
        components = tuple(components)
        if not components:
            raise ShapeError("vector field needs at least one component")
        self.domain = _common_domain(components)
        self.components = components

    def __len__(self) -> int:
        return len(self.components)

    @classmethod
    def constant(cls, domain: CoordDomain, values) -> "VectorField":
        return cls([ScalarField.constant(domain, v) for v in np.asarray(values, dtype=float)])

    def value(self, point) -> np.ndarray:
        """Components at one point ``(dim,)`` or a batch ``(m, dim)``, shape ``(..., len)``."""
        return np.stack([c.value(point) for c in self.components], axis=-1)

    def gen(self, values) -> list:
        return [c.gen(values) for c in self.components]

    def jacobian(self, point) -> np.ndarray:
        """Partials at one point or a batch, indexed ``[..., component, axis]``."""
        return np.stack([c.gradient(point) for c in self.components], axis=-2)

    @property
    def supports_dual(self) -> bool:
        return all(c.mode == "dual" for c in self.components)


class MatrixField:
    """Grid of scalar fields over one shared domain."""

    __slots__ = ("domain", "rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[ScalarField]]):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ShapeError("matrix field needs at least one entry")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ShapeError("ragged matrix field")
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries
        self.domain = _common_domain([f for row in entries for f in row])

    @classmethod
    def constant(cls, domain: CoordDomain, mat) -> "MatrixField":
        mat = np.asarray(mat, dtype=float)
        return cls([[ScalarField.constant(domain, mat[i, j]) for j in range(mat.shape[1])] for i in range(mat.shape[0])])

    @classmethod
    def identity(cls, domain: CoordDomain, n: int) -> "MatrixField":
        return cls.constant(domain, np.eye(n))

    def value(self, point) -> np.ndarray:
        """Entries at one point ``(dim,)`` or a batch ``(m, dim)``, shape ``(..., rows, cols)``."""
        point = self.domain.require(point)
        if point.ndim == 2:
            return self.sample(point)
        return np.array([[f.value(point) for f in row] for row in self.entries])

    def gen(self, values) -> list:
        return [[f.gen(values) for f in row] for row in self.entries]

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Values at a batch of points, shape ``(m, dim) -> (m, rows, cols)``.

        Without dual entries, every entry is evaluated at a point before the
        next point, so a per-point cache shared by the entries is hit.
        """
        points = np.asarray(points, dtype=float)
        flat = [f for row in self.entries for f in row]
        if self.supports_dual:
            out = np.stack([f.sample(points) for f in flat], axis=-1)
        else:
            out = np.array([[f._at(p) for f in flat] for p in points], dtype=float)
        return out.reshape(len(points), self.rows, self.cols)

    def jacobian(self, point) -> np.ndarray:
        """Partials along every axis at one point or a batch, shape ``(..., dim, rows, cols)``.

        Dual entries take one pass each; otherwise a batch goes point by point,
        as in :meth:`sample`.
        """
        point = np.asarray(point, dtype=float)
        if point.ndim == 2 and not self.supports_dual:
            out = np.array([self.jacobian(p) for p in point], dtype=float)
            return out.reshape((len(point), self.domain.dim, self.rows, self.cols))
        return np.moveaxis(np.array([[f.gradient(point) for f in row] for row in self.entries]), (0, 1), (-2, -1))

    def column(self, j: int) -> VectorField:
        return VectorField([row[j] for row in self.entries])

    @property
    def supports_dual(self) -> bool:
        return all(f.mode == "dual" for row in self.entries for f in row)


def matvec(mat, vec) -> np.ndarray:
    """``mat @ vec`` over any leading batch axes, rounded as the one-point product."""
    return (mat @ vec[..., None])[..., 0]


def scale_section(f: ScalarField, vec: VectorField) -> VectorField:
    """Pointwise product of a scalar field with a vector field."""
    if f.domain.bounds != vec.domain.bounds:
        raise ShapeError("fields live on different domains")
    mode = "dual" if f.mode == "dual" and vec.supports_dual else "fd"
    comps = [
        ScalarField(vec.domain, (lambda p, _c=c: f.gen(p) * _c.gen(p)), mode=mode)
        for c in vec.components
    ]
    return VectorField(comps)


def add_sections(a: VectorField, b: VectorField) -> VectorField:
    """Componentwise sum of two vector fields."""
    if len(a) != len(b) or a.domain.bounds != b.domain.bounds:
        raise ShapeError("vector fields are not compatible")
    mode = "dual" if a.supports_dual and b.supports_dual else "fd"
    comps = [
        ScalarField(a.domain, (lambda p, _u=u, _v=v: _u.gen(p) + _v.gen(p)), mode=mode)
        for u, v in zip(a.components, b.components)
    ]
    return VectorField(comps)


def lie_bracket(x_field: VectorField, y_field: VectorField, point) -> np.ndarray:
    """Bracket of two vector fields on a common domain.

    Component form ``X^j d_j Y^i - Y^j d_j X^i`` evaluated at one point or a
    batch.
    """
    if len(x_field) != x_field.domain.dim or len(y_field) != y_field.domain.dim:
        raise ShapeError("lie_bracket needs square vector fields on their domain")
    if x_field.domain.bounds != y_field.domain.bounds:
        raise ShapeError("vector fields live on different domains")
    xv = x_field.value(point)
    yv = y_field.value(point)
    jx = x_field.jacobian(point)
    jy = y_field.jacobian(point)
    return matvec(jy, xv) - matvec(jx, yv)
