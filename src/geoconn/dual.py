"""First-order dual numbers for vector forward-mode differentiation.

A :class:`Dual` carries a real part and its derivative seeds, so one
evaluation of an expression yields the value together with its full gradient.
The real part is a float for one point or an array of shape ``S`` for a batch,
with seeds of shape ``(n,) + S``; one evaluation on :func:`seed` of a batch
gives every gradient of the batch.  :func:`sin`, :func:`cos`, :func:`exp`
work on plain floats, numpy arrays and duals alike.
"""

from __future__ import annotations

import numpy as np


class Dual:
    """Number ``re + eps``: ``re`` a float or an array of shape ``S``, ``eps`` of shape ``(n,) + S``."""

    __slots__ = ("re", "eps")
    # numpy operands defer to the dual operators instead of building object arrays.
    __array_ufunc__ = None

    def __init__(self, re, eps):
        # Python floats keep single-point arithmetic off numpy scalars.
        self.re = re if type(re) is np.ndarray else float(re)
        self.eps = np.asarray(eps, dtype=float)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.eps + other.eps)
        return Dual(self.re + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.eps - other.eps)
        return Dual(self.re - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.eps + other.re * self.eps)
        return Dual(self.re * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if np.any(other.re == 0.0):
                raise ZeroDivisionError("dual division by zero real part")
            re = self.re / other.re
            return Dual(re, (self.eps - re * other.eps) / other.re)
        return Dual(self.re / other, self.eps / other)

    def __rtruediv__(self, other):
        if np.any(self.re == 0.0):
            raise ZeroDivisionError("dual division by zero real part")
        re = other / self.re
        return Dual(re, -re * self.eps / self.re)

    def __neg__(self):
        return Dual(-self.re, -self.eps)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("dual exponent must be an integer")
        n = int(n)
        if n == 0:
            return Dual(self.re**0, np.zeros_like(self.eps))
        if n < 0 and np.any(self.re == 0.0):
            raise ZeroDivisionError("zero base with negative exponent")
        return Dual(self.re**n, n * self.re ** (n - 1) * self.eps)

    # -- comparisons act on the real part -----------------------------------

    def __lt__(self, other):
        return self.re < _real(other)

    def __le__(self, other):
        return self.re <= _real(other)

    def __gt__(self, other):
        return self.re > _real(other)

    def __ge__(self, other):
        return self.re >= _real(other)

    def __repr__(self):
        return f"Dual({self.re!r}, {self.eps!r})"


def _real(v):
    return v.re if isinstance(v, Dual) else v


def real(v):
    """Real part of a float, array or dual."""
    return _real(v)


def seed(points) -> list[Dual]:
    """Coordinate duals of one point ``(n,)`` (float real parts) or a batch ``(m, n)``, seeded with the identity."""
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    eye = np.eye(n)
    if points.ndim == 1:
        return [Dual(float(points[i]), eye[i]) for i in range(n)]
    return [Dual(points[:, i], np.broadcast_to(eye[i][:, None], (n, len(points)))) for i in range(n)]


def sin(v):
    if isinstance(v, Dual):
        return Dual(np.sin(v.re), np.cos(v.re) * v.eps)
    return np.sin(v)


def cos(v):
    if isinstance(v, Dual):
        return Dual(np.cos(v.re), -np.sin(v.re) * v.eps)
    return np.cos(v)


def exp(v):
    if isinstance(v, Dual):
        e = np.exp(v.re)
        return Dual(e, e * v.eps)
    return np.exp(v)
