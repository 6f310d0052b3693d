"""Hot numeric kernel: fixed-step RK4 for the linear lift system.

The coefficient matrices are pre-sampled on a half-step grid, so the stepper
is pure numpy array arithmetic.  The system is linear, so integrating the
identity matrix once yields the transport matrix at every node, and the lift
through any initial fiber vector follows by one matrix product.
"""

import numpy as np


def rk4_linear(amats, h, y0):
    """Integrate ``y' = A(t) y`` with classical RK4.

    ``amats`` holds A at ``t0, t0+h/2, t0+h, ...`` (shape ``(2*steps+1, l, l)``).
    ``y0`` is a fiber vector of shape ``(l,)`` or a stack of columns of shape
    ``(l, c)``; the return value stacks y at the full-step nodes, with shape
    ``(steps+1,) + y0.shape``.
    """
    steps = (amats.shape[0] - 1) // 2
    out = np.empty((steps + 1,) + y0.shape)
    y = y0.copy()
    out[0] = y
    for i in range(steps):
        a0 = amats[2 * i]
        am = amats[2 * i + 1]
        a1 = amats[2 * i + 2]
        k1 = a0 @ y
        k2 = am @ (y + 0.5 * h * k1)
        k3 = am @ (y + 0.5 * h * k2)
        k4 = a1 @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out
