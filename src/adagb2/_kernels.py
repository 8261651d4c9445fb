"""The per-iteration kernels: numpy, writing into preallocated outputs.

Every function is componentwise, so the arguments may be (n,) vectors or
any stacks (..., n) of rows, with the bounds as (n,) vectors broadcast
over the rows (the engine passes (R, n) states).
"""

import numpy as np

# The only backend; kept as ``adagb2.KERNEL_BACKEND`` for result metadata.
BACKEND = "pure"


def project_box(y, lower, upper, out):
    """out_i = max(l_i, min(y_i, u_i)). Well defined for infinite bounds."""
    np.minimum(y, upper, out=out)
    np.maximum(out, lower, out=out)


def project_box_cap_trust(y, lower, upper, center, radii, out):
    """out_i = max(l_i, c_i - r_i, min(y_i, c_i + r_i, u_i))."""
    np.minimum(y, center + radii, out=out)
    np.minimum(out, upper, out=out)
    np.maximum(out, center - radii, out=out)
    np.maximum(out, lower, out=out)


def first_order(x, g, lower, upper, w_prev, d_out, w_out, delta_out, sl_out):
    """Fused first-order quantities of one iteration.

    d     = P_F(x - g) - x
    w     = sqrt(w_prev^2 + d^2)          (coordinate-wise)
    delta = |d| / w                       (w >= w_prev > 0, no 0/0 hazard)
    s_L   = P_{F cap B}(x - g) - x        (trust radii delta, centered at x)
    """
    y = x - g
    project_box(y, lower, upper, d_out)
    np.subtract(d_out, x, out=d_out)
    np.sqrt(w_prev * w_prev + d_out * d_out, out=w_out)
    np.divide(np.abs(d_out), w_out, out=delta_out)
    project_box_cap_trust(y, lower, upper, x, delta_out, sl_out)
    np.subtract(sl_out, x, out=sl_out)
