"""The per-iteration kernels: numpy, writing into preallocated outputs.

Every function is componentwise, so the arguments may be (n,) vectors or
any stacks (..., n) of rows, with the bounds as (n,) vectors broadcast
over the rows or tiled to the rows' shape.  The engine passes (R, n)
states with tiled bounds: the same bits, and numpy runs same-shape
operands faster than broadcast ones.
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
    """Fused first-order quantities of one iteration, for x in F.

    d     = P_F(x - g) - x
    w     = sqrt(w_prev^2 + d^2)          (coordinate-wise)
    delta = |d| / w                       (w >= w_prev > 0, no 0/0 hazard)
    s_L   = P_{F cap B}(x - g) - x        (trust radii delta, centered at x)

    s_L clamps P_F(x - g) into [x - delta, x + delta]: the two intervals
    share x, so clamping into one and then the other is clamping into
    their intersection, and min and max do not round.  That needs x in F,
    and for the bits of the four clamps of ``project_box_cap_trust``
    x = P_F(x) bit for bit (a +0.0 against a lower bound of -0.0 is in F
    but gives s_L the other zero).  Every iterate is a projection onto F.
    """
    np.subtract(x, g, out=sl_out)
    project_box(sl_out, lower, upper, sl_out)  # P_F(x - g)
    np.subtract(sl_out, x, out=d_out)
    np.multiply(d_out, d_out, out=w_out)
    t = w_prev * w_prev
    np.add(t, w_out, out=w_out)
    np.sqrt(w_out, out=w_out)
    np.abs(d_out, out=delta_out)
    np.divide(delta_out, w_out, out=delta_out)
    np.subtract(x, delta_out, out=t)
    np.maximum(sl_out, t, out=sl_out)
    np.add(x, delta_out, out=t)
    np.minimum(sl_out, t, out=sl_out)
    np.subtract(sl_out, x, out=sl_out)
