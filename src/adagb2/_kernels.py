"""The fused first-order kernel of one iteration, in numpy.

It is componentwise, so the arguments may be (n,) vectors or any stacks
(..., n) of rows, with the bounds as (n,) vectors broadcast over the rows
or tiled to the rows' shape.  The engine passes (R, n) states with tiled
bounds: the same bits, and numpy runs same-shape operands faster than
broadcast ones.

The box projections live in ``geometry``.  This function stays a module of
its own only because the benchmark's tracer (``perfbench/tracing.py``)
patches it by the name ``adagb2._kernels.first_order``, and
``tests/test_tracing.py`` pins that name; folding it into ``geometry``
waits for a change to the benchmark that moves the name.
"""

import numpy as np


def first_order(x, g, lower, upper, w_prev, d_out, w_out, delta_out, sl_out):
    """Fused first-order quantities of one iteration, for x in F.

    d     = P_F(x - g) - x                (P_F(y) = max(l, min(y, u)))
    w     = sqrt(w_prev^2 + d^2)          (coordinate-wise)
    delta = |d| / w                       (w >= w_prev > 0, no 0/0 hazard)
    s_L   = P_{F cap B}(x - g) - x        (trust radii delta, centered at x)

    s_L clamps P_F(x - g) into [x - delta, x + delta]: the two intervals
    share x, so clamping into one and then the other is clamping into
    their intersection, and min and max do not round.  That needs x in F,
    and for the bits of the four clamps of ``geometry.project_box_cap_trust``
    x = P_F(x) bit for bit (a +0.0 against a lower bound of -0.0 is in F
    but gives s_L the other zero).  Every iterate is a projection onto F.
    """
    # Bound once; a positional ``out`` is cheaper than the keyword, but
    # numpy deprecates it for np.minimum and np.maximum.
    subtract, multiply, add = np.subtract, np.multiply, np.add
    minimum, maximum = np.minimum, np.maximum
    subtract(x, g, sl_out)
    minimum(sl_out, upper, out=sl_out)  # P_F(x - g)
    maximum(sl_out, lower, out=sl_out)
    subtract(sl_out, x, d_out)
    multiply(d_out, d_out, w_out)
    t = multiply(w_prev, w_prev)
    add(t, w_out, w_out)
    np.sqrt(w_out, w_out)
    np.abs(d_out, delta_out)
    np.divide(delta_out, w_out, delta_out)
    subtract(x, delta_out, t)
    maximum(sl_out, t, out=sl_out)
    add(x, delta_out, t)
    minimum(sl_out, t, out=sl_out)
    subtract(sl_out, x, sl_out)
