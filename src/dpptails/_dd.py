"""Double-double arithmetic (Dekker 1971, Knuth): a value is the unevaluated
sum hi + lo of two doubles.  `_two_sum` and `_two_prod` are exact under
IEEE-754 doubles, and the operations built on them keep about 106 bits.

The primitives take floats or arrays alike: `bessel_j` runs them on floats,
the Bessel kernel series and the Airy series outside its step on arrays.  The
`*_to` forms do the same operations in the same order, so they give the
same bits, but write into the caller's arrays; the Airy series step of
`specfun` uses them to keep its row blocks in place.
"""

import numpy as np

# ---------------------------------------------------------------------------
# primitives: floats or arrays
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _split(a):
    """Dekker's split a = hi + lo, each half at most 26 bits wide."""
    hi = _SPLITTER * a
    hi = hi - (hi - a)
    return hi, a - hi


def _two_prod(a, b, b_split=None):
    """(p, e) with p + e = a b exactly; `b_split` is `_split(b)` when the
    caller keeps it for a b that many products share."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b) if b_split is None else b_split
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    e += xl + yl
    return _quick_sum(s, e)


def _dd_mul(xh, xl, yh, yl, yh_split=None):
    p, e = _two_prod(xh, yh, yh_split)
    e += xh * yl + xl * yh
    return _quick_sum(p, e)


def _dd_mul_d(xh, xl, d):
    p, e = _two_prod(xh, d)
    e += xl * d
    return _quick_sum(p, e)


def _dd_div_d(xh, xl, d):
    q1 = xh / d
    p, e = _two_prod(q1, d)
    q2 = (((xh - p) - e) + xl) / d
    return _quick_sum(q1, q2)


# ---------------------------------------------------------------------------
# in-place array forms of the double-double primitives, for the series
# steps: the operations of _dd_mul, _dd_mul_d, _dd_div_d and _dd_add in
# their order, so the same bits, written into the caller's arrays.  w is a
# block of at least five scratch arrays shaped like h.
# ---------------------------------------------------------------------------

def _quick_sum_to(a, b, h, l, tmp):
    np.add(a, b, out=h)
    np.subtract(h, a, out=tmp)
    np.subtract(b, tmp, out=l)


def _two_prod_to(x, y, y_split, p, e, a, b):
    """(p, e) <- _two_prod(x, y, y_split); a and b are scratch."""
    yh, yl = y_split
    np.multiply(x, y, out=p)
    np.multiply(x, _SPLITTER, out=a)
    np.subtract(a, x, out=b)
    np.subtract(a, b, out=a)
    np.subtract(x, a, out=b)
    # e = ((ah yh - p) + ah yl + al yh) + al yl, with ah in a and al in b
    np.multiply(a, yh, out=e)
    e -= p
    a *= yl
    e += a
    np.multiply(b, yh, out=a)
    e += a
    b *= yl
    e += b


def _dd_mul_to(h, l, yh, yl, y_split, w):
    """(h, l) <- _dd_mul(h, l, yh, yl, y_split), or <- _dd_mul_d(h, l, yh)
    when yl is None."""
    p, e, a, b = w[0], w[1], w[2], w[3]
    _two_prod_to(h, yh, y_split, p, e, a, b)
    if yl is None:
        np.multiply(l, yh, out=a)
    else:
        np.multiply(h, yl, out=a)
        np.multiply(l, yh, out=b)
        a += b
    e += a
    _quick_sum_to(p, e, h, l, a)


def _dd_div_d_to(h, l, d, d_split, w):
    """(h, l) <- _dd_div_d(h, l, d); d_split is `_split(d)`."""
    q1, p, e, a, b = w[0], w[1], w[2], w[3], w[4]
    np.divide(h, d, out=q1)
    _two_prod_to(q1, d, d_split, p, e, a, b)
    # q2 = (((h - p) - e) + l) / d
    np.subtract(h, p, out=a)
    a -= e
    a += l
    a /= d
    _quick_sum_to(q1, a, h, l, b)


def _dd_add_to(h, l, yh, yl, w):
    """(h, l) <- _dd_add(h, l, yh, yl)."""
    s, bb, e = w[0], w[1], w[2]
    np.add(h, yh, out=s)
    np.subtract(s, h, out=bb)
    np.subtract(s, bb, out=e)
    np.subtract(h, e, out=e)
    np.subtract(yh, bb, out=bb)
    e += bb
    np.add(l, yl, out=bb)
    e += bb
    _quick_sum_to(s, e, h, l, bb)
