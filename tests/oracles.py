"""Exact oracles for the tests: finite sums over the very floats the
package computes with, evaluated without rounding, so that a bound on the
distance to them measures the rounding of the code under test and nothing
else, and no frozen copy of earlier code is needed.

Every finite float is a dyadic rational p / 2**k, so a product of floats is
one too, and a sum of such products is exact in integers brought to one
power of 2; the results are fractions.Fraction values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).smallest_subnormal)


def _dyadic(a) -> list[tuple[int, int]]:
    """The floats of a, flattened, each as (p, k) with the float = p / 2**k."""
    out = []
    for x in np.asarray(a, dtype=float).ravel().tolist():
        p, q = x.as_integer_ratio()
        out.append((p, q.bit_length() - 1))
    return out


def _exact_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The exact sum of the dyadic terms (p, k), each p / 2**k, as one (p, k)."""
    top = max((k for _, k in terms), default=0)
    return sum(p << (top - k) for p, k in terms), top


def reproducing_sum(w, f_blocks, e, widths, lam) -> tuple[Fraction, Fraction]:
    """sum_{n < B} lam^n <W[n] f_n, e> exactly, as (real part, imaginary part):
    row n of the (B, m) tables w and f_blocks holds the weight and f on the
    m cells of block n, e and widths hold e and the cell widths on E's
    cells, and <a, b> = sum_i a_i conj(b_i) widths_i. Both sides of the
    reproducing identity are this sum, the left one as <(Uf)(lam), e>, the
    right one as <f, U^{-1} k(., lam) e>."""
    w, f_blocks = np.asarray(w, dtype=float), np.asarray(f_blocks, dtype=complex)
    blocks, m = f_blocks.shape
    ws, fr, fi = _dyadic(w), _dyadic(f_blocks.real), _dyadic(f_blocks.imag)
    er, ei, hs = _dyadic(np.real(e)), _dyadic(np.imag(e)), _dyadic(widths)
    sums = []
    for n in range(blocks):
        re, im = [], []
        for i in range(m):
            (wp, wk), (hp, hk) = ws[n * m + i], hs[i]
            (ap, ak), (bp, bk) = fr[n * m + i], fi[n * m + i]
            (cp, ck), (dp, dk) = er[i], ei[i]
            s, k = wp * hp, wk + hk
            # (a + b i) conj(c + d i) = (a c + b d) + (b c - a d) i
            re += [(s * ap * cp, k + ak + ck), (s * bp * dp, k + bk + dk)]
            im += [(s * bp * cp, k + bk + ck), (-s * ap * dp, k + ak + dk)]
        sums.append((_exact_sum(re), _exact_sum(im)))
    (lr, lk), (li, ik) = _dyadic([complex(lam).real, complex(lam).imag])
    re = im = (0, 0)
    for sr, si in reversed(sums):  # Horner's rule in lam: (re + im i) lam + S_n
        re, im = (
            _exact_sum([(re[0] * lr, re[1] + lk), (-im[0] * li, im[1] + ik), sr]),
            _exact_sum([(re[0] * li, re[1] + ik), (im[0] * lr, im[1] + lk), si]),
        )
    return Fraction(re[0], 1 << re[1]), Fraction(im[0], 1 << im[1])


def reproducing_bound(w, f_blocks, e, widths, lam) -> float:
    """A bound on the rounding error of either side of reproducing_check
    against reproducing_sum, for f on B blocks of m cells: each of the
    K = B + m + 2 ceil(log2 B) + 6 complex operations on a term's path (its
    product with the weight, lam^n by squaring, the product with the
    pairing's conjugate, the cell width, and the sums over n in order and
    over the cells; numpy's pairwise sum of all B m cells takes fewer)
    moves it by at most 3 eps of the magnitudes it is built from, so the
    error is at most 3 eps K times
    A = sum_n |lam|^n sum_i W[n, i] |f_n,i| |e_i| h_i, doubled to cover the
    rounding of A itself, plus one smallest subnormal per operation on
    each term for products that underflow."""
    f_blocks = np.asarray(f_blocks, dtype=complex)
    blocks, m = f_blocks.shape
    ops = blocks + m + 2 * math.ceil(math.log2(max(blocks, 2))) + 6
    with np.errstate(over="ignore"):
        cells = (np.asarray(w, dtype=float) * np.abs(f_blocks)) @ (np.abs(e) * widths)
        magnitude = float(np.sum(np.abs(complex(lam)) ** np.arange(blocks) * cells))
    return 2 * 3 * EPS * ops * magnitude + ops * blocks * m * TINY
