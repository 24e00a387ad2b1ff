"""Exact integer linear algebra: gcd solves, kernels, lattice bases,
determinants.

Small dense systems only (b <= ~8 columns), so fraction-free elimination
over Python Fractions is plenty fast and avoids pulling in a CAS.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple


def vector_gcd(w: Sequence[int]) -> int:
    g = 0
    for x in w:
        g = gcd(g, abs(int(x)))
    return g


def solve_dot(w: Sequence[int], t: int) -> Optional[Tuple[int, ...]]:
    """One integer solution n of n . w = t, or None if none exists."""
    w = [int(x) for x in w]
    t = int(t)
    g = vector_gcd(w)
    if g == 0:
        return tuple(0 for _ in w) if t == 0 else None
    if t % g != 0:
        return None
    # Fold the entries with iterated extended gcd, then back-substitute.
    coeffs: List[int] = []
    acc = 0
    partials: List[Tuple[int, int, int]] = []  # (g_new, x, y): g_new = x*acc + y*w_i
    for wi in w:
        gn, x, y = _egcd(acc, wi)
        partials.append((gn, x, y))
        acc = gn
    scale = t // acc
    # acc = x_last * acc_prev + y_last * w_last, unwind.
    n = [0] * len(w)
    carry = scale
    for i in range(len(w) - 1, -1, -1):
        gn, x, y = partials[i]
        n[i] = carry * y
        carry = carry * x
    return tuple(n)


def _egcd(a: int, b: int) -> Tuple[int, int, int]:
    """g, x, y with g = x*a + y*b, g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def kernel_basis(rows: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Basis of the integer kernel {n : M n = 0} as primitive integer vectors.

    Computed as the rational nullspace, then cleared of denominators.  The
    lattice spanned may be a finite-index sublattice of the full integer
    kernel, which is all the admissibility checks need: kernel == {0} is
    decided exactly, and any returned vector is a genuine kernel element.
    """
    if not rows:
        return []
    m = [[Fraction(int(x)) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(_clear_denominators(v))
    return basis


def lattice_basis(vectors: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """A Z-basis of the lattice the integer vectors span, in echelon form.

    Integer row reduction: Euclid's algorithm runs down each column,
    subtracting integer multiples of the row with the smallest nonzero entry
    from the others (a unimodular step, which keeps the spanned lattice),
    until one row holds the column's gcd; that row is the next basis vector.  The basis has rank-many rows, each with its
    pivot (first nonzero entry) positive and right of the previous pivot.
    """
    rows = [[int(x) for x in v] for v in vectors if any(v)]
    basis: List[Tuple[int, ...]] = []
    for c in range(len(rows[0]) if rows else 0):
        live = [r for r in rows if r[c] != 0]
        while len(live) > 1:
            piv = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not piv:
                    q = r[c] // piv[c]
                    r[:] = [x - q * y for x, y in zip(r, piv)]
            live = [r for r in live if r[c] != 0]
        if live:
            piv = live[0]
            rows = [r for r in rows if r is not piv and any(r)]
            basis.append(tuple(piv) if piv[c] > 0 else tuple(-x for x in piv))
    return basis


def _clear_denominators(v: List[Fraction]) -> Tuple[int, ...]:
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = vector_gcd(ints)
    if g > 1:
        ints = [x // g for x in ints]
    # Canonical sign: last nonzero entry positive.
    for x in reversed(ints):
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    a = [[int(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for jj in range(k + 1, n):
                a[i][jj] = (a[i][jj] * a[k][k] - a[i][k] * a[k][jj]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
