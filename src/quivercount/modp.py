"""Dense exact linear algebra over prime fields F_p.

Matrices are lists of lists of ints; everything is reduced mod p as it
goes, so results are exact for any p that fits in a Python int.
"""


def rref(matrix, p):
    """Row-reduce a copy of matrix mod p; returns (rows, pivot_columns)."""
    rows = [[x % p for x in row] for row in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p) if p > 2 else rows[r][c]
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix, p):
    return len(rref(matrix, p)[1])


def nullspace_basis(matrix, p):
    """Basis vectors (lists) of the right nullspace of matrix mod p."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rows[r][fc]) % p
        basis.append(vec)
    return basis


def solve(matrix, rhs, p):
    """One solution of matrix * x = rhs mod p, or None if inconsistent."""
    if not matrix:
        return [] if not any(v % p for v in rhs) else None
    ncols = len(matrix[0])
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(aug, p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x


def is_invertible(matrix, p):
    n = len(matrix)
    return n == 0 or (len(matrix[0]) == n and rank(matrix, p) == n)
