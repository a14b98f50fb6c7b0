"""Sparse kernel and rank computation mod p, in pure Python.

Every phase touches only nonzero entries: the forward elimination reduces
each row against the pivot rows its entries meet, back-substitution clears
each pivot row at the later pivot columns it holds, and `rank` stops after
the forward pass.
"""

# The one kernel implementation; perfbench records it beside its timings.
BACKEND = "pure"


def _echelon(rows, p):
    """Forward elimination: {pivot column: pivot row}.

    rows: iterable of {column: value} dicts (values arbitrary ints).  Each
    pivot row is a {column: residue} dict with a 1 at its pivot column, its
    smallest column.
    """
    pivots = {}
    for row in rows:
        r = {}
        for c, v in row.items():
            v %= p
            if v:
                r[c] = v
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {k: (v * inv) % p for k, v in r.items()}
                break
            coef = r.pop(c)
            for k, v in piv.items():
                if k == c:
                    continue
                nv = (r.get(k, 0) - coef * v) % p
                if nv:
                    r[k] = nv
                elif k in r:
                    del r[k]
    return pivots


def rank(rows, p):
    """Rank mod p of a sparse integer matrix given as {column: value} rows."""
    return len(_echelon(rows, p))


def kernel_basis(rows, ncols, p):
    """Kernel of a sparse integer matrix mod p.

    rows: iterable of {column: value} dicts (values arbitrary ints).
    Returns (basis, rank) where basis is a list of length-ncols lists with
    entries in 0..p-1, one vector per free column in ascending column order:
    the vector for free column j has a 1 at j and minus the reduced-echelon
    pivot-row entries at the pivot columns.
    """
    pivots = _echelon(rows, p)
    # back-substitution, last pivot first: the later pivot rows are already
    # reduced, so subtracting one adds only free columns, and one pass over
    # this row's own later pivot columns leaves it reduced too
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in [k for k in row if k > c and k in pivots]:
            coef = row.pop(c2)
            for k, v in pivots[c2].items():
                if k == c2:
                    continue
                nv = (row.get(k, 0) - coef * v) % p
                if nv:
                    row[k] = nv
                elif k in row:
                    del row[k]
    # a reduced pivot row holds, besides its pivot, only free columns
    free = {j: i for i, j in enumerate(j for j in range(ncols) if j not in pivots)}
    basis = [[0] * ncols for _ in free]
    for j, i in free.items():
        basis[i][j] = 1
    for c, row in pivots.items():
        for k, v in row.items():
            if k != c:
                basis[free[k]][c] = p - v
    return basis, len(pivots)


def kernel_dim(rows, ncols, p):
    """Dimension of the kernel mod p, without building a basis."""
    return ncols - rank(rows, p)
