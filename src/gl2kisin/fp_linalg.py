"""Sparse kernel computation mod p, in pure Python."""

# The one kernel implementation; perfbench records it beside its timings.
BACKEND = "pure"


def kernel_basis(rows, ncols, p):
    """Kernel of a sparse integer matrix mod p.

    rows: iterable of {column: value} dicts (values arbitrary ints).
    Returns (basis, rank) where basis is a list of length-ncols lists with
    entries in 0..p-1, one vector per free column in ascending column order:
    the vector for free column j has a 1 at j and minus the reduced-echelon
    pivot-row entries at the pivot columns.
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
    # back-substitution: clear later pivot columns from earlier pivot rows
    pivot_cols = sorted(pivots)
    for ci in range(len(pivot_cols) - 1, -1, -1):
        row = pivots[pivot_cols[ci]]
        for c2 in pivot_cols[ci + 1 :]:
            coef = row.get(c2)
            if not coef:
                continue
            del row[c2]
            for k, v in pivots[c2].items():
                if k == c2:
                    continue
                nv = (row.get(k, 0) - coef * v) % p
                if nv:
                    row[k] = nv
                elif k in row:
                    del row[k]
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for c in pivot_cols:
            coef = pivots[c].get(j)
            if coef:
                vec[c] = p - coef
        basis.append(vec)
    return basis, len(pivot_cols)


def kernel_dim(rows, ncols, p):
    basis, _rank = kernel_basis(rows, ncols, p)
    return len(basis)
