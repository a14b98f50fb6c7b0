"""Sparse kernel and rank computation mod p, in pure Python, in two phases
that touch only the entries a row stores.  The forward elimination keeps a
row whose smallest column is a new pivot as it is (the caller's dict), skips
a one-entry row whose column has a one-entry pivot row (it reduces to zero),
and copies and reduces any other; no pivot row is normalized, and only the
rare reduction step inverts a lead.  `rank` stops there.  `kernel_basis`
then reads nothing above the last free column: its scan for free columns
stops once it has found them all, and it back-substitutes only the pivots
below that column (every pivot above it is 0), last first, reducing mod p
and normalizing once, only the pivot rows that name a free column or a
pivot already solved to nonzero: any other row forces its pivot to 0.  A
kernel vector is a {column: value} dict like a row, holding its nonzero
entries.

Given `pivots`, the echelon of earlier rows, `rank` and `kernel_basis`
continue that elimination with the new rows alone and extend the dict in
place; pivot rows are never modified, so a caller keeping the old echelon
passes a shallow copy.  The echelon alone is continued: the pivot columns
are the leading columns of the row space, so the kernel basis read from
it does not depend on how the rows were split.

Every column below ncols is an unknown: a caller that knows some of its
unknowns are 0 gives them no column (tangent numbers only the columns that
can be nonzero), so the elimination's work follows the columns it is given.
"""

from itertools import filterfalse, islice

# The one kernel implementation; perfbench records it beside its timings.
BACKEND = "pure"


def _echelon(rows, p, pivots=None):
    """Forward elimination: {pivot column: pivot row}.

    rows: iterable of {column: value} dicts (values arbitrary ints), never
    modified.  A pivot row is unnormalized, and its smallest column is its
    pivot, nonzero mod p.  A row whose smallest column is a new such pivot
    is its own pivot row, the caller's dict, only ever read.  A one-entry
    row on the column of a one-entry pivot row is dropped unread; any other
    row is copied mod p, and what reduction leaves of it is a new pivot row.

    pivots: an echelon of earlier rows in this form, extended in place and
    returned; default a new one.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        if row and (c := min(row)) not in pivots and row[c] % p:
            pivots[c] = row
            continue
        if len(row) == 1 and len(pivots.get(c, ())) == 1:
            continue  # {c: v} against the pivot row {c: u} reduces to zero
        r = {}
        for c, v in row.items():
            v %= p
            if v:
                r[c] = v
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = r
                break
            coef = r.pop(c) * pow(piv[c], -1, p)
            for k, v in piv.items():
                if k == c:
                    continue
                nv = (r.get(k, 0) - coef * v) % p
                if nv:
                    r[k] = nv
                elif k in r:
                    del r[k]
    return pivots


def rank(rows, p, pivots=None):
    """Rank mod p of a sparse integer matrix given as {column: value} rows.

    pivots: the echelon of earlier rows, which it extends in place; the
    rank is then that of rows together with those earlier rows."""
    return len(_echelon(rows, p, pivots))


def kernel_basis(rows, ncols, p, pivots=None):
    """Kernel of a sparse integer matrix mod p.

    rows: iterable of {column: value} dicts (values arbitrary ints).
    Returns (basis, rank) where basis holds one {column: value} dict per
    free column, in ascending column order: the vector for free column j
    maps j to 1 and each pivot column whose reduced-echelon entry at j is
    nonzero to minus that entry, a value in 1..p-1.

    pivots: an echelon of earlier rows on columns below ncols, extended in
    place; the kernel is that of the earlier rows and rows together.

    Past the elimination a solve reads nothing above the last free column.
    The free columns are those below ncols outside pivots, so the scan for
    them stops once it has found that many.  The pivots of the echelon it
    ends with below the last free column are back-substituted, last first;
    a pivot row that names no free column and no pivot with a nonzero
    solution forces its pivot to 0 and is skipped unread.  Every pivot
    above the last free column is 0 and its row is never read: a pivot row
    names no column below its pivot, so, from the last pivot down, each
    names only pivots already forced to 0.
    """
    pivots = _echelon(rows, p, pivots)
    nfree = ncols - len(pivots)
    free = list(islice(filterfalse(pivots.__contains__, range(ncols)), nfree))
    top = free[-1] + 1 if free else 0
    # {pivot column c: {free column j: coefficient of x_j in x_c}} for the
    # pivots whose x_c is nonzero
    solved = {}
    # the columns whose x is not forced to 0: free ones, and solved pivots
    live = set(free)
    # a pivot row names no column below its pivot, so from the last pivot
    # down none at or above top names a live column: those are all 0
    for c in sorted((c for c in pivots if c < top), reverse=True):
        row = pivots[c]
        if live.isdisjoint(row):
            continue
        acc = {}
        for k, v in row.items():
            if k in solved:
                for j, w in solved[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            elif k in live:  # a free column
                acc[k] = acc.get(k, 0) + v
        neg = p - pow(row[c], -1, p)
        x = {j: w for j, v in acc.items() if (w := v * neg % p)}
        if x:
            solved[c] = x
            live.add(c)
    basis = {j: {j: 1} for j in free}
    for c, x in solved.items():
        for j, w in x.items():
            basis[j][c] = w
    return list(basis.values()), len(pivots)
