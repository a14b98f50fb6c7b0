"""The F_p kernel against its brute-force twin: the nullspace found by
trying every one of the p^ncols vectors."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from gl2kisin import fp_linalg


@st.composite
def systems(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    ncols = draw(st.integers(1, 6))
    # entries are arbitrary ints: negative, zero, and >= p all occur
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-12, 12), max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    return rows, ncols, p


def brute_force_kernel(rows, ncols, p):
    return [
        x
        for x in itertools.product(range(p), repeat=ncols)
        if all(sum(v * x[c] for c, v in row.items()) % p == 0 for row in rows)
    ]


def canonical_basis(kernel, ncols):
    """The reduced-echelon kernel basis, read off the kernel alone.

    Column j is free iff some kernel vector has x_j = 1 and vanishes after j
    (column j of the matrix lies in the span of the earlier columns); the
    basis vector of free column j is the one kernel vector with a 1 at j and
    0 at every other free column.
    """
    free = [
        j
        for j in range(ncols)
        if any(x[j] == 1 and not any(x[j + 1 :]) for x in kernel)
    ]
    basis = []
    for j in free:
        (vec,) = [x for x in kernel if all(x[k] == (k == j) for k in free)]
        basis.append(list(vec))
    return basis


@given(systems())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_brute_force(system):
    rows, ncols, p = system
    kernel = brute_force_kernel(rows, ncols, p)
    # the nullspace is a subspace, so it has p^nullity elements
    nullity = next(k for k in range(ncols + 1) if p**k == len(kernel))
    basis, rank = fp_linalg.kernel_basis(rows, ncols, p)
    assert basis == canonical_basis(kernel, ncols)
    assert rank == fp_linalg.rank(rows, p) == ncols - nullity
    assert fp_linalg.kernel_dim(rows, ncols, p) == len(basis) == nullity

