"""The F_p kernel against two twins: the nullspace found by trying every one
of the p^ncols vectors, and a dense reduced-row-echelon form computed
column by column."""

import copy
import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2kisin import fp_linalg
from gl2kisin.tangent import assemble_system, solve_claim

from conftest import dense_basis, random_profile


def densified(rows, ncols, p, **state):
    """fp_linalg.kernel_basis with its basis densified for the twins; an
    echelon to continue is passed by name."""
    basis, rank = fp_linalg.kernel_basis(rows, ncols, p, **state)
    return dense_basis(basis, ncols, p), rank


@st.composite
def systems(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    ncols = draw(st.integers(1, 6))
    # entries are arbitrary ints: negative, zero, and >= p all occur
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-12, 12), max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    return rows, ncols, p


@st.composite
def sparse_systems(draw):
    """Up to 40 columns with a few entries per row; a wide system has at
    most a third as many rows as columns, so most columns are free."""
    p = draw(st.sampled_from((2, 3, 5, 101)))
    ncols = draw(st.integers(1, 40))
    wide = draw(st.booleans())
    nrows = draw(st.integers(0, ncols // 3 if wide else ncols + 5))
    row = st.dictionaries(
        st.integers(0, ncols - 1), st.integers(-300, 300), max_size=min(ncols, 6)
    )
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols, p


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


def dense_kernel(rows, ncols, p):
    """(basis, rank) from the dense reduced row echelon form: each column in
    turn takes the first remaining row nonzero there as its pivot row,
    scaled by the Fermat inverse, and clears the column in every other row."""
    M = []
    for row in rows:
        M.append([0] * ncols)
        for c, v in row.items():
            M[-1][c] = v % p
    pivot_cols = []
    for c in range(ncols):
        r = len(pivot_cols)
        i = next((i for i in range(r, len(M)) if M[i][c]), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        inv = pow(M[r][c], p - 2, p)
        M[r] = [v * inv % p for v in M[r]]
        for k in [k for k, other in enumerate(M) if other[c]]:
            if k != r:
                s = M[k][c]
                M[k] = [(a - s * b) % p for a, b in zip(M[k], M[r])]
        pivot_cols.append(c)
    basis = []
    for j in sorted(set(range(ncols)) - set(pivot_cols)):
        vec = [0] * ncols
        vec[j] = 1
        for i, c in enumerate(pivot_cols):
            vec[c] = -M[i][j] % p
        basis.append(vec)
    return basis, len(pivot_cols)


def assert_matches_dense_twin(rows, ncols, p):
    before = copy.deepcopy(rows)
    expected = dense_kernel(rows, ncols, p)
    assert densified(rows, ncols, p) == expected
    assert fp_linalg.rank(rows, p) == expected[1]
    assert ncols - fp_linalg.rank(rows, p) == len(expected[0])
    # no call changed the caller's row dicts
    assert rows == before


@given(systems())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_brute_force(system):
    rows, ncols, p = system
    kernel = brute_force_kernel(rows, ncols, p)
    # the nullspace is a subspace, so it has p^nullity elements
    nullity = next(k for k in range(ncols + 1) if p**k == len(kernel))
    basis, rank = densified(rows, ncols, p)
    assert basis == canonical_basis(kernel, ncols) == dense_kernel(rows, ncols, p)[0]
    assert rank == fp_linalg.rank(rows, p) == ncols - nullity
    assert ncols - fp_linalg.rank(rows, p) == len(basis) == nullity


@given(sparse_systems())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_dense_twin(system):
    assert_matches_dense_twin(*system)


def test_wide_kernel_matches_dense_twin():
    """200 free columns and more: a random sparse 60 x 260 system mod 101."""
    rng = random.Random(101)
    rows = [{c: rng.randrange(-500, 500) for c in rng.sample(range(260), 4)} for _ in range(60)]
    assert len(dense_kernel(rows, 260, 101)[0]) >= 200
    assert_matches_dense_twin(rows, 260, 101)


@given(sparse_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_continued_elimination_matches_one_pass(system, data):
    """Rows split into A | B: continuing A's echelon with B gives the kernel
    and rank of one pass over A + B, and A's echelon and every row dict are
    unchanged by it."""
    rows, ncols, p = system
    split = data.draw(st.integers(0, len(rows)))
    a, b = rows[:split], rows[split:]
    before = copy.deepcopy(rows)
    echelon_a = {}
    assert fp_linalg.rank(a, p, echelon_a) == len(echelon_a) == fp_linalg.rank(a, p)
    kept = dict(echelon_a)
    kept_rows = copy.deepcopy(echelon_a)
    echelon = dict(echelon_a)
    expected = dense_kernel(rows, ncols, p)
    assert densified(b, ncols, p, pivots=echelon) == expected
    assert densified(rows, ncols, p) == expected
    assert len(echelon) == expected[1]
    assert fp_linalg.rank(b, p, dict(echelon_a)) == expected[1]
    # the continued echelon is one of A + B: it adds nothing to more rows
    assert densified([], ncols, p, pivots=dict(echelon)) == expected
    assert echelon_a == kept_rows and all(echelon_a[c] is row for c, row in kept.items())
    assert rows == before


@given(sparse_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_zero_columns_match_appended_unit_rows(system, data):
    """Columns Z that one unit row {c: 1} each forces to 0 can go unnumbered
    instead, as the tangent system leaves its closed columns: the rows less
    their entries on Z, with the other columns numbered in order, give the
    kernel of the rows followed by the unit rows, mapped back with each
    vector's key order, and its rank less |Z|, in one pass and continuing
    the echelon of rows A | B; the pivots mapped back, with Z, are those of
    the unit-row system, and no row dict is modified."""
    rows, ncols, p = system
    zero = data.draw(st.sets(st.integers(0, ncols - 1)))
    units = [{c: 1} for c in sorted(zero)]
    dense = [c for c in range(ncols) if c not in zero]
    own = {c: i for i, c in enumerate(dense)}
    kept = [{own[c]: v for c, v in row.items() if c in own} for row in rows]
    before = copy.deepcopy(rows)
    one_echelon = {}
    basis, rank = fp_linalg.kernel_basis(rows + units, ncols, p, one_echelon)
    assert (dense_basis(basis, ncols, p), rank) == dense_kernel(rows + units, ncols, p)
    split = data.draw(st.integers(0, len(kept)))
    echelon_a = {}
    rank_a = fp_linalg.rank(kept[:split], p, echelon_a)
    assert rank_a + len(zero) == fp_linalg.rank(rows[:split] + units, p)
    for echelon, fed in (({}, kept), (echelon_a, kept[split:])):
        got, got_rank = fp_linalg.kernel_basis(fed, len(dense), p, echelon)
        mapped = [[(dense[c], v) for c, v in x.items()] for x in got]
        assert mapped == [list(x.items()) for x in basis]
        assert got_rank + len(zero) == rank
        assert sorted([*(dense[c] for c in echelon), *zero]) == sorted(one_echelon)
    assert rows == before


def split_case(rng):
    """Rows A | B mod p where B also has rows leading on columns that A
    leaves free and some of A's kernel vectors name besides their own, so
    that continuing A's echelon turns columns that earlier pivots depend on
    into pivots whenever A's kernel is not spanned by unit vectors.  The
    named columns come from the dense twin's basis: the vector of free
    column j is 1 at j and 0 past it, and names j when it has another
    nonzero entry."""
    p = rng.choice((2, 3, 5, 101))
    ncols = rng.randint(1, 30)

    def row(lo):
        cols = rng.sample(range(lo, ncols), min(ncols - lo, rng.randint(0, 4)))
        return {c: rng.randint(-3 * p, 3 * p) for c in cols}

    a = [row(0) for _ in range(rng.randint(0, ncols))]
    b = [row(0) for _ in range(rng.randint(0, 4))]
    named = [
        max(j for j, v in enumerate(vec) if v)
        for vec in dense_kernel(a, ncols, p)[0]
        if sum(map(bool, vec)) > 1
    ]
    for j in rng.sample(named, min(len(named), rng.randint(1, 3))):
        lead = {j: rng.randrange(1, p)}
        lead.update(row(j + 1))
        b.insert(rng.randint(0, len(b)), lead)
    return a, b, ncols, p


def assert_echelon_continues(a, b, ncols, p):
    """A copy of A's echelon continued with B gives the dense twin's kernel
    and rank of A + B, and what one pass over A + B gives; A's echelon and
    every row dict are unchanged."""
    before = copy.deepcopy((a, b))
    echelon_a = {}
    assert densified(a, ncols, p, pivots=echelon_a) == dense_kernel(a, ncols, p)
    kept = dict(echelon_a)
    deep = copy.deepcopy(echelon_a)
    echelon = dict(echelon_a)
    expected = dense_kernel(a + b, ncols, p)
    assert densified(b, ncols, p, pivots=echelon) == expected
    one_echelon = {}
    assert densified(a + b, ncols, p, pivots=one_echelon) == expected
    assert sorted(echelon) == sorted(one_echelon)
    assert echelon_a == deep and all(echelon_a[c] is row for c, row in kept.items())
    assert (a, b) == before


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_continued_split_echelon_matches_one_pass(rng):
    assert_echelon_continues(*split_case(rng))


def test_zero_is_no_parameter():
    """rank and kernel_basis take the rows, ncols, p and an echelon alone:
    a caller gives a column forced to 0 no column number."""
    assert list(inspect.signature(fp_linalg.rank).parameters) == ["rows", "p", "pivots"]
    params = ["rows", "ncols", "p", "pivots"]
    assert list(inspect.signature(fp_linalg.kernel_basis).parameters) == params
    with pytest.raises(TypeError):
        fp_linalg.kernel_basis([{0: 1}], 2, 5, {}, {1})


class CountingEchelon(dict):
    """An echelon that records each column it is asked about."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def __contains__(self, c):
        self.asked.append(c)
        return super().__contains__(c)


class Unreadable(dict):
    """A pivot row that fails the test when any entry of it is read."""

    def _refuse(self, *args):
        raise AssertionError("a pivot row above the last free column was read")

    __iter__ = __getitem__ = __contains__ = __len__ = get = items = keys = values = _refuse


def last_free(echelon, ncols):
    return max((c for c in range(ncols) if c not in echelon), default=-1)


@given(sparse_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_free_column_scan_stops_at_the_last_free_column(system, data):
    """Given an echelon and no new rows, the scan for free columns asks the
    echelon about the columns up to the last free one and about no other:
    the echelon of rows followed by unit rows on some of their free
    columns, which moves the last free column down."""
    rows, ncols, p = system
    echelon = {}
    fp_linalg.rank(rows, p, echelon)
    free = [c for c in range(ncols) if c not in echelon]
    rows = rows + [{c: 1} for c in sorted(data.draw(st.sets(st.sampled_from(free))) if free else ())]
    echelon = {}
    fp_linalg.rank(rows, p, echelon)
    counting = CountingEchelon(echelon)
    assert densified([], ncols, p, pivots=counting) == dense_kernel(rows, ncols, p)
    assert counting.asked == list(range(last_free(echelon, ncols) + 1))


@given(sparse_systems())
@settings(max_examples=200, deadline=None)
def test_back_substitution_reads_no_pivot_row_above_the_last_free_column(system):
    """Every pivot row above the last free column forces its pivot to 0
    (it names no column below its pivot), so none of them is read."""
    rows, ncols, p = system
    echelon = {}
    fp_linalg.rank(rows, p, echelon)
    last = last_free(echelon, ncols)
    guarded = {c: Unreadable(row) if c > last else row for c, row in echelon.items()}
    assert densified([], ncols, p, pivots=guarded) == dense_kernel(rows, ncols, p)


def dense_pivots(rows, ncols, p):
    """The pivot columns of the dense twin."""
    basis, _rank = dense_kernel(rows, ncols, p)
    return set(range(ncols)) - {max(j for j, v in enumerate(x) if v) for x in basis}


@st.composite
def free_column_edges(draw):
    """(rows, ncols, p, free) at the edges of the last free column: the
    last column free (a combination of the earlier ones), no column free
    (full rank, or unit rows on every column the other rows leave free),
    and every column free (each entry 0 mod p)."""
    p = draw(st.sampled_from((2, 3, 5, 101)))
    ncols = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("last", "full rank", "units", "every")))
    value = st.integers(-3 * p, 3 * p)
    cols = st.integers(0, ncols - 1)
    row = st.dictionaries(cols, value, max_size=5)
    lead = st.integers(1, p - 1)
    if kind == "last":
        # the last column is coef times the earlier ones
        coef = draw(st.lists(value, min_size=ncols - 1, max_size=ncols - 1))
        earlier = st.just({})
        if ncols > 1:
            earlier = st.dictionaries(st.integers(0, ncols - 2), value, max_size=5)
        rows = draw(st.lists(earlier, max_size=ncols + 3))
        rows = [{**row, ncols - 1: sum(coef[c] * v for c, v in row.items())} for row in rows]
        free = [c for c in range(ncols) if c not in dense_pivots(rows, ncols, p)]
        assert free[-1] == ncols - 1
    elif kind == "full rank":
        # one row leading on each column, shuffled, and a few more
        leads = [
            {**draw(st.dictionaries(st.integers(c, ncols - 1), value, max_size=3)), c: draw(lead)}
            for c in range(ncols)
        ]
        rows = draw(st.permutations(leads)) + draw(st.lists(row, max_size=3))
        free = []
    elif kind == "units":
        rows = draw(st.lists(row, max_size=ncols + 3))
        rows += [{c: 1} for c in sorted(set(range(ncols)) - dense_pivots(rows, ncols, p))]
        free = []
    else:
        rows = draw(st.lists(st.dictionaries(cols, value.map(p.__mul__), max_size=5), max_size=5))
        free = list(range(ncols))
    return rows, ncols, p, free


@given(free_column_edges())
@settings(max_examples=300, deadline=None)
def test_edges_of_the_last_free_column(case):
    """At each edge, fed as rows and as a passed echelon, the kernel is the
    dense twin's with the expected free columns, and the scan asks the
    echelon about the columns up to the last free one alone."""
    rows, ncols, p, free = case
    expected = dense_kernel(rows, ncols, p)
    assert [max(j for j, v in enumerate(x) if v) for x in expected[0]] == free
    assert densified(rows, ncols, p) == expected
    echelon = {}
    fp_linalg.rank(rows, p, echelon)
    counting = CountingEchelon(echelon)
    assert densified([], ncols, p, pivots=counting) == expected
    assert counting.asked == list(range(free[-1] + 1 if free else 0))


def chain_case(rng, p):
    """Pivot rows along chains, most of them forcing their pivot to 0.
    Each column that is not free, last first, gets the row {c: u} plus up
    to three later columns whose x is 0; about a third of the rows also get
    one later column whose x is not 0 (a free column, or a pivot whose row
    got one), and only those rows give their pivot a nonzero x.  Returns
    the rows, shuffled, ncols, and the numbers of pivots forced to 0 and
    not."""
    ncols = rng.randint(2, 40)
    free = rng.sample(range(ncols), rng.randint(1, max(1, ncols // 6)))
    live, dead, rows = set(free), [], []
    for c in reversed(range(ncols)):
        if c in live:
            continue
        row = {c: rng.randrange(1, p)}
        for k in rng.sample(dead, min(len(dead), rng.randint(0, 3))):
            row[k] = rng.randrange(1, p)
        later = sorted(k for k in live if k > c)
        if later and rng.random() < 0.35:
            row[rng.choice(later)] = rng.randrange(1, p)
            live.add(c)
        else:
            dead.append(c)
        rows.append(row)
    rng.shuffle(rows)
    return rows, ncols, len(dead), len(live) - len(free)


@pytest.mark.parametrize("p", (2, 3, 101))
def test_chain_kernels_match_dense_twin(p):
    """Chain systems, whole and split A | B with A's echelon continued:
    the rows that only name pivots forced to 0 are skipped, and the rows
    whose one live entry is a free column or a solved pivot are not."""
    rng = random.Random("chain:%d" % p)
    forced = nonzero = 0
    for _ in range(150):
        rows, ncols, dead, live = chain_case(rng, p)
        forced, nonzero = forced + dead, nonzero + live
        assert_matches_dense_twin(rows, ncols, p)
        split = rng.randint(0, len(rows))
        assert_echelon_continues(rows[:split], rows[split:], ncols, p)
    assert forced > 1.5 * nonzero > 0


@st.composite
def aliased_systems(draw):
    """Rows that some pivot may keep as given: leads 0 mod p, negative
    entries and entries >= p, and dict objects that occur more than once."""
    p = draw(st.sampled_from((2, 3, 5, 101)))
    ncols = draw(st.integers(1, 12))
    row = st.dictionaries(
        st.integers(0, ncols - 1), st.integers(-3 * p, 3 * p), max_size=min(ncols, 5)
    )
    rows = draw(st.lists(row, max_size=ncols + 3))
    for lead in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
        # the smallest column of the row holds a multiple of p
        multiple = draw(st.integers(-2, 2)) * p
        rows.append({lead: multiple, **{c: v for c, v in draw(row).items() if c > lead}})
    if rows:
        for _ in range(draw(st.integers(0, 4))):
            twice = rows[draw(st.integers(0, len(rows) - 1))]
            rows.insert(draw(st.integers(0, len(rows))), twice)
    return rows, ncols, p


@given(aliased_systems())
@settings(max_examples=200, deadline=None)
def test_kernel_leaves_aliased_rows_unchanged(system):
    assert_matches_dense_twin(*system)


def test_fresh_pivot_row_is_the_callers_dict():
    p = 7
    shared = {1: 3, 4: -2}
    rows = [
        {0: 14, 2: 1},  # lead 0 mod p: copied, reduced, pivot at column 2
        {0: -8, 3: 15},  # a new pivot at column 0 with unreduced entries
        shared,
        shared,  # the same dict again reduces to nothing against itself
        {0: 1, 1: 10, 3: -1, 5: 7},
        {2: 0, 5: 3},
    ]
    pivots = fp_linalg._echelon(rows, p)
    assert pivots[0] is rows[1] and pivots[1] is shared
    assert pivots[2] is not rows[0] and pivots[2] == {2: 1}
    assert_matches_dense_twin(rows, 6, p)
    assert rows[2] is rows[3] is shared


def test_repeated_one_column_rows_match_dense_twin(monkeypatch):
    """A one-entry row on the column of a one-entry pivot row reduces to
    zero, so it is dropped with no copy and no inverse; a one-entry row
    under a longer pivot row is still reduced."""
    p = 5
    inverses = []

    def counting_pow(*args):
        inverses.append(args)
        return pow(*args)

    monkeypatch.setattr(fp_linalg, "pow", counting_pow, raising=False)
    rows = [
        {0: 3},
        {0: 7},
        {0: 10},  # 0 mod p
        {2: 5},  # 0 mod p with no pivot at its column: copied, reduces to nothing
        {2: 4},
        {2: 9},
        {3: -2},
        {3: 15},  # 0 mod p
        {3: 1},
        {0: 0},
        {1: 2, 4: 1},
        {1: 4},  # against the two-entry pivot row at column 1: one inverse
    ]
    pivots = fp_linalg._echelon(rows, p)
    assert sorted(pivots) == [0, 1, 2, 3, 4] and len(inverses) == 1
    assert pivots[0] is rows[0] and pivots[2] is rows[4] and pivots[3] is rows[6]
    assert_matches_dense_twin(rows, 5, p)


def tangent_profile(f, p):
    """A deep non-split profile: at least one extension parameter nonzero."""
    rng = random.Random("tangent:%d:%d" % (f, p))
    zeros = rng.choice([z for k in range(f) for z in itertools.combinations(range(f), k)])
    return random_profile(rng, p, f, zero_positions=zeros, deep=True)


@pytest.mark.parametrize("f,p", list(itertools.product((1, 2, 3), (31, 37, 101))))
def test_tangent_systems_match_dense_twin(f, p):
    """The full system, the one a Frobenius step higher (as stability_check
    builds it) and the negative control without the pivot pin, each with
    every row, closed groups included, from the degree-by-degree twin."""
    from test_tangent import twin_rows  # test_tangent imports this module

    rho = tangent_profile(f, p)
    system = assemble_system(rho)
    higher = assemble_system(rho, degree_bound=system.degree_bound + p)
    for sys_ in (system, higher, system.without(("pin", "p21_0"))):
        rows = [row for _lab, row in twin_rows(sys_)]
        assert len(rows) == sys_.row_count()
        assert_matches_dense_twin(rows, sys_.ncols, p)


def _summary(report):
    return (
        report.kernel,
        report.rank,
        report.kernel_dim,
        report.param_kernel_dim,
        report.m_kernel_dim,
        report.injective,
    )


@pytest.mark.parametrize("f,p", [(1, 31), (2, 37), (3, 31)])
def test_relaxed_system_shares_rows_safely(f, p):
    """without() shares its row dicts with the full system: solving one and
    then the other gives what solving each freshly assembled system gives."""
    rho = tangent_profile(f, p)
    system = assemble_system(rho)
    relaxed = system.without(("pin", "p21_0"))
    shared = {id(row) for row in system.rows}
    assert all(id(row) in shared for row in relaxed.rows)
    full, rel = solve_claim(system), solve_claim(relaxed)
    rel_again, full_again = solve_claim(relaxed), solve_claim(system)
    fresh_full = solve_claim(assemble_system(rho))
    fresh_rel = solve_claim(assemble_system(rho).without(("pin", "p21_0")))
    assert _summary(full) == _summary(full_again) == _summary(fresh_full)
    assert _summary(rel) == _summary(rel_again) == _summary(fresh_rel)
    assert fresh_full.injective and not fresh_rel.injective
