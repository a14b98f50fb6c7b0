"""First-order rigidity system for reducible non-split profiles.

Perturb the basis of every slot by a 2x2 polynomial matrix (coefficients up
to a degree bound), allow a small set of low-degree correction parameters
per slot plus four global framing parameters, and require that the
perturbed Frobenius matrices keep the triangular coefficient structure of
the profile after one Frobenius turn.  Everything is linear over the prime
field, so the claim "the only solutions are global rescalings" becomes a
kernel computation; the module assembles the system as sparse rows,
solves it, and cross-checks every kernel vector by exact Laurent-series
substitution.
"""

import copy
from dataclasses import dataclass
from itertools import chain

from . import fp_linalg
from .errors import ConfigError, InternalCheckError, PreconditionError
from .kisin import etale_matrices, frobenius_factor
from .laurent import Laurent, phi_twist
from .matrices import Mat2, monomial_matrix

# assemble_system builds at most this many columns, else PreconditionError;
# the cap counts every column, numbered or not (TangentSystem).  The largest
# system the benchmark builds has 2,470 (p 101, f 3, degree bound 202); one
# of 65,530 columns (p 101, f 3, degree bound 5457, 97% of its recurrence
# rows in closed groups, which are not built, and 1,990 of its columns
# numbered) takes 0.006-0.012 s and a 17-18 MiB peak RSS for `gl2kisin
# tangent` (cli.main in one process per run, Python 3.11, a 2-vCPU Xeon).
# Of that, assemble_system takes 1.3-1.7 ms (in-process, best of 60 per
# process) and solve_claim 0.1-0.2 ms (best of 15): its one free column is
# column 45, and a solve reads nothing above the last free column.
MAX_TANGENT_COLUMNS = 2**16

# per-slot low-degree correction parameters; p<entry>_<degree> sits in the
# (entry) position of the correction matrix with v-degree (m2 = -2, m1 = -1)
PARAM_NAMES = (
    "p11_m2",
    "p11_m1",
    "p12_m1",
    "p12_m2",
    "p22_m1",
    "p22_m2",
    "p21_m1",
    "p11_0",
    "p22_0",
    "p21_0",
)
_PARAM_INDEX = {n: i for i, n in enumerate(PARAM_NAMES)}
_NEGATIVE_DEGREE_PARAMS = tuple(n for n in PARAM_NAMES if n.endswith(("m1", "m2")))

FRAME_NAMES = ("frame_11", "frame_12", "frame_21", "frame_22")
_FRAME_INDEX = {n: i for i, n in enumerate(FRAME_NAMES)}

M11, M12, M21, M22 = 0, 1, 2, 3
# the (l, k) entries of a slot's recurrence, in row order at each degree
_ENTRIES = ((1, 1), (1, 2), (2, 1), (2, 2))
# the correction parameters in each entry of _ENTRIES: (v-degree, index in
# PARAM_NAMES) of each p<l><k>_<degree> there is
_PARAM_TERMS = tuple(
    tuple(
        (x, _PARAM_INDEX[name])
        for x, suffix in ((0, "0"), (-1, "m1"), (-2, "m2"))
        if (name := "p%d%d_%s" % (l, k, suffix)) in _PARAM_INDEX
    )
    for l, k in _ENTRIES
)


def pivot_slot(rho):
    """Least slot with a nonzero extension coupling alpha_j a_{f-1-j}."""
    for j, (_, a21, _) in enumerate(rho.slot_coeffs):
        if a21:
            return j
    raise PreconditionError("split profile has no pivot slot")


def _require_tangent_profile(rho):
    if rho.irreducible:
        raise PreconditionError("the rigidity system needs a reducible profile")
    if rho.semisimple():
        raise PreconditionError("the rigidity system needs a non-split profile")
    if rho.field.degree != 1:
        raise PreconditionError("the rigidity system is implemented over prime fields")


class TangentSystem:
    """Sparse linear system over F_p.

    rows is a list of {column: int} dicts: those of the system it extends
    (see below), then one run of recurrence rows per slot, less its closed
    groups, then the constraint rows (pins, weight selectors, frames),
    labeled by `constraints`.  No other row carries a label.
    Row labels:
      ("rec", j, l, k, e)   coefficient e of entry (l,k) of the slot-j
                            recurrence  M^(j-1) Delta_j - Delta_j Phi_j - P_j,
                            (Delta_j, sh) = kisin.frobenius_factor(rho, j)
                            and Phi_j = diag(v^sh, 1) phi(M^j) diag(v^-sh, 1)
      ("pin", name, j)      a parameter pinned to zero, including the
                            droppable ("pin", "p21_0", pivot) row
      ("weight", name, j)   the degree -2 correction killed by the chosen
                            weight selector b
      ("frame", name, None) global framing: frame_12 = frame_21 = 0 and
                            frame_11 = frame_22

    Dense columns, the ones col_param, col_frame and col_m name and the
    kernel vectors of a report use: 10 correction parameters per slot, then
    the four framing parameters (n_param_cols in all), then the
    perturbation coefficients degree-major: degree e from min_degree up
    holds stride = 4f columns, (slot j, entry comp) at 4j + comp.  A dense
    column's index does not depend on the degree bound, and ncols counts
    them.

    Closed groups: the four rows ("rec", j, l, k, e) of a window degree e
    at which no phi-term and no correction parameter of slot j lands read
    M^(j-1)[e] Delta_j = 0.  They name the four columns of M^(j-1)[e] alone
    and Delta_j is invertible, so they force those columns to 0 in every
    kernel vector, whatever other rows name them.  M^(j-1)[e] is open when
    e is a landed degree of slot j, else closed.  No row of a closed group
    is built, and row_count() counts them, four per closed M^(j-1)[e].

    The rows name the system's own columns, which are the open ones alone:
    `dense` maps each to its dense column.  The correction and framing
    columns come first, as in the dense layout, then the four columns of
    each open M^(j')[e], degree-major, so the map is monotone.  A row has
    no entry on a closed column (it would multiply a coordinate forced to
    0); a row left empty is still stored.  A window degree's landed status
    does not depend on the bound above it, so the columns of the system at
    a bound b are the first ones of the system at any higher bound.

    The eliminated block: the first `eliminated` rows, whose fp_linalg
    echelon is `echelon`.  It is only ever read; solve_claim continues a
    copy of it with the rows after the block.  Without `below`, the block
    is the recurrence rows of every degree, eliminated once.  `below` is a
    solve_claim report at a lower degree bound with the same rho, b and
    min_degree: its system's rows are then the block, with the report's
    echelon, and the recurrence rows of the degrees above that bound
    follow.  The constructor adds no constraint row, so a system built
    with `below` has none of its own."""

    def __init__(self, rho, b, degree_bound, min_degree, below=None):
        self.rho = rho
        self.b = b
        self.degree_bound = degree_bound
        self.min_degree = min_degree
        self.p = rho.p
        self.f = rho.f
        self.stride = 4 * rho.f
        self.n_param_cols = 10 * rho.f + 4
        self.ncols = self.n_param_cols + self.stride * (degree_bound - min_degree + 1)
        if self.ncols > MAX_TANGENT_COLUMNS:
            raise PreconditionError(
                "the rigidity system at degrees %d..%d has %d columns, above the cap of %d"
                % (min_degree, degree_bound, self.ncols, MAX_TANGENT_COLUMNS)
            )
        self.constraints = []
        if below is None:
            self.rows, self.echelon = [], {}
            self.dense = list(range(self.n_param_cols))
            _recurrence_rows(self, min_degree)
            self.eliminated = len(self.rows)
            fp_linalg.rank(self.rows, self.p, self.echelon)
        else:
            self.rows, self.echelon = list(below.system.rows), below.echelon
            self.eliminated = len(self.rows)
            self.dense = list(below.system.dense)
            _recurrence_rows(self, below.system.degree_bound + 1)

    def col_param(self, j, name):
        return j * 10 + _PARAM_INDEX[name]

    def col_frame(self, name):
        return 10 * self.f + _FRAME_INDEX[name]

    def col_m(self, j, comp, e):
        return self.n_param_cols + (e - self.min_degree) * self.stride + j * 4 + comp

    def row_count(self):
        """The rows of the system, closed groups included: the stored rows,
        and the four rows of each closed group, one per closed column, the
        groups of the system it extends included."""
        return len(self.rows) + self.ncols - len(self.dense)

    def without(self, label_prefix):
        """Copy of the system minus all constraint rows whose label starts
        with the given tuple; used for the negative control (drop the pivot
        pin).  Only the rows labeled by `constraints` can be dropped, so
        the empty prefix, or one matching none of them, raises ConfigError;
        the copy shares the block's rows and echelon, and the column map."""
        prefix = tuple(label_prefix)
        n, start = len(prefix), len(self.rows) - len(self.constraints)
        kept = [i for i, label in enumerate(self.constraints) if label[:n] != prefix]
        if not prefix or len(kept) == len(self.constraints):
            raise ConfigError("no constraint row labeled %r to drop" % (prefix,))
        clone = copy.copy(self)
        clone.constraints = [self.constraints[i] for i in kept]
        clone.rows = self.rows[:start] + [self.rows[start + i] for i in kept]
        return clone


def assemble_system(rho, b=None, degree_bound=None, min_degree=0):
    """Build the rigidity system for a reducible non-split prime-field
    profile.

    b: per-slot weight selector (0 or 1; 1 only on slots with vanishing
    extension parameter), default all zeros.  degree_bound: highest tracked
    v-degree of the perturbation matrices, default max(p, max(r) + 3).
    min_degree: lowest tracked degree, must be <= 0.
    """
    _require_tangent_profile(rho)
    f, p = rho.f, rho.p
    rmax = max(rho.r)
    if degree_bound is None:
        degree_bound = max(p, rmax + 3)
    if degree_bound < rmax + 3:
        raise ConfigError("degree bound %d is below max(r) + 3 = %d" % (degree_bound, rmax + 3))
    if min_degree > 0:
        raise ConfigError("min_degree must be <= 0")
    if b is None:
        b = (0,) * f
    b = tuple(b)
    if len(b) != f or any(bj not in (0, 1) for bj in b):
        raise ConfigError("weight selector must be f values in {0, 1}")
    for j, (_, a21, _) in enumerate(rho.slot_coeffs):
        if b[j] == 1 and a21:
            raise ConfigError("weight selector is 1 on slot %d with nonzero extension parameter" % j)

    system = TangentSystem(rho, b, degree_bound, min_degree)

    def constrain(label, row):
        system.constraints.append(label)
        system.rows.append(row)

    for j in range(f - 1):
        constrain(("pin", "p11_0", j), {system.col_param(j, "p11_0"): 1})
        constrain(("pin", "p22_0", j), {system.col_param(j, "p22_0"): 1})
    constrain(("pin", "frame_22", None), {system.col_frame("frame_22"): 1})
    pivot = pivot_slot(rho)
    constrain(("pin", "p21_0", pivot), {system.col_param(pivot, "p21_0"): 1})
    for j in range(f):
        name = "p22_m2" if b[j] == 0 else "p11_m2"
        constrain(("weight", name, j), {system.col_param(j, name): 1})
    constrain(("frame", "frame_12", None), {system.col_frame("frame_12"): 1})
    constrain(("frame", "frame_21", None), {system.col_frame("frame_21"): 1})
    constrain(
        ("frame", "diag", None),
        {system.col_frame("frame_11"): 1, system.col_frame("frame_22"): p - 1},
    )
    return system


def _recurrence_rows(system, first):
    """Append the ("rec", j, l, k, e) rows of every slot at the degrees e
    from first to the system's degree bound to system.rows, slot by slot,
    less the rows of the closed groups: each slot's rows below the window
    by (degree, entry), then its open window degrees, each with its four
    entries in _ENTRIES order.  From first = min_degree the rows below the
    window are built; from a higher first they are left out, since the
    system at a lower degree bound with the same min_degree already has
    them, unchanged.

    Every window degree has a row for each of the four entries, because
    Delta_j is invertible: each of its columns is nonzero, so each row has
    an M^(j-1) term.  A zero column raises InternalCheckError.

    Slot j' + 1's phi-terms name the columns of M^(j'+1), which slot j' + 2
    opens, so every slot's landed degrees from first on are decided before
    any row is built.  The open columns of those degrees are then appended
    to system.dense, and the rows name them alone: only the landed window
    degrees get rows, and an entry on a closed column is left out."""
    rho, p, f = system.rho, system.p, system.f
    min_degree, degree_bound, stride = system.min_degree, system.degree_bound, system.stride
    rows, dense = system.rows, system.dense
    # the slot's Frobenius matrix is v * Delta * diag(v^sh, 1)
    factors = [frobenius_factor(rho, j) for j in range(f)]

    def top(x):
        # one past the highest degree d whose p*d + x is at most the bound
        return min(degree_bound, (degree_bound - x) // p) + 1

    # coefficient e of entry (l,k) of the slot-j recurrence
    #   sum_t M^(j-1)_lt Delta_tk - sum_t Delta_lt v^(sh*(k-t)) phi(m_tk) - P_lk
    # built column by column: the M^(j-1) terms give each open window degree
    # its row, a phi(m) term reaches degree p*d + sh*(k-t) from the column of
    # degree d, a correction parameter degree 0, -1 or -2, and below the
    # window only a degree some term reaches has a row.  A row's first value
    # is a nonzero residue as given; later ones add mod p, and a 0 where
    # terms cancel stays in the row.  The dense column of degree d is
    # stride * d past that of degree 0.
    slots = []
    for j in range(f):
        delta, sh = factors[j]
        entries = []
        # the terms of the rows below the window: (entry, x, column of
        # degree 0, value, degrees d from lo to end - 1)
        lows = []
        # the window degrees a phi-term or correction parameter lands at
        landed = set()
        for n, (l, k) in enumerate(_ENTRIES):
            # (entry comp of M^(j-1), value): column k of Delta_j
            prev = [(2 * l + t - 3, delta[t - 1][k - 1]) for t in (1, 2) if delta[t - 1][k - 1]]
            if not prev:
                raise InternalCheckError(
                    "slot %d entry (%d,%d) has an empty recurrence row: Delta_%d has a zero column"
                    % (j, l, k, j)
                )
            # (x, dense column of degree 0, value, degrees d from lo to hi - 1):
            # value at the column of degree d in row p*d + x; a correction
            # parameter has d = 0 only
            terms = []
            for t in (1, 2):
                val = delta[l - 1][t - 1]
                if val:
                    x = sh * (k - t)
                    terms.append((x, system.col_m(j, 2 * t + k - 3, 0), p - val, min_degree, top(x)))
            # col_param(j, name) is 10 * j + the name's index
            terms += [(x, 10 * j + i, p - 1, 0, 1) for x, i in _PARAM_TERMS[n]]
            spans = []
            for x, col, val, lo, hi in terms:
                # the first d whose degree p*d + x is first or more
                cut = max(lo, -((x - first) // p))
                if cut > lo and first == min_degree:
                    lows.append((n, x, col, val, lo, min(cut, hi)))
                spans.append((x, col, val, cut, hi))
                landed.update(range(p * cut + x, p * hi + x, p))
            entries.append((prev, spans))
        slots.append((entries, lows, sorted(landed)))
    # M^(j-1)[e] is open iff slot j lands at e: number its four columns,
    # degree-major, the order of their dense columns; base[j] is the dense
    # column of M^(j-1)[0]
    base = [system.col_m((j - 1) % f, 0, 0) for j in range(f)]
    for c in sorted(base[j] + stride * e for j, (_e, _l, opened) in enumerate(slots) for e in opened):
        dense += range(c, c + 4)
    # {dense column: own column} of every numbered column
    own = {c: i for i, c in enumerate(dense)}.get
    for j, (entries, lows, opened) in enumerate(slots):
        # the rows below the window, by (degree, entry)
        below = {}
        for n, x, col, val, lo, end in lows:
            for d in range(lo, end):
                row = below.setdefault((p * d + x, n), {})
                c = own(col + stride * d)
                if c is not None:
                    row[c] = (row.get(c, 0) + val) % p
        rows += [below[key] for key in sorted(below)]
        offsets = [own(base[j] + stride * e) for e in opened]
        index = {e: i for i, e in enumerate(opened)}
        insides = []
        for prev, spans in entries:
            if len(prev) == 2:
                (c1, v1), (c2, v2) = prev
                inside = [{o + c1: v1, o + c2: v2} for o in offsets]
            else:
                ((c1, v1),) = prev
                inside = [{o + c1: v1} for o in offsets]
            for x, col, val, cut, hi in spans:
                for d in range(cut, hi):
                    c = own(col + stride * d)
                    if c is not None:
                        row = inside[index[p * d + x]]
                        row[c] = (row.get(c, 0) + val) % p
            insides.append(inside)
        rows += chain.from_iterable(zip(*insides))


# ---------------------------------------------------------------------------
# solving and reporting


@dataclass
class TangentReport:
    system: TangentSystem
    kernel: list
    rank: int
    kernel_dim: int
    param_kernel_dim: int
    m_kernel_dim: int
    injective: bool
    # fp_linalg's echelon of the system's rows, from which a system with
    # further rows continues the elimination (copy it first)
    echelon: dict


def solve_claim(system):
    """Kernel of the system, as fp_linalg's {column: value} vectors, with
    the dimensions of its projections onto the correction/framing block
    and onto the perturbation block (each vector split by column).  The
    rigidity claim is injective = True: no kernel direction touches the
    correction parameters.  The elimination continues a copy of the
    echelon of the system's eliminated block with the rows after it, over
    the system's own columns, the open ones; the back-substitution then
    reads only the pivots below the last free column (fp_linalg).  Each
    kernel vector is mapped back to dense columns, and the rank counts the
    closed columns, one closed row each."""
    echelon = dict(system.echelon)
    rows = system.rows[system.eliminated :]
    dense = system.dense
    basis, rank = fp_linalg.kernel_basis(rows, len(dense), system.p, echelon)
    # the map is monotone, so each vector keeps its key order
    kernel = [{dense[c]: v for c, v in x.items()} for x in basis]
    n = system.n_param_cols
    param_dim = fp_linalg.rank([{c: v for c, v in x.items() if c < n} for x in kernel], system.p)
    m_dim = fp_linalg.rank([{c: v for c, v in x.items() if c >= n} for x in kernel], system.p)
    return TangentReport(
        system=system,
        kernel=kernel,
        rank=rank + system.ncols - len(dense),
        kernel_dim=len(kernel),
        param_kernel_dim=param_dim,
        m_kernel_dim=m_dim,
        injective=param_dim == 0,
        echelon=echelon,
    )


def consequence_report(report):
    """Structural facts about every kernel vector.

    negative_degree_params_zero: all degree -1/-2 corrections vanish.
    upper_right_zero: the (1,2) perturbation entry is identically zero.
    lower_left_divisible: the (2,1) perturbation entry is divisible by v.
    corner_relations: the degree-0 corrections equal the matched
    differences of constant terms across one Frobenius turn.
    """
    system = report.system
    p, f = system.p, system.f
    n, stride = system.n_param_cols, system.stride
    deltas = [frobenius_factor(system.rho, j)[0] for j in range(f)]
    negative = {system.col_param(j, name) for j in range(f) for name in _NEGATIVE_DEGREE_PARAMS}
    out = {
        "negative_degree_params_zero": True,
        "upper_right_zero": True,
        "lower_left_divisible": True,
        "corner_relations": True,
    }
    for vec in report.kernel:
        # kernel_basis stores nonzero values only, so the columns suffice
        for c in vec:
            if c < n:
                if c in negative:
                    out["negative_degree_params_zero"] = False
                continue
            d, comp = divmod(c - n, stride)
            comp %= 4
            if comp == M12:
                out["upper_right_zero"] = False
            elif comp == M21 and d + system.min_degree < 1:
                out["lower_left_divisible"] = False
        get = vec.get
        for j, ((a11, _), (a21, a22)) in enumerate(deltas):
            jm = (j - 1) % f
            m11_prev = get(system.col_m(jm, M11, 0), 0)
            m11_here = get(system.col_m(j, M11, 0), 0)
            m22_prev = get(system.col_m(jm, M22, 0), 0)
            m22_here = get(system.col_m(j, M22, 0), 0)
            ok = (
                (a11 * (m11_prev - m11_here) - get(system.col_param(j, "p11_0"), 0)) % p == 0
                and (a21 * (m22_prev - m11_here) - get(system.col_param(j, "p21_0"), 0)) % p == 0
                and (a22 * (m22_prev - m22_here) - get(system.col_param(j, "p22_0"), 0)) % p == 0
            )
            if not ok:
                out["corner_relations"] = False
    return out


def residual_check(report):
    """Independent validation of the assembled rows: substitute each kernel
    vector into the recurrence with exact Laurent arithmetic and confirm
    that every residual coefficient up to the degree bound vanishes.  With
    E = v * Delta_j * diag(v^sh, 1) the etale matrix of slot j
    (kisin.etale_matrices), the slot-j residual is
        (M^(j-1) E - E phi(M^j)) diag(v^-(sh+1), v^-1) - P_j."""
    system = report.system
    rho = system.rho
    field = rho.field
    f = system.f
    etale = etale_matrices(rho)
    unshift = [monomial_matrix(field, 0, (-frobenius_factor(rho, j)[1] - 1, -1)) for j in range(f)]
    n, stride, min_degree = system.n_param_cols, system.stride, system.min_degree
    for vec in report.kernel:
        # the vector's perturbation coordinates, as {degree: value} per
        # (slot, entry): column n + stride * (e - min_degree) + 4 * j + comp
        entries = [{} for _ in range(stride)]
        for c, v in vec.items():
            if c >= n:
                d, k = divmod(c - n, stride)
                entries[k][d + min_degree] = v
        Ms = [
            Mat2(field, *(Laurent(field, e) for e in entries[4 * j : 4 * j + 4])) for j in range(f)
        ]
        for j in range(f):
            par = {name: vec.get(system.col_param(j, name), 0) for name in PARAM_NAMES}
            P = Mat2(
                field,
                Laurent(field, {0: par["p11_0"], -1: par["p11_m1"], -2: par["p11_m2"]}),
                Laurent(field, {-1: par["p12_m1"], -2: par["p12_m2"]}),
                Laurent(field, {0: par["p21_0"], -1: par["p21_m1"]}),
                Laurent(field, {0: par["p22_0"], -1: par["p22_m1"], -2: par["p22_m2"]}),
            )
            E = etale[f - 1 - j]
            phi_m = Mat2(field, *map(phi_twist, Ms[j].entries()))
            residual = (Ms[(j - 1) % f] * E - E * phi_m) * unshift[j] - P
            if residual.truncate(system.degree_bound + 1) != Mat2.zero(field):
                return False
    return True


def stability_check(rho, b=None, degree_bound=None, min_degree=0):
    """Solve the full system of rho at b, degree_bound and min_degree
    (assemble_system's arguments and defaults) and again one Frobenius step
    higher; the reported dimensions must not move.  Returns (report,
    report_higher, stable): report is the lower system's, and its system
    is the assembled one, which a caller drops rows from with `without`.

    Every row of the system at the bound occurs unchanged in the one at
    bound + p, and its columns come first there (TangentSystem), so the
    higher system extends the lower one (TangentSystem with below=report),
    and solve_claim continues the lower echelon with the recurrence rows of
    the p degrees above the bound alone, then back-substitutes the pivots
    of the echelon it ends with below its last free column.  Each system is
    assembled once and solved once."""
    report = solve_claim(assemble_system(rho, b, degree_bound, min_degree))
    lower = report.system
    higher = solve_claim(
        TangentSystem(rho, lower.b, lower.degree_bound + rho.p, lower.min_degree, below=report)
    )
    stable = (
        report.kernel_dim,
        report.param_kernel_dim,
        report.m_kernel_dim,
    ) == (higher.kernel_dim, higher.param_kernel_dim, higher.m_kernel_dim)
    return report, higher, stable
