"""First-order rigidity system for reducible non-split profiles.

Perturb the basis of every slot by a 2x2 polynomial matrix (coefficients up
to a degree bound), allow a small set of low-degree correction parameters
per slot plus four global framing parameters, and require that the
perturbed Frobenius matrices keep the triangular coefficient structure of
the profile after one Frobenius turn.  Everything is linear over the prime
field, so the claim "the only solutions are global rescalings" becomes a
kernel computation; the module assembles the system with labeled rows,
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

# assemble_system builds at most this many columns, else PreconditionError.
# The largest system the benchmark builds has 2,470 (p 101, f 3, degree
# bound 202); one of 65,530 columns (p 101, f 3, degree bound 5457, 97% of
# its recurrence rows in closed groups, which are not built) takes
# 0.014-0.024 s and a 21-22 MiB peak RSS for `gl2kisin tangent` (cli.main
# in one process per run, Python 3.11, a 2-vCPU Xeon).  Of that,
# assemble_system takes 7-11 ms, about two thirds of it putting the 63,540
# closed columns into `zero`, and solve_claim 0.1-0.2 ms: its one free
# column is column 45, and a solve reads nothing above the last free
# column (in-process, best of 15 per process).
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
    """Labeled sparse linear system over F_p.

    rows is a list of {column: int} dicts: those of `lower`, the system
    this one extends (or None), then one run of recurrence rows per slot,
    less its closed groups, each stood for by a descriptor (j, below, first,
    last) in `segments`, then the constraint rows (pins, weight selectors,
    frames), labeled by `constraints`.  labels() derives the recurrence
    rows' labels, aligned with rows:
        ("rec", j, *_ENTRIES[n], e) for each (e, n) in below, then
        ("rec", j, l, k, e) for e from first to last outside slot j's
        closed groups, (l, k) in _ENTRIES.
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

    Columns: 10 correction parameters per slot, then the four framing
    parameters (n_param_cols in all), then the perturbation coefficients
    degree-major: degree e from min_degree up holds stride = 4f columns,
    (slot j, entry comp) at 4j + comp.  A column's index therefore does not
    depend on the degree bound, and the columns of the system at a bound b
    are the first ones of the system at any higher bound.

    Closed groups: the four rows ("rec", j, l, k, e) of a window degree e
    at which no phi-term and no correction parameter of slot j lands
    (_closed_runs) read M^(j-1)[e] Delta_j = 0.  They name the four columns
    of M^(j-1)[e] alone and Delta_j is invertible, so they force those
    columns to 0 in every kernel vector, whatever other rows name them.
    No row of a closed group is built: `zero` holds the columns of the
    closed groups, with those of the lower system when there is one, and
    every elimination of the rows, the constructor's and solve_claim's,
    takes `zero` in place of their rows, so no echelon pivots on a zero
    column.  row_count() counts them.

    The eliminated block: the first `eliminated` rows, whose fp_linalg
    echelon, with the zero columns, is `echelon`.  It is only ever read;
    solve_claim continues a copy of it with the rows after the block.
    Without `below`, the block is the recurrence rows of every degree,
    eliminated once.  `below` is a solve_claim report at a lower degree
    bound with the same rho, b and min_degree: its system's rows are then
    the block, with the report's echelon, and the recurrence rows of the
    degrees above that bound follow.  The constructor adds no constraint
    row."""

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
        self.segments, self.constraints = [], []
        if below is None:
            self.lower, self.rows, self.echelon, self.zero = None, [], {}, set()
            _recurrence_rows(self, min_degree)
            self.eliminated = len(self.rows)
            fp_linalg.rank(self.rows, self.p, self.echelon, zero=self.zero)
        else:
            self.lower, self.rows = below.system, list(below.system.rows)
            self.eliminated = len(self.rows)
            self.echelon = below.echelon
            self.zero = set(self.lower.zero)
            _recurrence_rows(self, self.lower.degree_bound + 1)

    def col_param(self, j, name):
        return j * 10 + _PARAM_INDEX[name]

    def col_frame(self, name):
        return 10 * self.f + _FRAME_INDEX[name]

    def col_m(self, j, comp, e):
        return self.n_param_cols + (e - self.min_degree) * self.stride + j * 4 + comp

    def row_count(self):
        """The rows of the system, closed groups included: the stored rows,
        and the four rows of each closed group, this system's and `lower`'s,
        one per zero column."""
        return len(self.rows) + len(self.zero)

    def labels(self):
        out = self.lower.labels() if self.lower else []
        for j, below, first, last in self.segments:
            out += [("rec", j, *_ENTRIES[n], e) for e, n in below]
            # a closed group's columns, those of M^(j-1)[e], are zero
            col = self.col_m((j - 1) % self.f, 0, 0)
            out += [
                ("rec", j, l, k, e)
                for e in range(first, last + 1)
                if col + self.stride * e not in self.zero
                for l, k in _ENTRIES
            ]
        return out + self.constraints

    def without(self, label_prefix):
        """Copy of the system minus all constraint rows whose label starts
        with the given tuple; used for the negative control (drop the pivot
        pin).  Only this system's own constraint rows can be dropped, so the
        empty prefix, or one matching none of them, raises ConfigError; the
        copy shares the block's rows and echelon, and the closed groups."""
        prefix = tuple(label_prefix)
        n, start = len(prefix), len(self.rows) - len(self.constraints)
        kept = [i for i, label in enumerate(self.constraints) if label[:n] != prefix]
        if not prefix or len(kept) == len(self.constraints):
            if any(label[:n] == prefix for label in self.labels()):
                raise ConfigError("rows labeled %r are in the eliminated block" % (prefix,))
            raise ConfigError("no row labeled %r to drop" % (prefix,))
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
    with one descriptor per slot to system.segments, less the rows of the
    closed groups.  From first = min_degree each slot's rows below the
    window come first; from a higher first the rows below it are left out,
    since the system at a lower degree bound with the same min_degree
    already has them, unchanged.

    Every window degree has a row for each of the four entries, because
    Delta_j is invertible: each of its columns is nonzero, so each row has
    an M^(j-1) term.  An entry whose window holds an empty row, stored or
    closed, raises InternalCheckError.

    A slot's closed groups are decided (_closed_runs) from the degrees its
    terms land at before any row is built; the columns of each run of them
    go to system.zero, and only the landed window degrees get rows."""
    rho, p, f = system.rho, system.p, system.f
    min_degree, degree_bound, stride = system.min_degree, system.degree_bound, system.stride
    rows = system.rows
    # the slot's Frobenius matrix is v * Delta * diag(v^sh, 1)
    factors = [frobenius_factor(rho, j) for j in range(f)]

    def top(x):
        # one past the highest degree d whose p*d + x is at most the bound
        return min(degree_bound, (degree_bound - x) // p) + 1

    for j in range(f):
        jm = (j - 1) % f
        delta, sh = factors[j]
        # coefficient e of entry (l,k) of the slot-j recurrence
        #   sum_t M^(j-1)_lt Delta_tk - sum_t Delta_lt v^(sh*(k-t)) phi(m_tk) - P_lk
        # built column by column: the M^(j-1) terms give each open window
        # degree its row, a phi(m) term reaches degree p*d + sh*(k-t) from
        # the column of degree d, a correction parameter degree 0, -1 or -2,
        # and below the window only a degree some term reaches has a row.  A
        # row's first value is a nonzero residue as given; later ones add
        # mod p, and a 0 where terms cancel stays in the row.  The column of
        # degree d is stride * d past that of degree 0.
        entries = []
        # the rows below the window, by (degree, entry)
        below = {}
        # the window degrees a phi-term or correction parameter lands at
        landed = set()
        for n, (l, k) in enumerate(_ENTRIES):
            prev = [
                (system.col_m(jm, 2 * l + t - 3, 0), delta[t - 1][k - 1])
                for t in (1, 2)
                if delta[t - 1][k - 1]
            ]
            # (x, column of degree 0, value, degrees d from lo to hi - 1):
            # value at the column of degree d in row p*d + x; a correction
            # parameter has d = 0 only
            terms = []
            for t in (1, 2):
                val = delta[l - 1][t - 1]
                if val:
                    x = sh * (k - t)
                    hi = top(x)
                    terms.append((x, system.col_m(j, 2 * t + k - 3, 0), p - val, min_degree, hi))
            # col_param(j, name) is 10 * j + the name's index
            terms += [(x, 10 * j + i, p - 1, 0, 1) for x, i in _PARAM_TERMS[n]]
            spans = []
            for x, col, val, lo, hi in terms:
                # the first d whose degree p*d + x is first or more
                cut = max(lo, -((x - first) // p))
                if cut > lo and first == min_degree:
                    for d in range(lo, min(cut, hi)):
                        row = below.setdefault((p * d + x, n), {})
                        c = col + stride * d
                        row[c] = (row.get(c, 0) + val) % p
                spans.append((x, col, val, cut, hi))
                landed.update(range(p * cut + x, p * hi + x, p))
            if not prev:
                # a window row, stored or closed, then holds only what lands
                mine = {p * d + x for x, _c, _v, cut, hi in spans for d in range(cut, hi)}
                if len(mine) <= degree_bound - first:
                    raise InternalCheckError(
                        "slot %d entry (%d,%d) has an empty recurrence row: Delta_%d has a zero column"
                        % (j, l, k, j)
                    )
            entries.append((prev, spans))
        keys = tuple(sorted(below))
        rows += [below[key] for key in keys]
        # the landed window degrees, the only ones outside the closed runs
        opened = sorted(landed)
        for lo, hi in _closed_runs(opened, first, degree_bound):
            c = system.col_m(jm, 0, lo)
            end = c + stride * (hi - lo)
            for k in range(c, c + 4):
                system.zero.update(range(k, end, stride))
        offsets = [stride * e for e in opened]
        index = {e: i for i, e in enumerate(opened)}
        insides = []
        for prev, spans in entries:
            if len(prev) == 2:
                (c1, v1), (c2, v2) = prev
                inside = [{c1 + o: v1, c2 + o: v2} for o in offsets]
            elif prev:
                ((c1, v1),) = prev
                inside = [{c1 + o: v1} for o in offsets]
            else:
                inside = [{} for _o in offsets]
            for x, col, val, cut, hi in spans:
                for d in range(cut, hi):
                    row = inside[index[p * d + x]]
                    c = col + stride * d
                    row[c] = (row.get(c, 0) + val) % p
            insides.append(inside)
        rows += chain.from_iterable(zip(*insides))
        system.segments.append((j, keys, first, degree_bound))


def _closed_runs(landed, first, last):
    """The runs [lo, hi) of the degrees e from first to last whose four
    slot-j rows are a closed group: e is not in landed, the ascending
    degrees from first to last that a phi-term or correction parameter of
    slot j lands at."""
    runs, lo = [], first
    for e in [*landed, last + 1]:
        if e > lo:
            runs.append((lo, e))
        lo = e + 1
    return runs


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
    echelon of the system's eliminated block with the rows after it, the
    closed groups' columns passed as zero columns, as they were to the
    elimination that made that echelon; the back-substitution then reads
    only the pivots below the last free column (fp_linalg)."""
    echelon = dict(system.echelon)
    rows = system.rows[system.eliminated :]
    basis, rank = fp_linalg.kernel_basis(rows, system.ncols, system.p, echelon, zero=system.zero)
    n = system.n_param_cols
    param_dim = fp_linalg.rank([{c: v for c, v in x.items() if c < n} for x in basis], system.p)
    m_dim = fp_linalg.rank([{c: v for c, v in x.items() if c >= n} for x in basis], system.p)
    return TangentReport(
        system=system,
        kernel=basis,
        rank=rank,
        kernel_dim=len(basis),
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


def stability_check(rho, b=None, degree_bound=None, min_degree=0, first=None):
    """Solve at the degree bound and again one Frobenius step higher; the
    reported dimensions must not move.  Returns (report, report_higher,
    stable).

    first: the caller's solve_claim report of the full system of rho at b,
    degree_bound and min_degree, when it has one; that system is then not
    assembled and solved a second time, and b, degree_bound and min_degree
    are read from first.system, the arguments being ignored.

    Every row of the system at the bound occurs unchanged in the one at
    bound + p, and its columns come first there (TangentSystem), so the
    higher system extends the lower one (TangentSystem with below=first),
    and solve_claim continues the lower echelon with the recurrence rows of
    the p degrees above the bound alone, then back-substitutes the pivots
    of the echelon it ends with below its last free column."""
    if first is None:
        first = solve_claim(assemble_system(rho, b, degree_bound, min_degree))
    lower = first.system
    higher = solve_claim(
        TangentSystem(rho, lower.b, lower.degree_bound + rho.p, lower.min_degree, below=first)
    )
    stable = (
        first.kernel_dim,
        first.param_kernel_dim,
        first.m_kernel_dim,
    ) == (higher.kernel_dim, higher.param_kernel_dim, higher.m_kernel_dim)
    return first, higher, stable
