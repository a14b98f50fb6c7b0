"""Composition-series bookkeeping for the cyclic mod-p module of a profile.

Each weight sigma in the weight set of a profile generates one component;
its constituents are indexed by per-slot offsets around sigma, with signs
fixed by how the full weight set sits inside the translation graph of
sigma.  The checks here confirm the expected shape: multiplicity-free
components, the weight set appearing exactly as the socles, and downward
closure under moving any offset one step toward zero.

d0_checks decides every check from counts: component sizes and dims are
closed forms, and the number of coinciding constituents between two
components is a transfer over the slots, so no constituent is enumerated.
d0_checks_enumerated is its second path, by the definition: jh_component
labels every admitted offset with weights.t_lambda, under
MAX_D0_CONSTITUENTS, and the checks compare those labels and offsets
directly.
"""

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import prod

from .errors import ConfigError, InternalCheckError, PreconditionError
from .rho import serre_weights
from .weights import t_lambda


@dataclass(frozen=True)
class SocleProfile:
    """Per-slot signs in {-1, 0, +1}; the support marks the slots whose
    offset is hemmed to one side of zero."""

    signs: tuple

    @property
    def support(self):
        return tuple(j for j, s in enumerate(self.signs) if s)


def socle_profile(rho, sigma, wlabels=None):
    """Signed support of sigma inside the weight set: the unique choice of
    per-slot signs whose one-sided translations of sigma generate exactly
    the weight set of the profile.  wlabels is that weight set as a set of
    labels; it is computed from rho when not given.

    A matching choice generates each of its single-slot moves, so slot j
    offers the sign c = +-1 only when t_lambda(sigma, c * e_j) is defined
    and lies in the weight set.  The window of t_lambda is checked slot by
    slot, so every translation a choice of offered signs generates is
    defined.  A choice on s slots generates at most 2^s labels, so one with
    2^s below the size of the weight set is skipped unbuilt.
    """
    if wlabels is None:
        wlabels = set(serre_weights(rho).labels())
    if sigma not in wlabels:
        raise ConfigError("weight %r is not in the weight set of the profile" % (sigma,))
    f, p = rho.f, rho.p
    options = []
    for j in range(f):
        slot = [0]
        for c in (1, -1):
            move = (0,) * j + (c,) + (0,) * (f - 1 - j)
            try:
                if t_lambda(sigma, move, p) in wlabels:
                    slot.append(c)
            except PreconditionError:
                pass
        options.append(slot)
    matches = []
    for cand in itertools.product(*options):
        if 2 ** (f - cand.count(0)) < len(wlabels):
            continue
        opts = [(0,) if c == 0 else (0, c) for c in cand]
        if {t_lambda(sigma, om, p) for om in itertools.product(*opts)} == wlabels:
            matches.append(cand)
    if len(matches) != 1:
        raise InternalCheckError(
            "expected a unique signed support for %r, found %d" % (sigma, len(matches))
        )
    profile = SocleProfile(matches[0])
    if len(profile.support) != rho.zero_count():
        raise InternalCheckError("signed support size != number of vanishing parameters")
    return profile


# d0_checks_enumerated and jh_component enumerate at most this many
# constituents over the components of a profile; a larger profile raises
# PreconditionError before anything is enumerated.  Each constituent is one
# t_lambda call: oracle --kind d0 takes about 2.5-2.9 s and 73 MiB peak RSS
# on an f=4, p=37 profile of 154,252 constituents, and 19-21 s and 424 MiB
# on an f=4, p=47 profile of 1,048,456 (Python 3.11, a 2-vCPU Xeon).
MAX_D0_CONSTITUENTS = 2**20

# d0_checks counts coinciding constituents for every ordered pair of
# components, so it refuses a profile with more pairs than this (64 weights)
# before counting anything.
MAX_D0_PAIRS = 2**12


@dataclass(frozen=True)
class ComponentStructure:
    socle: object
    profile: SocleProfile
    ranges: tuple  # the values of the offset at each slot, ascending
    offsets: tuple  # the admitted offsets, in lexicographic order
    labels: tuple  # weights.t_lambda(socle, a, p) at each offset a
    dim: int  # sum of serre_weight_dim over the labels

    def __len__(self):
        return len(self.offsets)


def _offset_ranges(sigma, profile, p):
    """The values of the offset at each slot of the component of sigma: the
    translation window, one-sided on the supported slots.  The budget admits
    no coordinate above 3 (floor(4 / 2) = 2 > 1)."""
    ranges = []
    for d, sign in zip(sigma.diffs, profile.signs):
        top = min(p - 1 - d, 4)
        if sign == 1:
            ranges.append(range(-d, 1))
        elif sign == -1:
            ranges.append(range(0, top))
        else:
            ranges.append(range(-d, top))
    return tuple(ranges)


def component_size(ranges):
    """Number of offsets in the product of the ranges that the budget
    admits: every coordinate is at most 1, or exactly one is in {2, 3}."""
    lows = [len(range(rng.start, min(rng.stop, 2))) for rng in ranges]
    highs = [len(rng) - low for rng, low in zip(ranges, lows)]
    return prod(lows) + sum(
        high * prod(lows[:j] + lows[j + 1 :]) for j, high in enumerate(highs)
    )


def _refuse_above_cap(size):
    if size > MAX_D0_CONSTITUENTS:
        raise PreconditionError(
            "the components have %d constituents, above the cap of %d"
            % (size, MAX_D0_CONSTITUENTS)
        )


def jh_component(rho, sigma, profile=None):
    """Constituents of the component generated by sigma: one for each
    offset a that _admitted_offsets yields, labelled
    weights.t_lambda(sigma, a, p).

    Their count is checked against MAX_D0_CONSTITUENTS, and the window of
    the ranges as _check_window checks it, before any offset is enumerated.
    dim sums serre_weight_dim over the labels; it does not use _dim, the
    closed form d0_checks reports, so the two paths compare independent
    dims.
    """
    if profile is None:
        profile = socle_profile(rho, sigma)
    p = rho.p
    ranges = _offset_ranges(sigma, profile, p)
    _refuse_above_cap(component_size(ranges))
    if all(ranges):
        _check_window(sigma, ranges, p)
    offsets = _admitted_offsets(ranges)
    labels = tuple(t_lambda(sigma, a, p) for a in offsets)
    return ComponentStructure(
        socle=sigma,
        profile=profile,
        ranges=ranges,
        offsets=offsets,
        labels=labels,
        dim=sum(map(serre_weight_dim, labels)),
    )


def _admitted_offsets(ranges):
    """The offsets a in the product of the ranges within the budget
    sum_j max(floor(a_j / 2), 0) <= 1, in lexicographic order."""
    return tuple(
        a for a in itertools.product(*ranges) if sum(max(aj // 2, 0) for aj in a) <= 1
    )


def _check_window(sigma, ranges, p):
    """Every value of every nonempty range occurs in some admitted offset,
    so this checks the window exactly where t_lambda would."""
    for j, (d, rng) in enumerate(zip(sigma.diffs, ranges)):
        for w in rng:
            if not 0 <= d + w <= p - 2:
                raise PreconditionError(
                    "graph point %d at slot %d is outside the window of base difference %d"
                    % (w, j, d)
                )


def _dim(diffs, ranges, p):
    """sum of prod_j (r'_j + 1) over the admitted offsets (r'_j as in
    _pair_count), without a pass over the constituents.

    The factor of slot j depends only on a_j and the parity of a_{j+1}, and
    the budget only on how many coordinates are in {2, 3}.  So for each
    parity of a_0, a recursion from the last slot back keeps, per (parity
    of the first value, coordinates in {2, 3}), the sum over the suffixes
    of their products, and prepends slot j with the sums of its factors per
    (parity, in {2, 3}, parity of the next value).  Each admitted offset is
    one term of exactly one of these sums, so the result is exact.
    """
    # per slot: (parity, in {2, 3}, parity of the next value) -> summed factors
    sums = []
    for d, rng in zip(diffs, ranges):
        slot = defaultdict(int)
        for w in rng:
            slot[w & 1, w > 1, 0] += d + w + 1
            slot[w & 1, w > 1, 1] += p - 1 - d - w
        sums.append(slot)
    total = 0
    for q0 in (0, 1):
        # (parity of the first value, coordinates in {2, 3}) -> summed products
        state = {(q0, 0): 1}
        for j in range(len(diffs) - 1, -1, -1):
            new = defaultdict(int)
            for (par, high, q), s in sums[j].items():
                for (q_next, used), x in state.items():
                    if q == q_next and used + high <= 1 and (j or par == q0):
                        new[par, used + high] += s * x
            state = new
        total += sum(state.values())
    return total


@dataclass
class D0Report:
    components: tuple
    per_component_distinct: bool
    weight_set_only_socles: bool
    socles_match: bool
    downward_closed: bool
    globally_multiplicity_free: bool

    @property
    def passed(self):
        # global multiplicity-freeness is reported but not gated
        return (
            self.per_component_distinct
            and self.weight_set_only_socles
            and self.socles_match
            and self.downward_closed
        )


class ComponentCount:
    """A component as d0_checks reports it: counted, not enumerated.  A
    plain class, since every CLI run imports this module and a dataclass
    takes about 1 ms to create."""

    __slots__ = ("socle", "profile", "ranges", "size", "dim")

    def __init__(self, socle, profile, ranges, size, dim):
        self.socle, self.profile, self.ranges = socle, profile, ranges
        self.size = size  # component_size(ranges)
        self.dim = dim  # sum of serre_weight_dim over the constituents

    def __len__(self):
        return self.size


def _slot_pairs(d, rng, d2, rng2, p):
    """The value pairs (w, w2) in rng x rng2 of one slot whose digits
    r'(w) = r'(w2) agree, for next parities that are equal and that
    differ: two dicts (parity of w, w > 1, parity of w2, w2 > 1) -> count.

    With equal next parities the digits agree when w2 = w + d - d2, with
    different ones when w2 = p - 2 - d - d2 - w."""
    out = []
    for sign, c in ((1, d - d2), (-1, p - 2 - d - d2)):
        table = defaultdict(int)
        for w in rng:
            w2 = sign * w + c
            if w2 in rng2:
                table[w & 1, w > 1, w2 & 1, w2 > 1] += 1
        out.append(table)
    return out


def _counted(label, ranges, p):
    """The component of label over ranges as _pair_count reads it: the
    diffs, 2 twist + D (D as in _pair_count) and the ranges."""
    return label.diffs, 2 * label.twist + sum(d * p**j for j, d in enumerate(label.diffs)), ranges


def _pair_count(x, y, p):
    """Number of pairs (a, b), a an admitted offset of x and b one of y,
    whose constituents have the same label; x and y are (diffs,
    2 twist + D, ranges) of a label (see _counted), and a range may be a
    single point.

    The constituent at offset a of the component of sigma is
    weights.t_lambda(sigma, a, p).  With r'_j = d_j + a_j when a_{j+1} is
    even and p - 2 - d_j - a_j when it is odd (slot f is slot 0),
    R = sum_j r'_j p^j, D = sum_j d_j p^j and m = p^f - 1, its diffs are the
    r'_j and its twist is t = sigma.twist + (delta_0 * m + D - R) / 2 mod m,
    delta_0 the parity of a_0.  At p = 2 the window admits only the zero
    offset; for odd p, D - R is congruent to sum_j a_j + #{j : a_j odd},
    which is even.  The diffs are below p, so the label is fixed by its key
    t + m * R.

    The keys, and so the labels, agree exactly when every digit r'_j agrees
    and 2 t_x + delta_0 m + D_x = 2 t_y + delta'_0 m + D_y mod 2m.  The second condition reads only the parities delta_0, delta'_0
    of a_0 and b_0, and fixes whether they are equal.  The first reads, at
    slot j, a_j, b_j and the parities of a_{j+1}, b_{j+1} (_slot_pairs), and
    the budget reads how many coordinates of each offset are in {2, 3}.  So
    for each delta_0, a recursion from the last slot back keeps, per (parity
    of a_j, parity of b_j, coordinates of a in {2, 3}, coordinates of b in
    {2, 3}), the number of agreeing pairs of admitted suffixes, starting
    from the parities of a_0 and b_0 at slot f - 1 and ending on them at
    slot 0.  Each agreeing pair is counted once, for its own delta_0."""
    (dx, bx, rx), (dy, by, ry) = x, y
    m = p ** len(dx) - 1
    gap = (bx - by) % (2 * m)
    if gap not in (0, m):
        return 0
    flip = gap == m  # a_0 and b_0 have different parities
    tables = [_slot_pairs(*args, p) for args in zip(dx, rx, dy, ry)]
    total = 0
    for q0 in (0, 1):
        ends = (q0, q0 ^ flip)
        state = {ends + (0, 0): 1}
        for same, cross in reversed(tables):
            new = defaultdict(int)
            for (q, q2, h, h2), n in state.items():
                for (par, high, par2, high2), k in (cross if q != q2 else same).items():
                    if h + high <= 1 and h2 + high2 <= 1:
                        new[par, par2, h + high, h2 + high2] += n * k
            state = new
        total += sum(n for key, n in state.items() if key[:2] == ends)
    return total


def d0_checks(rho):
    """Run the structural checks over every component of the profile, from
    counts alone: no constituent is enumerated.

    The weight count is checked against MAX_D0_PAIRS first.  Each component
    carries its closed-form size (component_size) and dim (_dim), and the
    window of its ranges is checked as jh_component checks it.  Then:

    - per_component_distinct: each component coincides with itself only on
      the diagonal, so its self-pair count is its size;
    - globally_multiplicity_free: summed over all ordered pairs of
      components, the counts are the sum over labels of the squared
      multiplicities, which equals the sum of the sizes exactly when no
      label repeats (pairs (i, k) and (k, i) count alike, so each is counted once
      and doubled);
    - weight_set_only_socles: every component has offset zero, whose label
      is its socle (R = D and t = twist there), and each weight occurs once
      over all components.  With no label repeated that once is its
      socle; otherwise each weight, as a one-point range at offset zero, is
      counted against every component;
    - socles_match: every component has offset zero, so its offset-zero
      constituents are its socles, which are the weight set;
    - downward_closed: every nonempty component has offset zero.  The ranges
      are intervals, and the budget cost max(floor(a_j / 2), 0) of a
      coordinate never grows as it steps toward zero, so a step toward zero
      stays in its range (which holds zero) and within the budget.
      Conversely, if some range misses zero, take an admitted offset whose
      value there is the one nearest zero (still admitted, by the same
      monotonicity): its step toward zero leaves the range.

    d0_checks_enumerated reaches the same report by enumeration.
    """
    wlabels = serre_weights(rho).labels()
    if len(wlabels) ** 2 > MAX_D0_PAIRS:
        raise PreconditionError(
            "the profile has %d weights, so %d component pairs, above the cap of %d"
            % (len(wlabels), len(wlabels) ** 2, MAX_D0_PAIRS)
        )
    wset = set(wlabels)
    p = rho.p
    signed = [(lab, socle_profile(rho, lab, wset)) for lab in wlabels]
    comps = []
    for lab, profile in signed:
        ranges = _offset_ranges(lab, profile, p)
        if all(ranges):
            _check_window(lab, ranges, p)
        comps.append(
            ComponentCount(lab, profile, ranges, component_size(ranges), _dim(lab.diffs, ranges, p))
        )

    xs = [_counted(c.socle, c.ranges, p) for c in comps]
    pairs = sum(_pair_count(xs[i], xs[k], p) for i in range(len(xs)) for k in range(i))
    self_pairs = [_pair_count(x, x, p) for x in xs]
    sizes = [c.size for c in comps]
    globally_multiplicity_free = 2 * pairs + sum(self_pairs) == sum(sizes)
    has_zero = [all(0 in rng for rng in c.ranges) for c in comps]
    point = tuple(range(1) for _ in range(rho.f))
    # with no label repeated, each weight occurs once: at offset zero of its
    # own component
    weight_set_only_socles = all(has_zero) and (
        globally_multiplicity_free
        or all(sum(_pair_count(x, _counted(w, point, p), p) for x in xs) == 1 for w in wlabels)
    )
    return D0Report(
        components=tuple(comps),
        per_component_distinct=self_pairs == sizes,
        weight_set_only_socles=weight_set_only_socles,
        socles_match=all(has_zero),
        downward_closed=all(z or not n for z, n in zip(has_zero, sizes)),
        globally_multiplicity_free=globally_multiplicity_free,
    )


def d0_checks_enumerated(rho):
    """The report of d0_checks by enumerating every constituent with
    jh_component: the product's second path for the count.

    The constituents of all components are counted in closed form and
    checked against MAX_D0_CONSTITUENTS before any component is enumerated.
    Constituents are compared by label, counted once over all components;
    the weight set is computed once and handed to each socle_profile.
    """
    wlabels = serre_weights(rho).labels()
    wset = set(wlabels)
    signed = [(lab, socle_profile(rho, lab, wset)) for lab in wlabels]
    _refuse_above_cap(sum(component_size(_offset_ranges(lab, sp, rho.p)) for lab, sp in signed))
    comps = tuple(jh_component(rho, lab, profile=sp) for lab, sp in signed)

    counts = Counter(itertools.chain.from_iterable(c.labels for c in comps))
    globally_multiplicity_free = len(counts) == sum(len(c) for c in comps)
    # a repeat inside a component is a repeat overall
    per_component_distinct = globally_multiplicity_free or all(
        len(set(c.labels)) == len(c) for c in comps
    )
    zero = (0,) * rho.f
    # the constituent at offset zero, None where a component has none
    at_zero = [next((l for a, l in zip(c.offsets, c.labels) if a == zero), None) for c in comps]
    # each weight occurs exactly once overall, and that once is at offset
    # zero of a component it is the socle of
    weight_set_only_socles = all(counts[w] == 1 for w in wset) and wset <= {
        c.socle for c, l in zip(comps, at_zero) if l == c.socle
    }

    return D0Report(
        components=comps,
        per_component_distinct=per_component_distinct,
        weight_set_only_socles=weight_set_only_socles,
        socles_match=set(at_zero) == wset,
        downward_closed=all(_downward_closed(c.offsets) for c in comps),
        globally_multiplicity_free=globally_multiplicity_free,
    )


def _downward_closed(offsets):
    """Moving any offset one step toward zero in one coordinate gives an
    offset again."""
    members = set(offsets)
    return all(
        a[:j] + (aj - 1 if aj > 0 else aj + 1,) + a[j + 1 :] in members
        for a in members
        for j, aj in enumerate(a)
        if aj
    )


def serre_weight_dim(label):
    """Dimension of the irreducible with the given highest-weight gaps."""
    out = 1
    for d in label.diffs:
        out *= d + 1
    return out
