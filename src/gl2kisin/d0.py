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
d0_checks_enumerated is its second path: it builds every constituent with
jh_component and checks the keys and codes directly, under
MAX_D0_CONSTITUENTS.
"""

import itertools
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import prod

from .errors import ConfigError, InternalCheckError, PreconditionError
from .rho import serre_weights
from .weights import SerreWeightLabel, t_lambda


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
    defined.
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


def label_key(label, p):
    """Injective int key of a label with diffs in [0, p - 1]: the twist plus
    (p^f - 1) times the diffs read as base-p digits, slot 0 lowest."""
    m = p ** len(label.diffs) - 1
    return label.twist + m * sum(d * p**j for j, d in enumerate(label.diffs))


def labels_of_keys(keys, p, f):
    """The labels whose label_key at p is each of keys, in order."""
    m = p**f - 1
    twists = [k % m for k in keys]
    rest = [k // m for k in keys]
    digits = []
    for _ in range(f - 1):
        digits.append([x % p for x in rest])
        rest = [x // p for x in rest]
    # the diffs read as a base-p number are below p^f
    digits.append(rest)
    return tuple(map(SerreWeightLabel, zip(*digits), twists))


# d0_checks_enumerated and jh_component enumerate at most this many
# constituents over the components of a profile (an f=4, p=37 profile has
# 154,252, and enumerating them takes about 0.15 s and 45 MiB on a 2-vCPU
# Xeon); a larger profile raises PreconditionError before anything is
# enumerated.
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
    codes: tuple  # mixed-radix code of each offset; see offsets
    keys: tuple  # label_key of the constituent at each offset
    p: int
    dim: int  # sum of serre_weight_dim over the constituents

    @property
    def offsets(self):
        """The offsets a, decoded from their codes: the digit of slot j is
        a_j - ranges[j].start, with slot 0 the most significant, so codes
        ascend as offsets do lexicographically."""
        columns, rest = [], self.codes
        for rng in reversed(self.ranges):
            n, lo = len(rng), rng.start
            columns.append([x % n + lo for x in rest])
            rest = [x // n for x in rest]
        return tuple(zip(*reversed(columns)))

    @property
    def labels(self):
        return labels_of_keys(self.keys, self.p, len(self.socle.diffs))

    def __len__(self):
        return len(self.codes)


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


def _radix(ranges):
    """The weight of slot j's digit in a code: the product of the lengths
    of the later ranges."""
    return [prod(map(len, ranges[j + 1 :])) for j in range(len(ranges))]


def _refuse_above_cap(size):
    if size > MAX_D0_CONSTITUENTS:
        raise PreconditionError(
            "the components have %d constituents, above the cap of %d"
            % (size, MAX_D0_CONSTITUENTS)
        )


def jh_component(rho, sigma, profile=None):
    """Constituents of the component generated by sigma.

    Offsets a run through _offset_ranges, subject to the budget
    sum_j max(floor(a_j / 2), 0) <= 1, in lexicographic order; their count
    is checked against MAX_D0_CONSTITUENTS before any is enumerated.  The
    label of a is weights.t_lambda(sigma, a, p), kept as its label_key: with
    r'_j = d_j + a_j when a_{j+1} is even and p - 2 - d_j - a_j when it is
    odd (slot f is slot 0), R = sum_j r'_j p^j, D = sum_j d_j p^j and
    m = p^f - 1, the key is t + m * R for the twist
    t = sigma.twist + (delta_0 * m + D - R) / 2 mod m, delta_0 the parity of
    a_0.  At p = 2 the window admits only the zero offset; for odd p,
    D - R is congruent to sum_j a_j + #{j : a_j odd}, which is even.

    Codes, R and keys are built from the last slot back, on columns
    (code, parity of the first value, R) for the admitted suffixes and for
    the suffixes of values <= 1: an admitted suffix starts with a value
    <= 1 followed by an admitted suffix, or with a value in {2, 3} followed
    by a suffix of values <= 1, and every value <= 1 sorts before {2, 3}.
    Prepending a value w at slot j is one list comprehension per column,
    and its digit r'_j p^j reads the parity column of the suffix.  The
    digit of slot f - 1 reads the parity of a_0, so the suffixes carry one
    R column for each parity of a_0, and slot 0 comes last, value by value,
    with R and the key in one comprehension.

    dim = sum over admitted a of prod_j (r'_j + 1) is summed without a pass
    over the constituents.  The factor of slot j depends only on a_j and the
    parity of a_{j+1}, and the budget only on how many coordinates are in
    {2, 3}.  So for each parity of a_0, a recursion from the last slot back
    keeps, per (parity of the first value, coordinates in {2, 3}), the sum
    over the suffixes of their products, and prepends slot j with the sums
    of its factors per (parity, in {2, 3}, parity of the next value).  Each
    admitted offset is one term of exactly one of these sums, so the
    result is exact.
    """
    if profile is None:
        profile = socle_profile(rho, sigma)
    f, p = rho.f, rho.p
    ranges = _offset_ranges(sigma, profile, p)
    _refuse_above_cap(component_size(ranges))
    codes, keys, dim = [], [], 0
    if all(ranges):
        _check_window(sigma, ranges, p)
        radix = _radix(ranges)
        admitted, low_only = _suffix_columns(sigma.diffs, ranges, radix, p)
        m = p**f - 1
        base = 2 * sigma.twist + sum(d * p**j for j, d in enumerate(sigma.diffs))
        d, rng = sigma.diffs[0], ranges[0]
        for w in rng:
            suffix_codes, qs, *rs = admitted if w <= 1 else low_only
            shift = (w - rng.start) * radix[0]
            codes += [shift + c for c in suffix_codes]
            # r'_0 = even or odd by the parity of a_1 (a_0 itself when f = 1);
            # the key is (b - R) / 2 % m + m * R with R = r'_0 + r, and b - R
            # is even
            b = base + (w & 1) * m
            even, odd = d + w, p - 2 - d - w
            be, bo, me, mo = b - even, b - odd, m * even, m * odd
            keys += [
                ((bo - r) >> 1) % m + mo + m * r if q else ((be - r) >> 1) % m + me + m * r
                for r, q in zip(rs[w & 1], qs or [w & 1])
            ]
        dim = _dim(sigma.diffs, ranges, p)
    return ComponentStructure(
        socle=sigma,
        profile=profile,
        ranges=ranges,
        codes=tuple(codes),
        keys=tuple(keys),
        p=p,
        dim=dim,
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


def _suffix_columns(diffs, ranges, radix, p):
    """The columns (code, parity of the first value, R when a_0 is even,
    R when a_0 is odd) of the admitted suffixes a_1 .. a_{f-1} and of those
    with every value <= 1, in lexicographic order.  Only the digit of slot
    f - 1, which reads the parity of a_0, tells the two R columns apart;
    the empty suffix has parity column None."""
    admitted = low_only = ([0], None, [0], [0])
    for j in range(len(diffs) - 1, 0, -1):
        d, rng, pj = diffs[j], ranges[j], p**j
        new_admitted, new_low_only = ([], [], [], []), ([], [], [], [])
        for w in rng:
            shift = (w - rng.start) * radix[j]
            even, odd = (d + w) * pj, (p - 2 - d - w) * pj
            if w <= 1:
                pairs = ((admitted, new_admitted), (low_only, new_low_only))
            else:
                pairs = ((low_only, new_admitted),)
            for (codes, qs, r0, r1), (new_codes, new_qs, new_r0, new_r1) in pairs:
                new_codes += [shift + c for c in codes]
                new_qs += [w & 1] * len(codes)
                if qs is None:
                    new_r0.append(even)
                    new_r1.append(odd)
                else:
                    new_r0 += [r + (odd if q else even) for r, q in zip(r0, qs)]
                    new_r1 += [r + (odd if q else even) for r, q in zip(r1, qs)]
        admitted, low_only = new_admitted, new_low_only
    return admitted, low_only


def _dim(diffs, ranges, p):
    """sum of prod_j (r'_j + 1) over the admitted offsets, by the recursion
    described in jh_component."""
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
    """The component of label over ranges as _pair_count reads it."""
    return label.diffs, 2 * label.twist + sum(d * p**j for j, d in enumerate(label.diffs)), ranges


def _pair_count(x, y, p):
    """Number of pairs (a, b), a an admitted offset of x and b one of y,
    whose constituents have the same label_key; x and y are (diffs,
    2 twist + D, ranges) of a label (see _counted), and a range may be a
    single point.

    With the notation of jh_component, the keys agree exactly when every
    digit r'_j agrees and 2 t_x + delta_0 m + D_x = 2 t_y + delta'_0 m + D_y
    mod 2m.  The second condition reads only the parities delta_0, delta'_0
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
      components, the counts are the sum over keys of the squared
      multiplicities, which equals the sum of the sizes exactly when no key
      repeats (pairs (i, k) and (k, i) count alike, so each is counted once
      and doubled);
    - weight_set_only_socles: every component has offset zero, whose key is
      that of its socle (R = D and t = twist there), and each weight occurs
      once over all components.  With no key repeated that once is its
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
    # with no key repeated, each weight occurs once: at offset zero of its
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
    Constituents are compared by label_key, counted once over all
    components; the weight set is computed once and handed to each
    socle_profile.
    """
    wlabels = serre_weights(rho).labels()
    wset = set(wlabels)
    signed = [(lab, socle_profile(rho, lab, wset)) for lab in wlabels]
    _refuse_above_cap(sum(component_size(_offset_ranges(lab, sp, rho.p)) for lab, sp in signed))
    comps = tuple(jh_component(rho, lab, profile=sp) for lab, sp in signed)
    # before the key count, so that its code sets and the count are never
    # held at the same time
    downward_closed = all(_downward_closed(c.codes, c.ranges) for c in comps)

    counts = Counter(itertools.chain.from_iterable(c.keys for c in comps))
    globally_multiplicity_free = len(counts) == sum(len(c.keys) for c in comps)
    # a repeat inside a component is a repeat overall
    per_component_distinct = globally_multiplicity_free or all(
        len(set(c.keys)) == len(c.keys) for c in comps
    )
    wkeys = {label_key(w, rho.p) for w in wlabels}
    socle_keys = [label_key(c.socle, rho.p) for c in comps]
    # the code of offset zero has digit -ranges[j].start at slot j
    at_zero = [
        c.keys[c.codes.index(sum(-rng.start * w for rng, w in zip(c.ranges, _radix(c.ranges))))]
        for c in comps
    ]
    # each weight occurs exactly once overall, and that once is at offset
    # zero of a component it is the socle of
    weight_set_only_socles = all(counts[w] == 1 for w in wkeys) and wkeys <= {
        s for s, k in zip(socle_keys, at_zero) if k == s
    }

    return D0Report(
        components=comps,
        per_component_distinct=per_component_distinct,
        weight_set_only_socles=weight_set_only_socles,
        socles_match=set(at_zero) == wkeys,
        downward_closed=downward_closed,
        globally_multiplicity_free=globally_multiplicity_free,
    )


def _downward_closed(codes, ranges):
    """Moving any offset one step toward zero in one coordinate gives an
    offset again (a zero coordinate stays, giving the offset itself).

    Checked slot by slot on sets of codes that share the values of the
    earlier slots, starting from all codes.  In such a set the codes whose
    digit at slot j is v form a block; a step toward zero at slot j moves a
    block from digit v to v - 1 or v + 1 (each code changes by -radix_j or
    +radix_j), so each block, without that digit, must lie inside the block
    one digit nearer zero.  The blocks without their digit are the sets for
    slot j + 1, and equal ones are checked once: most blocks hold the same
    suffixes."""
    todo = {tuple(sorted(codes))}
    for rng, w in zip(ranges, _radix(ranges)):
        zero = -rng.start
        suffixes = set()
        for ordered in todo:
            blocks, hi = {}, 0
            for v in range(len(rng)):
                lo, start = hi, v * w
                hi = bisect_left(ordered, start + w, lo)
                if lo < hi:
                    blocks[v] = tuple([c - start for c in ordered[lo:hi]])
            for v, block in blocks.items():
                if v != zero:
                    nearer = blocks.get(v - 1 if v > zero else v + 1)
                    if nearer is None or nearer != block and not set(nearer).issuperset(block):
                        return False
            suffixes.update(blocks.values())
        todo = suffixes
    return True


def serre_weight_dim(label):
    """Dimension of the irreducible with the given highest-weight gaps."""
    out = 1
    for d in label.diffs:
        out *= d + 1
    return out
