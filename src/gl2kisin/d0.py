"""Composition-series bookkeeping for the cyclic mod-p module of a profile.

Each weight sigma in the weight set of a profile generates one component;
its constituents are indexed by per-slot offsets around sigma, with signs
fixed by how the full weight set sits inside the translation graph of
sigma.  The checks here confirm the expected shape: multiplicity-free
components, the weight set appearing exactly as the socles, and downward
closure under moving any offset one step toward zero.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod
from operator import itemgetter

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


@dataclass(frozen=True)
class ComponentStructure:
    socle: object
    profile: SocleProfile
    offsets: tuple
    keys: tuple  # label_key of the constituent at each offset
    p: int
    dim: int  # sum of serre_weight_dim over the constituents

    @property
    def labels(self):
        return labels_of_keys(self.keys, self.p, len(self.socle.diffs))

    def __len__(self):
        return len(self.offsets)


def jh_component(rho, sigma, profile=None):
    """Constituents of the component generated by sigma.

    Offsets a run through the translation window of sigma, one-sided on the
    supported slots, subject to the budget sum_j max(floor(a_j / 2), 0) <= 1,
    in lexicographic order.  The label of a is weights.t_lambda(sigma, a, p),
    folded from per-slot tables into its label_key: r'_j depends only on
    (a_j, the parity of a_{j+1}), and the twist is sigma's plus half of
    delta_0 * (p^f - 1) + sum_j (d_j - r'_j) * p^j, where delta_0 is the
    parity of a_0.  The same tables give each constituent's dimension
    prod_j (r'_j + 1).
    """
    if profile is None:
        profile = socle_profile(rho, sigma)
    f, p = rho.f, rho.p
    ranges = []
    for d, sign in zip(sigma.diffs, profile.signs):
        # the budget admits no coordinate above 3 (floor(4 / 2) = 2 > 1)
        top = min(p - 1 - d, 4)
        if sign == 1:
            ranges.append(range(-d, 1))
        elif sign == -1:
            ranges.append(range(0, top))
        else:
            ranges.append(range(-d, top))
    offsets = _admitted_offsets(ranges)
    keys, dim = (), 0
    if offsets:
        # every value of every range occurs in some admitted offset, so the
        # tables check the window exactly where t_lambda would
        tables = [_slot_table(d, rng, j, p) for j, (d, rng) in enumerate(zip(sigma.diffs, ranges))]
        digits, factors = [], []
        for j, table in enumerate(tables):
            k = (j + 1) % f
            entries = [table[a[j]][a[k] & 1] for a in offsets]
            digits.append(map(itemgetter(0), entries))
            factors.append(map(itemgetter(1), entries))
        # with D and R the diffs of sigma and of the label read as base-p
        # numbers, 2 * twist = 2 * sigma.twist + delta_0 * m + D - R mod 2m;
        # the right side is even: for odd p it is sum_j a_j + #{j : a_j odd}
        # mod 2, and at p = 2 the window admits only the zero offset
        m = p**f - 1
        base = 2 * sigma.twist + sum(d * p**j for j, d in enumerate(sigma.diffs))
        keys = tuple(
            [
                (base + (a[0] & 1) * m - r) // 2 % m + m * r
                for a, r in zip(offsets, map(sum, zip(*digits)))
            ]
        )
        dim = sum(map(prod, zip(*factors)))
    return ComponentStructure(
        socle=sigma, profile=profile, offsets=offsets, keys=keys, p=p, dim=dim
    )


def _admitted_offsets(ranges):
    """The offsets in the product of the ascending ranges that the budget
    admits, in lexicographic order: every coordinate is at most 1, or
    exactly one lies in {2, 3}.

    Built from the last slot back: an admitted suffix starts with a value
    <= 1 followed by an admitted suffix, or with a value in {2, 3} followed
    by a suffix of values <= 1, and every value <= 1 sorts before {2, 3}.
    """
    admitted, low_only = [()], [()]
    for rng in reversed(ranges):
        low = [w for w in rng if w <= 1]
        high = [w for w in rng if w > 1]
        admitted = [(w,) + s for w in low for s in admitted] + [
            (w,) + s for w in high for s in low_only
        ]
        low_only = [(w,) + s for w in low for s in low_only]
    return tuple(admitted)


def _slot_table(d, rng, j, p):
    """Slot j of the label fold at base difference d: for each offset w in
    rng, the pairs (r'_j * p^j, r'_j + 1) when the offset at slot j + 1 is
    even and when it is odd (the two cases of weights.t_lambda): slot j's
    base-p digit of the label's diffs, and its factor of serre_weight_dim."""
    pj = p**j
    table = {}
    for w in rng:
        if not 0 <= d + w <= p - 2:
            raise PreconditionError(
                "graph point %d at slot %d is outside the window of base difference %d" % (w, j, d)
            )
        table[w] = tuple((r * pj, r + 1) for r in (d + w, p - 2 - d - w))
    return table


def one_step_down(a):
    """Offsets obtained by moving one coordinate a single step toward 0."""
    out = []
    for j, aj in enumerate(a):
        if aj:
            step = list(a)
            step[j] = aj - (1 if aj > 0 else -1)
            out.append(tuple(step))
    return out


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


def d0_checks(rho):
    """Run the structural checks over every component of the profile.

    Constituents are compared by label_key, counted once over all
    components; the weight set is computed once and handed to each
    socle_profile.
    """
    wlabels = serre_weights(rho).labels()
    wset = set(wlabels)
    comps = tuple(
        jh_component(rho, lab, profile=socle_profile(rho, lab, wset)) for lab in wlabels
    )
    zero = (0,) * rho.f
    # before the key count, so that its offset sets and the count are never
    # held at the same time
    downward_closed = all(_downward_closed(c.offsets, rho.f) for c in comps)

    counts = Counter(itertools.chain.from_iterable(c.keys for c in comps))
    globally_multiplicity_free = len(counts) == sum(len(c.keys) for c in comps)
    # a repeat inside a component is a repeat overall
    per_component_distinct = globally_multiplicity_free or all(
        len(set(c.keys)) == len(c.keys) for c in comps
    )
    wkeys = {label_key(w, rho.p) for w in wlabels}
    socle_keys = [label_key(c.socle, rho.p) for c in comps]
    at_zero = [c.keys[c.offsets.index(zero)] for c in comps]
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


def _downward_closed(offsets, f):
    """Moving any offset one step toward zero in one coordinate gives an
    offset again (a zero coordinate stays, giving the offset itself)."""
    have = set(offsets)
    columns = [list(map(itemgetter(j), offsets)) for j in range(f)]
    for j, col in enumerate(columns):
        toward_zero = {x: x - 1 if x > 0 else x + 1 if x < 0 else 0 for x in set(col)}
        stepped = zip(*columns[:j], map(toward_zero.__getitem__, col), *columns[j + 1 :])
        if not have.issuperset(stepped):
            return False
    return True


def serre_weight_dim(label):
    """Dimension of the irreducible with the given highest-weight gaps."""
    out = 1
    for d in label.diffs:
        out *= d + 1
    return out
