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


def socle_profile(rho, sigma):
    """Signed support of sigma inside the weight set: the unique choice of
    per-slot signs whose one-sided translations of sigma generate exactly
    the weight set of the profile."""
    weights = serre_weights(rho)
    wlabels = set(weights.labels())
    if sigma not in wlabels:
        raise ConfigError("weight %r is not in the weight set of the profile" % (sigma,))
    f, p = rho.f, rho.p
    matches = []
    for cand in itertools.product((0, 1, -1), repeat=f):
        opts = [(0,) if c == 0 else (0, c) for c in cand]
        try:
            generated = {t_lambda(sigma, om, p) for om in itertools.product(*opts)}
        except PreconditionError:
            continue
        if generated == wlabels:
            matches.append(cand)
    if len(matches) != 1:
        raise InternalCheckError(
            "expected a unique signed support for %r, found %d" % (sigma, len(matches))
        )
    profile = SocleProfile(matches[0])
    if len(profile.support) != rho.zero_count():
        raise InternalCheckError("signed support size != number of vanishing parameters")
    return profile


@dataclass(frozen=True)
class ComponentStructure:
    socle: object
    profile: SocleProfile
    offsets: tuple
    labels: tuple

    def __len__(self):
        return len(self.offsets)


def jh_component(rho, sigma, profile=None):
    """Constituents of the component generated by sigma.

    Offsets a run through the translation window of sigma, one-sided on the
    supported slots, subject to the budget sum_j max(floor(a_j / 2), 0) <= 1.
    """
    if profile is None:
        profile = socle_profile(rho, sigma)
    f, p = rho.f, rho.p
    diffs = sigma.diffs
    ranges = []
    for j in range(f):
        sign = profile.signs[j]
        # the budget admits no coordinate above 3 (floor(4 / 2) = 2 > 1)
        top = min(p - 1 - diffs[j], 4)
        if sign == 1:
            ranges.append(range(-diffs[j], 1))
        elif sign == -1:
            ranges.append(range(0, top))
        else:
            ranges.append(range(-diffs[j], top))
    # product over ascending ranges yields the offsets in lexicographic order
    offsets = [
        a
        for a in itertools.product(*ranges)
        if sum(max(aj // 2, 0) for aj in a) <= 1
    ]
    labels = tuple(t_lambda(sigma, a, p) for a in offsets)
    return ComponentStructure(socle=sigma, profile=profile, offsets=tuple(offsets), labels=labels)


def offset_below(b, a):
    """Partial order on offsets: b lies between zero and a componentwise."""
    return all(0 <= bj <= aj or aj <= bj <= 0 for bj, aj in zip(b, a))


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
    """Run the structural checks over every component of the profile."""
    weights = serre_weights(rho)
    wlabels = set(weights.labels())
    comps = tuple(jh_component(rho, lab) for lab in weights.labels())

    per_component_distinct = all(len(set(c.labels)) == len(c.labels) for c in comps)

    zero = (0,) * rho.f
    hits = []
    for c in comps:
        for a, lab in zip(c.offsets, c.labels):
            if lab in wlabels:
                hits.append((c.socle, a, lab))
    weight_set_only_socles = Counter(lab for _s, _a, lab in hits) == Counter(wlabels) and all(
        a == zero and socle == lab for socle, a, lab in hits
    )

    socles = set()
    for c in comps:
        socles.add(c.labels[c.offsets.index(zero)])
    socles_match = socles == wlabels

    downward_closed = True
    for c in comps:
        have = set(c.offsets)
        for a in c.offsets:
            if not set(one_step_down(a)) <= have:
                downward_closed = False
                break
        if not downward_closed:
            break

    total = sum(len(c.labels) for c in comps)
    globally_multiplicity_free = len({lab for c in comps for lab in c.labels}) == total

    return D0Report(
        components=comps,
        per_component_distinct=per_component_distinct,
        weight_set_only_socles=weight_set_only_socles,
        socles_match=socles_match,
        downward_closed=downward_closed,
        globally_multiplicity_free=globally_multiplicity_free,
    )


def serre_weight_dim(label):
    """Dimension of the irreducible with the given highest-weight gaps."""
    out = 1
    for d in label.diffs:
        out *= d + 1
    return out
