"""Weight and extended-Weyl-element combinatorics for GL2 over an unramified
base with f embeddings.

A Weight is a tuple of f integer pairs (lam_{j,1}, lam_{j,2}).  An extended
Weyl element component is written in the canonical form w = s t_nu, with
s in {0, 1} (1 = the nontrivial swap) and nu an integer pair; compositions
renormalize through s t_nu = t_{s(nu)} s.  An admissible element is its
tuple of f indices over {1, 2, 3}, index k standing for the component
ADM_COMPONENTS[k].
"""

import itertools
from dataclasses import dataclass

from .errors import ConfigError, PreconditionError


def s_apply(s, pair):
    return (pair[1], pair[0]) if s else (pair[0], pair[1])


def s_sign(s):
    return -1 if s else 1


# ---------------------------------------------------------------------------
# weight classification


@dataclass(frozen=True)
class WeightClass:
    dominant: bool
    p_restricted: bool
    regular: bool
    depth: object  # int when regular, else None


def pair_gap(pair):
    return pair[0] - pair[1]


def classify_weight(lam, p):
    """Dominance / p-restriction / regularity and depth of a Weight.

    depth = min_j min(gap_j, p - 2 - gap_j) where gap_j = lam_{j,1} - lam_{j,2};
    it is only defined (non-None) for regular weights.
    """
    gaps = [pair_gap(pair) for pair in lam]
    dominant = all(g >= 0 for g in gaps)
    p_restricted = all(0 <= g <= p - 1 for g in gaps)
    regular = all(0 <= g <= p - 2 for g in gaps)
    depth = min(min(g, p - 2 - g) for g in gaps) if regular else None
    return WeightClass(dominant, p_restricted, regular, depth)


# ---------------------------------------------------------------------------
# extended Weyl elements and the admissible set

# canonical (s, nu) forms of the three admissible components, indexed 1..3
ADM_COMPONENTS = {
    1: (0, (2, 1)),
    2: (1, (2, 1)),
    3: (0, (1, 2)),
}
_ADM_INDEX = {v: k for k, v in ADM_COMPONENTS.items()}
_ADM_NAMES = {1: "t(2,1)", 2: "w*t(2,1)", 3: "t(1,2)"}


def check_adm_index(idx):
    """The index tuple idx, after checking that every index is 1, 2 or 3."""
    idx = tuple(idx)
    if not all(i in ADM_COMPONENTS for i in idx):
        raise ConfigError("admissible indices are 1, 2, 3; got %r" % (idx,))
    return idx


def adm_name(idx):
    """Printable form of an admissible element, e.g. "(t(2,1), w*t(2,1))"."""
    return "(" + ", ".join(_ADM_NAMES[i] for i in idx) + ")"


def star(parts):
    """Star of an element given as f canonical (s, nu) components: component
    j of the result is t_{nu_k} s_k^{-1} for k = f-1-j, renormalized to
    canonical form (s_k, s_k(nu_k))."""
    return tuple((s, s_apply(s, nu)) for s, nu in reversed(parts))


# adm_set lists at most this many elements, f <= 10 (`gl2kisin adm --f 10`
# takes about 3 s and 160 MiB on a 2-vCPU Xeon); a larger f raises
# PreconditionError.
MAX_ADM_ELEMENTS = 3**10


def adm_set(f):
    """All 3^f admissible elements, lexicographic in the index tuples."""
    if f < 0:
        raise ConfigError("f must be >= 0, got %d" % f)
    if 3**f > MAX_ADM_ELEMENTS:
        raise PreconditionError(
            "the admissible set at f = %d has 3^%d elements, above the cap of %d"
            % (f, f, MAX_ADM_ELEMENTS)
        )
    return list(itertools.product((1, 2, 3), repeat=f))


# ---------------------------------------------------------------------------
# the extension-graph labelling


@dataclass(frozen=True)
class SerreWeightLabel:
    """Complete invariant of an irreducible GL2(k) weight: the per-component
    differences and the determinant twist mod p^f - 1."""

    diffs: tuple
    twist: int


def make_label(diffs, twist, p):
    f = len(diffs)
    return SerreWeightLabel(tuple(int(d) for d in diffs), twist % (p ** f - 1))


def _graph_data(diffs, omega, p):
    f = len(diffs)
    for r, w in zip(diffs, omega):
        if not 0 <= r + w <= p - 2:
            raise PreconditionError(
                "graph point %r is outside the window of base %r" % (tuple(omega), tuple(diffs))
            )
    delta = [w % 2 for w in omega]
    rprime = []
    for j in range(f):
        if delta[(j + 1) % f] == 0:
            rprime.append(diffs[j] + omega[j])
        else:
            rprime.append(p - 2 - diffs[j] - omega[j])
    num = delta[0] * (p ** f - 1) + sum((diffs[j] - rprime[j]) * p ** j for j in range(f))
    if num % 2:
        raise PreconditionError("graph twist is not integral")  # unreachable for valid input
    return tuple(rprime), num // 2


def t_lambda(base, omega, p):
    """Graph labelling at a general base label: the difference formula is
    applied to base.diffs and the twist accumulates."""
    rprime, e = _graph_data(base.diffs, omega, p)
    return make_label(rprime, base.twist + e, p)
