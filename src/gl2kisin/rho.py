"""The local profile rho: exponents r, extension parameters a, units alpha and
beta, reducible/irreducible flag — plus the weight set W(rho), the exclusion
pattern theta, the allowed shape sets X(sigma) / X(rho), and inertial-type
presentations attached to admissible elements, composed slot by slot:
slot j of a presentation depends on the profile and the element's index at
position f-1-j alone (type_part).

A profile holds a, alpha and beta as residues of its field (fields.py), as
Laurent terms do.  Index conventions (kept in ONE place because they are the
most error-prone part of the subject): the matrix with superscript (i) uses
alpha_j, beta_j, r_j and a_i for i = f-1-j, and the weight-set slot b_j is
paired with a_{f-1-j}.  RhoBar.slot_coeffs is the one place that pairs slot j
with a_{f-1-j}; the free slots, the pivot slot, the profile and gauge-form
matrices and the rigidity system all read it.
"""

import itertools
import warnings
from dataclasses import dataclass

from .errors import ConfigError, InternalCheckError, PreconditionError
from .fields import FiniteField
from .weights import (
    ADM_COMPONENTS,
    adm_set,
    check_adm_index,
    classify_weight,
    make_label,
    s_apply,
    s_sign,
    star,
    t_lambda,
)

STRICT_MIN_DEPTH = 12


def _is_int(value):
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


class RhoBar:
    """Validated profile (p, f, r, a, alpha, beta, irreducible, mode).

    a, alpha and beta take anything field.residue does (elements, ints,
    coefficient tuples) and are stored as residues.  slot_coeffs[j] =
    (alpha_j, alpha_j a_{f-1-j}, beta_j) holds the residues of slot j's
    coefficient matrix [[alpha_j, 0], [alpha_j a_{f-1-j}, beta_j]].

    mode "strict" additionally requires the difference weight to be at least
    12-deep (the hypothesis under which the structural guarantees hold); mode
    "permissive" allows any 0 <= r_j <= p-2 and emits a warning, since the
    combinatorial formulas remain well-defined.
    """

    __slots__ = ("p", "f", "r", "a", "alpha", "beta", "irreducible", "mode", "field", "slot_coeffs")

    def __init__(self, p, f, r, a, alpha, beta, irreducible=False, mode="strict", field=None):
        if field is None:
            field = FiniteField(p)
        if field.p != p:
            raise ConfigError("field characteristic %d does not match p=%d" % (field.p, p))
        if mode not in ("strict", "permissive"):
            raise ConfigError("mode must be 'strict' or 'permissive'")
        if f < 1:
            raise ConfigError("f must be >= 1")
        r = tuple(int(x) for x in r)
        if not (len(r) == f and len(a) == f and len(alpha) == f and len(beta) == f):
            raise ConfigError("r, a, alpha, beta must all have length f=%d" % f)
        a = tuple(map(field.residue, a))
        alpha = tuple(map(field.residue, alpha))
        beta = tuple(map(field.residue, beta))
        if not (all(alpha) and all(beta)):
            raise ConfigError("alpha_j and beta_j must be nonzero units")
        if irreducible and any(a):
            raise ConfigError("irreducible profiles carry no extension parameters (a must be 0)")
        for x in r:
            if not 0 <= x <= p - 2:
                raise ConfigError("r_j must satisfy 0 <= r_j <= p-2; got %d" % x)
        self.p = p
        self.f = f
        self.r = r
        self.a = a
        self.alpha = alpha
        self.beta = beta
        self.irreducible = bool(irreducible)
        self.mode = mode
        self.field = field
        # alpha_j is a unit, so alpha_j a_{f-1-j} vanishes exactly when a_{f-1-j} does
        self.slot_coeffs = tuple(
            (alpha[j], field.mul(alpha[j], a[f - 1 - j]), beta[j]) for j in range(f)
        )
        if mode == "strict":
            if self.depth() < STRICT_MIN_DEPTH:
                raise PreconditionError(
                    "strict mode requires depth >= %d (got %d); "
                    "use permissive mode for shallow profiles" % (STRICT_MIN_DEPTH, self.depth())
                )
        else:
            warnings.warn(
                "permissive profile: the structural guarantees assume depth >= %d, "
                "only the combinatorial formulas are guaranteed" % STRICT_MIN_DEPTH,
                stacklevel=2,
            )

    # -- basic structure ----------------------------------------------------

    def semisimple(self):
        return not any(self.a)

    def zero_count(self):
        return sum(1 for x in self.a if not x)

    def free_slots(self):
        """Slots j whose weight-set coordinate b_j is unconstrained, i.e.
        a_{f-1-j} = 0."""
        return tuple(j for j, (_, a21, _) in enumerate(self.slot_coeffs) if not a21)

    def base_weight(self):
        """The difference weight, components (r_j, 0)."""
        return tuple((rj, 0) for rj in self.r)

    def depth(self):
        cls = classify_weight(self.base_weight(), self.p)
        return cls.depth if cls.depth is not None else -1

    def s_component(self, j):
        """S2-element of the profile's presentation at component j."""
        return 1 if (self.irreducible and j == 0) else 0

    def semisimplification(self):
        if self.semisimple():
            return self
        return RhoBar(
            self.p,
            self.f,
            self.r,
            (0,) * self.f,
            self.alpha,
            self.beta,
            irreducible=False,
            mode=self.mode,
            field=self.field,
        )

    def to_config(self):
        cfg = {
            "p": self.p,
            "f": self.f,
            "r": list(self.r),
            "a": list(self.a),
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "irreducible": self.irreducible,
            "mode": self.mode,
        }
        if self.field.degree > 1:
            cfg["field_degree"] = self.field.degree
            cfg["field_modulus"] = list(self.field.modulus)
        return cfg

    @classmethod
    def from_config(cls, cfg):
        try:
            p, f, r, a, alpha, beta = (cfg[k] for k in ("p", "f", "r", "a", "alpha", "beta"))
        except (KeyError, TypeError) as exc:
            raise ConfigError("config is missing required fields: %s" % exc)
        degree = cfg.get("field_degree", 1)
        irreducible = cfg.get("irreducible", False)
        for name, value in (("p", p), ("f", f), ("field_degree", degree)):
            if not _is_int(value):
                raise ConfigError("%s must be an integer, got %r" % (name, value))
        modulus = cfg.get("field_modulus")
        lists = {"r": r, "a": a, "alpha": alpha, "beta": beta}
        if modulus is not None:
            lists["field_modulus"] = modulus
        for name, value in lists.items():
            if not isinstance(value, list):
                raise ConfigError("%s must be a list, got %r" % (name, value))
            if not all(_is_int(x) for x in value):
                raise ConfigError("%s must hold integers, got %r" % (name, value))
        if not isinstance(irreducible, bool):
            raise ConfigError("irreducible must be true or false, got %r" % (irreducible,))
        field = FiniteField(p, degree, tuple(modulus) if modulus else None)
        return cls(
            p,
            f,
            r,
            a,
            alpha,
            beta,
            irreducible=irreducible,
            mode=cfg.get("mode", "strict"),
            field=field,
        )

    def __repr__(self):
        return "RhoBar(p=%d, f=%d, r=%r, %s, %s)" % (
            self.p,
            self.f,
            self.r,
            "irreducible" if self.irreducible else "reducible",
            self.mode,
        )


# ---------------------------------------------------------------------------
# inertia exponents


@dataclass(frozen=True)
class InertiaData:
    level: int
    exponent: int
    twist_exponent: int


def inertia_exponents(rho):
    """Fundamental-character exponent data of the restriction to inertia:
    exponent = sum (r_j + 1) p^j mod (p^level - 1), level = f or 2f."""
    level = 2 * rho.f if rho.irreducible else rho.f
    modulus = rho.p ** level - 1
    exponent = sum((rho.r[j] + 1) * rho.p ** j for j in range(rho.f)) % modulus
    return InertiaData(level=level, exponent=exponent, twist_exponent=1)


# ---------------------------------------------------------------------------
# the weight set W(rho)


@dataclass(frozen=True)
class SerreWeightSet:
    entries: tuple  # of (b_vector, SerreWeightLabel)

    def labels(self):
        return [label for _, label in self.entries]

    def __len__(self):
        return len(self.entries)


def _base_label(rho):
    # the difference weight has diffs r_j and a central part contributing
    # sum p^j to the twist
    return make_label(rho.r, sum(rho.p ** j for j in range(rho.f)), rho.p)


# serre_weights lists at most 2^16 b-vectors, 16 free slots (an all-split f=16,
# p=101 `weights` takes about 2.2-3.2 s and 132 MiB peak RSS, in-process on a
# 2-vCPU Xeon with Python 3.11); more raise PreconditionError before anything
# is enumerated.
MAX_WEIGHTS = 2**16


def weight_count(rho):
    """Size of the weight set, 2^(free slots), without building it.

    Checks what serre_weights needs before it enumerates: the cap, and
    t_lambda's window r_j + b_j in [0, p - 2] for both b-values of each free
    slot.  A failure names the b-vector that serre_weights' product order
    meets first: the one moving only the last failing slot (r_j itself is
    in the window, by the profile's validation)."""
    free = rho.free_slots()
    if 2 ** len(free) > MAX_WEIGHTS:
        raise PreconditionError(
            "the weight set has 2^%d elements, above the cap of %d" % (len(free), MAX_WEIGHTS)
        )
    for j in reversed(free):
        for bj in (0, s_sign(rho.s_component(j))):
            if not 0 <= rho.r[j] + bj <= rho.p - 2:
                b = (0,) * j + (bj,) + (0,) * (rho.f - 1 - j)
                raise PreconditionError(
                    "graph point %r is outside the window of base %r" % (b, rho.r)
                )
    return 2 ** len(free)


def serre_weights(rho):
    """The weight set: b_j ranges over {0, sgn(s_j)} on free slots and is 0
    elsewhere; each b is labelled through the extension graph at the base
    difference weight.  weight_count checks the cap and the window first."""
    weight_count(rho)
    free = rho.free_slots()
    options = [(0, s_sign(rho.s_component(j))) if j in free else (0,) for j in range(rho.f)]
    base = _base_label(rho)
    return SerreWeightSet(tuple((b, t_lambda(base, b, rho.p)) for b in itertools.product(*options)))


def _pattern(b):
    # position f-1-j of the exclusion pattern, read from b_j
    return tuple(3 if bj == 0 else 1 for bj in reversed(b))


def theta(rho, b):
    """Exclusion pattern of a weight given by its b-vector: position f-1-j
    carries index 3 (translation by (1,2)) when b_j = 0 and index 1
    (translation by (2,1)) when b_j != 0."""
    b = tuple(b)
    if b not in [bv for bv, _ in serre_weights(rho).entries]:
        raise PreconditionError("b-vector %r is not in the weight set" % (b,))
    return _pattern(b)


def x_sigma(rho, b):
    """Admissible elements avoiding the exclusion pattern of the weight at
    every position; always of size 2^f."""
    pattern = theta(rho, b)
    return [w for w in adm_set(rho.f) if all(i != t for i, t in zip(w, pattern))]


def w_in_x_rho(rho, w):
    return all(not (rho.a[pos] and w[pos] == 3) for pos in range(rho.f))


def x_rho(rho):
    """Admissible elements compatible with the zero-pattern of a: position i
    must avoid index 3 whenever a_i != 0.  Also asserts the defining identity
    that this set is the union of x_sigma over the weight set, computed from
    one weight set: the admissible set is all of {1, 2, 3}^f, so each
    x_sigma is the product over positions of the indices its exclusion
    pattern leaves there, 2^f elements, and the union costs 4^f in all."""
    out = [w for w in adm_set(rho.f) if w_in_x_rho(rho, w)]
    union = set()
    for bv, _ in serre_weights(rho).entries:
        union.update(itertools.product(*[[i for i in (1, 2, 3) if i != t] for t in _pattern(bv)]))
    if union != set(out):
        raise InternalCheckError("x_rho does not match the union of the x_sigma")
    return out


# ---------------------------------------------------------------------------
# inertial-type presentations


@dataclass(frozen=True)
class TypePresentation:
    wtilde: tuple  # f indices over {1, 2, 3}
    s_tau: tuple  # f S2-elements (0/1)
    mu_tau: tuple  # Weight
    mu_plus_eta: tuple  # Weight, = mu_tau + (1, 0) componentwise
    generic_depth: int


# cells of the presentation table: keys (nu', w, s) with nu' the left
# translation part and w the S2 part of the starred component, s the
# profile's S2 element; value True means the (r_j, 0) row.
_TABLE_A = {((2, 1), 0, 0), ((2, 1), 1, 1), ((1, 2), 0, 1)}
_TABLE_B = {((2, 1), 0, 1), ((2, 1), 1, 0), ((1, 2), 0, 0)}


def type_part(rho, j, k):
    """Slot j of the type presentation of any element whose index at
    position f-1-j is k: the pair (s_tau_j, mu_tau_j + eta_j).

    The star sends that position's component to slot j.  Write the starred
    component in left-translation form t_nu' w, read (mu_plus_eta)_j from the
    two-row table keyed by (nu', w, s_j), and set s_tau_j = s_j * w^{-1}.
    """
    ((w_part, nu_comp),) = star([ADM_COMPONENTS[k]])
    s_j = rho.s_component(j)
    key = (s_apply(w_part, nu_comp), w_part, s_j)
    if key in _TABLE_A:
        mu_plus_eta = (rho.r[j], 0)
    elif key in _TABLE_B:
        mu_plus_eta = (rho.r[j] + 1, -1)
    else:  # pragma: no cover - the six cells cover all canonical inputs
        raise InternalCheckError("presentation table has no cell for %r" % (key,))
    return s_j ^ w_part, mu_plus_eta


def compose_type(rho, wtilde, parts):
    """Type presentation of the index tuple wtilde from its f slot parts,
    parts[j] = type_part(rho, j, wtilde[f-1-j])."""
    mu_plus_eta = tuple(mu for _, mu in parts)
    mu_tau = tuple((x1 - 1, x2) for x1, x2 in mu_plus_eta)
    depth = classify_weight(mu_tau, rho.p).depth
    return TypePresentation(
        wtilde=wtilde,
        s_tau=tuple(s for s, _ in parts),
        mu_tau=mu_tau,
        mu_plus_eta=mu_plus_eta,
        generic_depth=depth if depth is not None else -1,
    )


def tau_presentation(rho, wtilde):
    """Type presentation attached to an admissible element, given by its
    index tuple: slot j is type_part at the index in position f-1-j."""
    wtilde = check_adm_index(wtilde)
    f = rho.f
    if len(wtilde) != f:
        raise ConfigError("admissible element has %d components, profile has f=%d" % (len(wtilde), f))
    return compose_type(rho, wtilde, [type_part(rho, j, wtilde[f - 1 - j]) for j in range(f)])
