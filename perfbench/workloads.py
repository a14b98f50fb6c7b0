"""Seeded inputs and checked items for each benchmark workload.

A workload is a list of rounds and a round is a list of items.  Every round
has the same mix of item kinds, so any whole number of rounds has the same
mix and the latency percentiles sit at fixed places in it.  All inputs are
built here, before timing starts; an item only runs the package and checks
its answer on a second code path.  An item returns the bytes it wants hashed
(the CLI reports) or None, and raises CheckFailed on a wrong answer.
"""

import contextlib
import io
import itertools
import json
import os
import random
import warnings

from gl2kisin import cli, kisin, oracles, tangent
from gl2kisin.fields import GF
from gl2kisin.laurent import Laurent
from gl2kisin.matrices import Mat2
from gl2kisin.rho import RhoBar
from gl2kisin.weights import ADM_COMPONENTS

NAMES = ("classify", "classify_ext", "rigidity", "profile")

# Rounds in the pool, which the timed phase cycles through.  The classify
# and rigidity pools are large so that a run averages over many distinct
# inputs, which keeps the latency percentiles from resting on a few draws;
# the profile pool is small so that a run repeats it and compares report
# digests.
POOL_ROUNDS = {"classify": 200, "classify_ext": 150, "rigidity": 16, "profile": 6}
# Leading rounds of the pool that one traced pass runs.
TRACE_ROUNDS = {"classify": 40, "classify_ext": 15, "rigidity": 4, "profile": 6}


class CheckFailed(Exception):
    """An item's answer disagreed with its second code path."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# inputs


def gauge_rows(field, alpha, beta, a):
    """The three single-slot gauge families of acceptance criterion 1."""
    mono = Laurent.monomial
    z = Laurent.zero(field)
    r1 = Mat2(field, mono(field, alpha, 2), z, mono(field, alpha * a, 2), mono(field, beta, 1))
    r2 = Mat2(field, z, mono(field, alpha, 1), mono(field, beta, 2), mono(field, alpha * a, 1))
    r3 = Mat2.diagonal(field, mono(field, alpha, 1), mono(field, beta, 2))
    return r1, r2, r3


def random_series_matrix(field, rng):
    """Invertible matrix with entries in degrees -3..4 (negative valuation)."""
    while True:
        entries = [Laurent(field, {d: field.random(rng) for d in range(-3, 5)}) for _ in range(4)]
        M = Mat2(field, *entries)
        if M.det():
            return M


def deep_profile(rng, p, f, zeros=(), irreducible=False):
    """Strict-mode profile with r drawn from the deep window [12, p-13), in
    the draw order of the test suite's random_profile(deep=True); zeros are
    the positions i of a that vanish."""
    F = GF(p)
    zeros = set(range(f)) if irreducible else set(zeros)
    a = tuple(F(0) if i in zeros else F.random_unit(rng) for i in range(f))
    return RhoBar(
        p=p,
        f=f,
        r=tuple(rng.randrange(12, p - 13) for _ in range(f)),
        a=a,
        alpha=tuple(F.random_unit(rng) for _ in range(f)),
        beta=tuple(F.random_unit(rng) for _ in range(f)),
        irreducible=irreducible,
        mode="strict",
    )


def zero_patterns(f):
    return list(itertools.chain.from_iterable(itertools.combinations(range(f), k) for k in range(f + 1)))


# ---------------------------------------------------------------------------
# items


def gauge_item(mats, a_is_zero):
    """shape_of against the known admissible index of each gauge row, plus
    gauge_check against the row's own component."""
    expect = (1, 2 if a_is_zero else 1, 3)
    for gauge_idx, (M, shape_idx) in enumerate(zip(mats, expect), 1):
        _require(kisin.shape_of(M).adm_index() == shape_idx, "gauge row %d shape" % gauge_idx)
        _require(kisin.gauge_check(M, ADM_COMPONENTS[gauge_idx]), "gauge row %d check" % gauge_idx)


def window_item(M):
    """shape_of certified by the exhaustive coset witness search."""
    component = kisin.shape_of(M).component()
    _require(oracles.coset_certify(M, component, 4), "coset_certify rejected %r" % (component,))


def series_item(M, det_val):
    """shape_of at negative valuation: the witness product reproduces the
    monomial and nu1 + nu2 equals the determinant valuation."""
    sh = kisin.shape_of(M)
    _require(sh.verify(M), "witness product")
    _require(sh.nu[0] + sh.nu[1] == det_val, "nu does not match det valuation")


def rigidity_item(rho):
    system = tangent.assemble_system(rho)
    report = tangent.solve_claim(system)
    _require(report.injective and report.m_kernel_dim == 1, "kernel shape")
    _require(all(tangent.consequence_report(report).values()), "consequences")
    _require(tangent.residual_check(report), "residual")
    low, high, stable = tangent.stability_check(rho)
    _require(stable and low.injective and high.injective, "stability")
    relaxed = tangent.solve_claim(system.without(("pin", "p21_0")))
    _require(not relaxed.injective and relaxed.param_kernel_dim >= 1, "negative control")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    _require(rc == 0, "%s exited %d: %s" % (argv[0], rc, err.getvalue().strip()))
    return out.getvalue()


def profile_item(path, rho, glued_f1_length):
    """Every report command on one config; returns the stdout bytes."""
    outputs = [_run_cli([cmd, "--config", path]) for cmd in ("describe", "weights", "xset", "types")]
    kisin_text = _run_cli(["kisin", "--config", path])
    for entry in json.loads(kisin_text)["elements"]:
        _require(entry["recovery"], "recovery")
        torus = entry["torus_rigidity"]
        _require(torus["dim"] == torus["expected"], "torus rigidity dimension")
    d0_text = _run_cli(["d0", "--config", path])
    d0_report = json.loads(d0_text)
    _require(d0_report["passed"], "d0 checks")
    if glued_f1_length is not None:
        _require(d0_report["components"][0]["size"] == glued_f1_length, "glued f=1 length")
    outputs += [kisin_text, d0_text]
    if not rho.irreducible and not rho.semisimple():
        text = _run_cli(["tangent", "--config", path, "--stability"])
        rep = json.loads(text)
        _require(rep["injective"] and rep["residual_ok"], "tangent claim")
        _require(all(rep["consequences"].values()), "tangent consequences")
        _require(rep["stability"]["stable"], "tangent stability")
        outputs.append(text)
    return "".join(outputs).encode()


def direct_glued_length(rho):
    """Criterion 9's one-line enumeration of the glued f=1 component."""
    r, p = rho.r[0], rho.p
    return len([x for x in range(-r, p - 1 - r) if max(x // 2, 0) <= 1])


# ---------------------------------------------------------------------------
# pools


def _gauge(field, rng, k):
    # every fourth draw takes a = 0, the branch where row 2 changes coset
    alpha, beta = field.random_unit(rng), field.random_unit(rng)
    a = field.zero() if k % 4 == 0 else field.random_unit(rng)
    return ("gauge", gauge_item, (gauge_rows(field, alpha, beta, a), not a))


def _window(field, rng):
    M = oracles.random_truncated_invertible(field, rng, prec=4, max_det_val=3)
    return ("window4", window_item, (M,))


def _series(field, rng):
    M = random_series_matrix(field, rng)
    return ("series", series_item, (M, M.det().valuation()))


def classify_pool(rng, rounds, tick):
    gauge_fields = [GF(3), GF(5), GF(31)]
    F2, F31 = GF(2), GF(31)
    pool = []
    for k in range(rounds):
        tick()
        items = [_gauge(F, rng, k) for F in gauge_fields]
        items += [_window(F2, rng) for _ in range(3)]
        items += [_series(F31, rng) for _ in range(3)]
        pool.append(items)
    return pool


def classify_ext_pool(rng, rounds, tick):
    fields = [GF(2, 2), GF(2, 3), GF(3, 2), GF(31, 2)]
    F4 = fields[0]
    pool = []
    for k in range(rounds):
        tick()
        items = [_gauge(F, rng, 2 * k + n) for n in range(2) for F in fields]
        items += [_window(F4, rng)]
        items += [_series(F, rng) for F in fields]
        pool.append(items)
    return pool


# (f, p) of each rigidity item in a round.  With eleven items the median
# falls on the sixth costliest kind, (1, 101), rather than between two kinds;
# the two p = 101, f = 3 items fill the top sixth and set item_p90_ms.
RIGIDITY_ROUND = (
    (1, 31), (1, 37), (1, 101),
    (2, 31), (2, 31), (2, 37), (2, 101),
    (3, 31), (3, 37), (3, 101), (3, 101),
)


def rigidity_pool(rng, rounds, tick):
    seen = {}
    pool = []
    for _ in range(rounds):
        tick()
        items = []
        for f, p in RIGIDITY_ROUND:
            # non-split patterns: at least one nonzero extension parameter
            patterns = [z for z in zero_patterns(f) if len(z) < f]
            k = seen.get((f, p), 0)
            seen[(f, p)] = k + 1
            rho = deep_profile(rng, p, f, zeros=patterns[k % len(patterns)])
            items.append(("f%d_p%d" % (f, p), rigidity_item, (rho,)))
        pool.append(items)
    return pool


def profile_pool(rng, rounds, workdir, tick):
    """Each round: every f=1 and f=2 zero pattern plus the irreducible
    profile, and three of the nine f=3 kinds, at one prime; the light f=1/2
    items set item_p50_ms and the f=3 items item_p90_ms."""
    f3_kinds = [(z, False) for z in zero_patterns(3)] + [((), True)]
    pool = []
    for k in range(rounds):
        tick()
        p = (31, 37)[k % 2]
        kinds = [(1, z, False) for z in zero_patterns(1)] + [(1, (), True)]
        kinds += [(2, z, False) for z in zero_patterns(2)] + [(2, (), True)]
        start = 3 * (k // 2) % len(f3_kinds)
        kinds += [(3,) + f3_kinds[(start + n) % len(f3_kinds)] for n in range(3)]
        items = []
        for f, zeros, irreducible in kinds:
            rho = deep_profile(rng, p, f, zeros=zeros, irreducible=irreducible)
            path = os.path.join(workdir, "profile_%d_%d.json" % (k, len(items)))
            with open(path, "w") as fh:
                json.dump(rho.to_config(), fh)
            glued = direct_glued_length(rho) if f == 1 and not rho.semisimple() else None
            items.append(("f%d" % f, profile_item, (path, rho, glued)))
        pool.append(items)
    return pool


def build(name, seed, workdir, tick):
    """The seeded pool of rounds for one workload; tick() is called before
    each round is built, so the caller can sample the host speed."""
    warnings.filterwarnings("ignore", message="permissive profile")
    rng = random.Random("%s:%d" % (name, seed))
    rounds = POOL_ROUNDS[name]
    if name == "classify":
        return classify_pool(rng, rounds, tick)
    if name == "classify_ext":
        return classify_ext_pool(rng, rounds, tick)
    if name == "rigidity":
        return rigidity_pool(rng, rounds, tick)
    if name == "profile":
        return profile_pool(rng, rounds, workdir, tick)
    raise ValueError("unknown workload %r" % (name,))
