"""Command-line interface.

Every command reads an optional JSON profile config and emits one JSON
report on stdout (or --out).  Exit codes: 0 success, 1 bad configuration,
2 precondition violated, 3 internal invariant failed or any other
unexpected error.
"""

import argparse
import functools
import json
import os
import random
import re
import sys
import warnings

from . import d0 as d0_mod
from . import serial
from . import tangent as tangent_mod
from .errors import ConfigError, InternalCheckError, PreconditionError
from .fields import GF
from .kisin import (
    etale_matrices,
    gauge_check,
    height_checks,
    require_allowed,
    shape_of,
    slot_matrix,
    slot_recovers,
    torus_dims,
    torus_slot_rows,
)
from .matrices import Mat2
from .laurent import Laurent
from .oracles import coset_certify, random_truncated_invertible
from .rho import (
    RhoBar,
    _is_int,
    compose_type,
    inertia_exponents,
    serre_weights,
    tau_presentation,
    type_part,
    weight_count,
    x_rho,
    x_sigma,
)
from .weights import ADM_COMPONENTS, adm_name, adm_set, check_adm_index


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _load_config(args):
    if not args.config:
        raise ConfigError("this command needs --config pointing at a profile JSON")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object, got %r" % (cfg,))
    if args.mode:
        cfg = dict(cfg, mode=args.mode)
    return cfg


def _load_rho(args):
    return RhoBar.from_config(_load_config(args))


def _config_int(cfg, name, default=None):
    # an integer field of the config, by the rule of RhoBar.from_config
    if name not in cfg and default is None:
        raise ConfigError("config is missing required field %r" % name)
    value = cfg.get(name, default)
    if not _is_int(value):
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    return value


def _seed(args, cfg):
    if args.seed is not None:
        return args.seed
    return _config_int(cfg, "seed", 0) if cfg else 0


def _parse_ints(text, what):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError("%s must be comma-separated integers, got %r" % (what, text))


def _parse_wtilde(rho, text):
    idx = _parse_ints(text, "--wtilde")
    if len(idx) != rho.f:
        raise ConfigError("--wtilde needs %d components" % rho.f)
    return check_adm_index(idx)


# ---------------------------------------------------------------------------
# commands


def cmd_describe(args):
    rho = _load_rho(args)
    inert = inertia_exponents(rho)
    out = rho.to_config()
    out.update(
        {
            "semisimple": rho.semisimple(),
            "zero_count": rho.zero_count(),
            "free_slots": rho.free_slots(),
            "depth": rho.depth(),
            "weight_count": weight_count(rho),
            "inertia": {
                "level": inert.level,
                "exponent": inert.exponent,
                "twist_exponent": inert.twist_exponent,
            },
        }
    )
    return out


def cmd_weights(args):
    rho = _load_rho(args)
    ws = serre_weights(rho)
    return {
        "count": len(ws),
        "entries": [{"b": b, "label": label} for b, label in ws.entries],
    }


def cmd_adm(args):
    if args.config:
        rho = _load_rho(args)
        f = rho.f
    elif args.f is not None:
        f = args.f
    else:
        raise ConfigError("adm needs --config or --f")
    elements = adm_set(f)
    return {
        "f": f,
        "count": len(elements),
        "elements": [{"index": w, "name": adm_name(w)} for w in elements],
    }


def cmd_xset(args):
    rho = _load_rho(args)
    xs = x_rho(rho)
    out = {"x_rho": xs, "count": len(xs)}
    if args.sigma:
        b = _parse_ints(args.sigma, "--sigma")
        if len(b) != rho.f or any(bj not in (-1, 0, 1) for bj in b):
            raise ConfigError("--sigma needs %d values in {-1, 0, 1}" % rho.f)
        out["sigma_b"] = b
        out["x_sigma"] = x_sigma(rho, b)
    return out


def _type_entry(pres):
    return {
        "index": pres.wtilde,
        "s_tau": pres.s_tau,
        "mu_tau": pres.mu_tau,
        "mu_plus_eta": pres.mu_plus_eta,
        "generic_depth": pres.generic_depth,
    }


def cmd_types(args):
    rho = _load_rho(args)
    if args.wtilde:
        return _type_entry(tau_presentation(rho, _parse_wtilde(rho, args.wtilde)))
    # slot j of a presentation depends on the index at position f-1-j alone,
    # so each distinct (j, index) part is built once per report
    part = functools.cache(functools.partial(type_part, rho))
    f = rho.f
    entries = [
        _type_entry(compose_type(rho, w, [part(j, w[f - 1 - j]) for j in range(f)]))
        for w in x_rho(rho)
    ]
    return {"count": len(entries), "types": entries}


def cmd_kisin(args):
    rho = _load_rho(args)
    wtilde = _parse_wtilde(rho, args.wtilde) if args.wtilde else None
    if wtilde:
        require_allowed(rho, wtilde)
    targets = [wtilde] if wtilde else x_rho(rho)
    etale = etale_matrices(rho)
    torus = rho.field.degree == 1
    f = rho.f
    # slot i of an element (its matrix, type part, recovery and torus rows)
    # depends on the profile and idx[i] alone, so each distinct (i, idx[i])
    # is built, classified and checked once per report, and every element
    # is composed from the slots it has
    @functools.cache
    def slot(i, k):
        m = slot_matrix(rho, i, k)
        sh = shape_of(m)
        part = type_part(rho, f - 1 - i, k)
        exact, window = height_checks(m, (2, 1))
        shown = {
            "component_index": k,
            "gauge": gauge_check(m, ADM_COMPONENTS[k]),
            "height_exact": exact,
            "height_window": window,
            "shape": {"s": sh.s, "nu": sh.nu, "adm_index": sh.adm_index()},
            "matrix": m,
        }
        rows = torus_slot_rows(rho, i, m, k) if torus else None
        return shown, part, slot_recovers(m, part, etale[i]), rows

    reports = []
    for w in targets:
        per_slot, parts, recovered, torus_rows = zip(*map(slot, range(f), w))
        entry = {
            "index": w,
            # slot j of the presentation is the part of slot i = f-1-j
            "type": _type_entry(compose_type(rho, w, parts[::-1])),
            "recovery": all(recovered),
            "per_slot": list(per_slot),
        }
        if torus:
            dim, expected = torus_dims(rho, torus_rows)
            entry["torus_rigidity"] = {"dim": dim, "expected": expected}
        reports.append(entry)
    if wtilde:
        report = reports[0]
        report["etale"] = etale
        return report
    return {"count": len(reports), "elements": reports}


def cmd_tangent(args):
    rho = _load_rho(args)
    b = _parse_ints(args.b, "--b") if args.b else None
    bounds = (rho, b, args.degree_bound, args.min_degree)
    if args.stability:
        # the full system's report, and the one a Frobenius step higher
        report, higher, stable = tangent_mod.stability_check(*bounds)
        system = report.system
    else:
        system = tangent_mod.assemble_system(*bounds)
    solved = system.without(("pin", "p21_0")) if args.negative_control else system
    if solved is not system or not args.stability:
        report = tangent_mod.solve_claim(solved)
    out = {
        "degree_bound": system.degree_bound,
        "min_degree": system.min_degree,
        "columns": system.ncols,
        "rows": solved.row_count(),
        "kernel_dim": report.kernel_dim,
        "param_kernel_dim": report.param_kernel_dim,
        "m_kernel_dim": report.m_kernel_dim,
        "injective": report.injective,
        "negative_control": bool(args.negative_control),
        "consequences": tangent_mod.consequence_report(report),
        "residual_ok": tangent_mod.residual_check(report),
    }
    if args.stability:
        out["stability"] = {
            "higher_degree_bound": higher.system.degree_bound,
            "higher_dims": [higher.kernel_dim, higher.param_kernel_dim, higher.m_kernel_dim],
            "stable": stable,
        }
    return out


def _d0_flags(report):
    # the report's five flags, in field order
    return {name: value for name, value in vars(report).items() if name != "components"}


def cmd_d0(args):
    rho = _load_rho(args)
    report = d0_mod.d0_checks(rho)
    components = [
        {"socle": comp.socle, "signs": comp.profile.signs, "size": len(comp), "dim": comp.dim}
        for comp in report.components
    ]
    return {
        "passed": report.passed,
        **_d0_flags(report),
        "components": components,
        "total_constituents": sum(len(c) for c in report.components),
    }


# ---------------------------------------------------------------------------
# oracle command (parallelizable batches)


def _coset_trial(field, rng, prec):
    M = random_truncated_invertible(field, rng)
    component = shape_of(M).component()
    return coset_certify(M, component, prec)


def _shape_trial(field, rng, _prec):
    while True:
        entries = [
            Laurent(field, {d: rng.randrange(field.order) for d in range(-3, 5)})
            for _ in range(4)
        ]
        M = Mat2(field, *entries)
        det = M.det()
        if det:
            break
    sh = shape_of(M)
    # the witness product, and the witness-free nu1 + nu2 = val(det M)
    return sh.verify(M) and sh.nu[0] + sh.nu[1] == det.valuation()


_BATCHES = {"coset": _coset_trial, "shape": _shape_trial}
# oracle kinds that check one profile read from --config
_CONFIG_KINDS = ("d0", "tangent-residual")


def _batch(task):
    # trial i of a kind draws from its own seeded generator, so the outcome
    # does not depend on how the trials are split between jobs
    kind, p, degree, seed0, indices, prec = task
    field = GF(p, degree)
    trial = _BATCHES[kind]
    return [[i, bool(trial(field, random.Random(seed0 * 1000003 + i), prec))] for i in indices]


def _d0_fields(report):
    # the five flags, then each component's size and dim
    comps = report.components
    return dict(_d0_flags(report), sizes=[len(c) for c in comps], dims=[c.dim for c in comps])


def cmd_oracle(args):
    cfg = _load_config(args) if args.config else None
    if args.kind in _CONFIG_KINDS:
        if cfg is None:
            raise ConfigError("oracle --kind %s needs --config" % args.kind)
        rho = RhoBar.from_config(cfg)
    if args.kind == "d0":
        # the counted report against the enumerated one, under its cap
        counted = _d0_fields(d0_mod.d0_checks(rho))
        enumerated = _d0_fields(d0_mod.d0_checks_enumerated(rho))
        differ = [name for name in counted if counted[name] != enumerated[name]]
        return {
            "kind": args.kind,
            "components": len(counted["sizes"]),
            "total_constituents": sum(counted["sizes"]),
            "agree": not differ,
            "disagreements": differ,
        }
    if args.kind == "tangent-residual":
        report = tangent_mod.solve_claim(tangent_mod.assemble_system(rho))
        return {
            "kind": args.kind,
            "kernel_dim": report.kernel_dim,
            "injective": report.injective,
            "residual_ok": tangent_mod.residual_check(report),
        }
    if cfg is not None:
        p = _config_int(cfg, "p")
        degree = _config_int(cfg, "field_degree", 1)
    else:
        p, degree = args.p, 1
    if args.trials < 0:
        raise ConfigError("--trials must be >= 0, got %d" % args.trials)
    seed0 = _seed(args, cfg)
    jobs = max(1, min(args.jobs, args.trials, os.cpu_count() or 1))
    chunks = [
        (args.kind, p, degree, seed0, list(range(k, args.trials, jobs)), args.prec)
        for k in range(jobs)
    ]
    if jobs == 1:
        results = [_batch(chunks[0])]
    else:
        import multiprocessing  # only here: its import costs about 1 MiB

        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            results = pool.map(_batch, chunks)
    flat = sorted(pair for batch in results for pair in batch)
    failures = [i for i, ok in flat if not ok]
    return {
        "kind": args.kind,
        "p": p,
        "field_degree": degree,
        "seed": seed0,
        "trials": args.trials,
        "agreements": args.trials - len(failures),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built on first use, not at import
def build_parser():
    parser = _Parser(prog="gl2kisin", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="path to a profile JSON config")
    common.add_argument("--mode", choices=["strict", "permissive"], help="override validation mode")
    common.add_argument("--out", help="write the JSON report to this path instead of stdout")

    sub = parser.add_subparsers(dest="command")

    sub.add_parser("describe", parents=[common], help="profile summary")
    sub.add_parser("weights", parents=[common], help="weight set of the profile")

    p = sub.add_parser("adm", parents=[common], help="admissible elements")
    p.add_argument("--f", type=int, help="number of slots when no config is given")

    p = sub.add_parser("xset", parents=[common], help="allowed admissible elements")
    p.add_argument("--sigma", help="weight selector b as comma-separated values in {-1, 0, 1}")
    p._negative_number_matcher = re.compile(r"-\d")  # `--sigma -1,0` is a value, not an option

    p = sub.add_parser("types", parents=[common], help="type presentations")
    p.add_argument("--wtilde", help="one admissible element as comma-separated indices")

    p = sub.add_parser("kisin", parents=[common], help="gauge-form matrices and classification")
    p.add_argument("--wtilde", help="one admissible element as comma-separated indices")

    p = sub.add_parser("tangent", parents=[common], help="first-order rigidity system")
    p.add_argument("--b", help="weight selector as comma-separated 0/1")
    p.add_argument("--degree-bound", type=int, default=None)
    p.add_argument("--min-degree", type=int, default=0)
    p.add_argument("--negative-control", action="store_true", help="drop the pivot pin")
    p.add_argument("--stability", action="store_true", help="re-solve one Frobenius step higher")

    sub.add_parser("d0", parents=[common], help="composition-series checks")

    p = sub.add_parser("oracle", parents=[common], help="brute-force cross-checks")
    p.add_argument("--kind", choices=sorted(_BATCHES) + list(_CONFIG_KINDS), default="coset")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--prec", type=int, default=4)
    p.add_argument("--p", type=int, default=2, help="field characteristic when no config is given")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")

    return parser


def _warning_line(message, category, filename, lineno, line=None):
    return "warning: %s\n" % message


def main(argv=None):
    # a warning is one stderr line of its kind, like the failures below
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = build_parser().parse_args(argv)
        if not args.command:
            raise ConfigError("no command given; see --help")
        # looked up per call, so a replaced cmd_<name> is the one that runs
        report = globals()["cmd_" + args.command](args)
        text = serial.dumps(report)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError("cannot write report: %s" % exc)
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        # any other failure is a bug too: one line, no traceback
        print("internal error: %r" % (exc,), file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
