"""Per-layer spans and work counts, installed from outside the package.

Each traced function is replaced by a wrapper at every binding a caller can
look it up through: the defining module or class, every gl2kisin module that
imported it by name, and method aliases such as ``__rmul__ = __mul__``.
``uninstall`` restores the originals, so untraced passes run the unmodified
code.

A span's self time is its duration minus the time covered by the spans it
caused.  Work counts are computed from arguments and results after the span
closes, and their cost is charged to no span.
"""

import sys
import time

PACKAGE = "gl2kisin"

# The package's modules, which are its layers.
LAYERS = (
    "fields",
    "laurent",
    "matrices",
    "weights",
    "rho",
    "kisin",
    "oracles",
    "tangent",
    "fp_linalg",
    "d0",
    "serial",
    "cli",
)

# metric name -> (module, attribute path of the definition)
TARGETS = (
    ("fields.mul", "fields", "FieldElement.__mul__"),
    ("fields.add", "fields", "FieldElement.__add__"),
    ("fields.inverse", "fields", "FieldElement.inverse"),
    ("laurent.mul", "laurent", "Laurent.__mul__"),
    ("laurent.add", "laurent", "Laurent.__add__"),
    ("laurent.series_inverse", "laurent", "series_inverse"),
    ("laurent.series_div", "laurent", "series_div"),
    ("laurent.phi_twist", "laurent", "phi_twist"),
    ("matrices.mul", "matrices", "Mat2.__mul__"),
    ("matrices.det", "matrices", "Mat2.det"),
    ("kisin.shape_of", "kisin", "shape_of"),
    ("kisin.verify", "kisin", "Shape.verify"),
    ("kisin.gauge_check", "kisin", "gauge_check"),
    ("kisin.height_check", "kisin", "height_check"),
    ("kisin.kisin_matrices", "kisin", "kisin_matrices"),
    ("kisin.verify_recovery", "kisin", "verify_recovery"),
    ("kisin.torus_rigidity_dims", "kisin", "torus_rigidity_dims"),
    ("oracles.coset_certify", "oracles", "coset_certify"),
    ("tangent.assemble_system", "tangent", "assemble_system"),
    ("tangent.solve_claim", "tangent", "solve_claim"),
    ("tangent.consequence_report", "tangent", "consequence_report"),
    ("tangent.residual_check", "tangent", "residual_check"),
    ("tangent.stability_check", "tangent", "stability_check"),
    ("fp_linalg.kernel_basis", "fp_linalg", "kernel_basis"),
    ("weights.t_lambda", "weights", "t_lambda"),
    ("weights.adm_set", "weights", "adm_set"),
    ("rho.serre_weights", "rho", "serre_weights"),
    ("rho.x_rho", "rho", "x_rho"),
    ("rho.x_sigma", "rho", "x_sigma"),
    ("rho.tau_presentation", "rho", "tau_presentation"),
    ("rho.from_config", "rho", "RhoBar.from_config"),
    ("d0.d0_checks", "d0", "d0_checks"),
    ("d0.jh_component", "d0", "jh_component"),
    ("d0.socle_profile", "d0", "socle_profile"),
    ("serial.dumps", "serial", "dumps"),
    ("cli.describe", "cli", "cmd_describe"),
    ("cli.weights", "cli", "cmd_weights"),
    ("cli.xset", "cli", "cmd_xset"),
    ("cli.types", "cli", "cmd_types"),
    ("cli.kisin", "cli", "cmd_kisin"),
    ("cli.tangent", "cli", "cmd_tangent"),
    ("cli.d0", "cli", "cmd_d0"),
)


def _laurent_terms(counts, args, result):
    a, b = args[0], args[1]
    nb = len(b.coeffs) if hasattr(b, "coeffs") else 1
    counts["laurent.mul.term_products"] += len(a.coeffs) * nb


def _kernel_work(counts, args, result):
    rows, ncols = args[0], args[1]
    counts["fp_linalg.kernel_basis.nnz"] += sum(len(r) for r in rows)
    counts["fp_linalg.kernel_basis.cells"] += len(rows) * ncols
    counts["fp_linalg.kernel_basis.rank"] += result[1]


def _system_rows(counts, args, result):
    counts["tangent.assemble_system.rows"] += len(result.rows)


def _constituents(counts, args, result):
    counts["d0.jh_component.constituents"] += len(result)


def _dumped_bytes(counts, args, result):
    counts["serial.dumps.bytes"] += len(result.encode())


# metric name of the traced function -> work counter fed from its calls
COUNTERS = {
    "laurent.mul": _laurent_terms,
    "fp_linalg.kernel_basis": _kernel_work,
    "tangent.assemble_system": _system_rows,
    "d0.jh_component": _constituents,
    "serial.dumps": _dumped_bytes,
}

COUNT_NAMES = (
    "laurent.mul.term_products",
    "fp_linalg.kernel_basis.nnz",
    "fp_linalg.kernel_basis.cells",
    "fp_linalg.kernel_basis.rank",
    "tangent.assemble_system.rows",
    "d0.jh_component.constituents",
    "serial.dumps.bytes",
)


def _resolve(module_name, path):
    module = sys.modules["%s.%s" % (PACKAGE, module_name)]
    owner, _, attr = path.rpartition(".")
    if owner:
        cls = getattr(module, owner)
        raw = cls.__dict__[attr]
        return cls, raw, getattr(raw, "__func__", raw)
    fn = getattr(module, attr)
    return module, fn, fn


class Tracer:
    """Wrappers for every target; stats accumulate while installed."""

    def __init__(self):
        self.names = [name for name, _m, _p in TARGETS]
        self._stack = [0]  # per open span: nanoseconds covered by its children
        self._installed = []
        # per target: [calls, self_ns, errors]; wrappers hold these objects
        self.stats = [[0, 0, 0] for _ in TARGETS]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def reset(self):
        for stat in self.stats:
            stat[:] = [0, 0, 0]
        for name in self.counts:
            self.counts[name] = 0

    def _wrap(self, fn, stat, counter):
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stat[0] += 1
                stat[1] += t1 - t0 - stack.pop()
                stat[2] += 1
                stack[-1] += t1 - t0
                raise
            t1 = clock()
            stat[0] += 1
            stat[1] += t1 - t0 - stack.pop()
            if counter is not None:
                counter(counts, args, result)
            stack[-1] += clock() - t0
            return result

        return traced

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for (name, module_name, path), stat in zip(TARGETS, self.stats):
            owner, raw, fn = _resolve(module_name, path)
            wrapper = self._wrap(fn, stat, COUNTERS.get(name))
            if isinstance(raw, classmethod):
                self._rebind(owner, raw, classmethod(wrapper))
            elif isinstance(owner, type):
                self._rebind(owner, raw, wrapper)
            for module in modules:
                self._rebind(module, fn, wrapper)

    def _rebind(self, namespace, original, replacement):
        for attr, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, attr, replacement)
                self._installed.append((namespace, attr, original))

    def uninstall(self):
        for namespace, attr, original in reversed(self._installed):
            setattr(namespace, attr, original)
        self._installed = []

    def self_ns_by_layer(self):
        out = dict.fromkeys(LAYERS, 0)
        for name, stat in zip(self.names, self.stats):
            out[name.split(".", 1)[0]] += stat[1]
        return out

    def snapshot(self):
        """Calls, errors and work counts, which repeat exactly for identical
        work."""
        calls = {name: stat[0] for name, stat in zip(self.names, self.stats)}
        errors = {name: stat[2] for name, stat in zip(self.names, self.stats)}
        return {"calls": calls, "errors": errors, "counts": dict(self.counts)}


def metric_names():
    """Every per-layer metric of a traced run, with its unit."""
    out = []
    for name, _m, _p in TARGETS:
        out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
    for layer in LAYERS:
        out.append((layer + ".errors", "count"))
    for name in COUNT_NAMES:
        out.append((name, "bytes" if name.endswith(".bytes") else "count"))
    out.append(("trace_overhead", "ratio"))
    return out
