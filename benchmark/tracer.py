"""Layer tracer: wraps spinbath's public functions from outside the package.

Spans ``{name, start, end, parent, op}`` are kept in memory and written out
when the run ends.  A layer's self time is its span minus the spans of its
children; summing self times therefore never counts a nested call twice,
and the self times of every span add up to the time spent inside traced
layers.  Counts (spectra, lines, model evaluations, iterations) are kept at
the same boundaries.

Run as a script, this module is the traced stand-in for the ``spinbath``
console command: it installs the wrappers, calls ``spinbath.cli.main(argv)``
in process and writes its spans to a JSON file::

    python benchmark/tracer.py SPANS.json OP_ID -- fit --config ... --out ...
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Largest |Σ η − ½| still counted as round-off (the sum runs over 648² terms).
ETA_SUM_ROUNDOFF = 1e-9


def _spectrum_counts(tracer, args, kwargs, out) -> None:
    tracer.count("spinmodel.spectra", 1)
    tracer.count("spinmodel.raw_lines", int(out.omega.size))
    tracer.audit_eta_sum(out.eta_sum_all)


def _density_counts(tracer, args, kwargs, out) -> None:
    import numpy as np

    model = args[0] if args else kwargs["m"]
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    points = int(np.size(omega))
    tracer.count("bathspectrum.points", points)
    for comp in model.spectrum.components:
        lines = int(comp.omega.size)
        # two Lorentzians per line plus the central one, per ω point
        tracer.count("bathspectrum.lorentzian_evals", points * (2 * lines + 1))
        # the two (points × lines) float64 Lorentzian arrays per component
        tracer.count("bathspectrum.bytes_computed", 2 * 8 * points * lines)


def _cache_counts(tracer, args, kwargs, out) -> None:
    model = args[0]
    tracer.count("estimator.cache_nodes", len(model.fields_gauss) * len(model.theta_nodes))


def _solve_counts(tracer, args, kwargs, out) -> None:
    tracer.count("eesolver.iterations", int(out.iterations))


def _one(name):
    def hook(tracer, args, kwargs, out) -> None:
        tracer.count(name, 1)

    return hook


#: (module, attribute, span name, count hook).  A span name of None keeps a
#: count only: ``delta_gamma_unit`` runs ~10^5 times per fit, so spans there
#: would cost more than the call.
TARGETS = (
    ("spinmodel", "build_hamiltonian", "spinmodel.hamiltonian", None),
    ("spinmodel", "transition_spectrum", "spinmodel.transition_spectrum", _spectrum_counts),
    ("spinmodel", "isotope_family_spectrum", "spinmodel.isotope_family_spectrum", None),
    ("bathspectrum", "cupc_bath_model", "bathspectrum.cupc_bath_model", None),
    ("bathspectrum", "spectral_density", "bathspectrum.spectral_density", _density_counts),
    ("relaxometry", "relaxation_rate", "relaxometry.relaxation_rate", None),
    ("relaxometry", "fit_decay", "relaxometry.fit_decay", _one("relaxometry.decay_fits")),
    ("estimator", "ForwardModel.__init__", "estimator.cache_build", _cache_counts),
    ("estimator", "ForwardModel.delta_gamma_unit", None, _one("estimator.model_evals")),
    ("estimator", "fit", "estimator.fit", _one("estimator.fits")),
    ("estimator", "confidence_region", "estimator.confidence", None),
    ("estimator", "estimate_depth", "estimator.estimate_depth", None),
    ("eesolver", "solve_tau_self_consistent", "eesolver.solve", _solve_counts),
    ("eesolver", "no_hyperfine_tau", "eesolver.bounds", None),
    ("eesolver", "delta_approx_tau", "eesolver.bounds", None),
    ("config", "load_config", "config.load", None),
    ("io", "load_measurements", "io.load", None),
    ("io", "load_decay_curve", "io.load", None),
    ("io", "load_reference_depths", "io.load", None),
)

LAYERS = ("spinmodel", "bathspectrum", "relaxometry", "estimator", "eesolver", "config", "io")


class Tracer:
    """In-memory spans and counts, grouped by operation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.eta_sum_dev = 0.0
        self.eta_sum_violations = 0
        self.enabled = False
        self.op = "setup"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def recording(self, op: str):
        """Record spans and counts under operation id `op` inside the block."""
        self.op, self.enabled = op, True
        try:
            yield self
        finally:
            self.enabled = False

    def count(self, name: str, n: int) -> None:
        self.counts[self.op][name] += n

    def audit_eta_sum(self, eta_sum_all: float) -> None:
        dev = abs(float(eta_sum_all) - 0.5)
        self.eta_sum_dev = max(self.eta_sum_dev, dev)
        if not dev <= ETA_SUM_ROUNDOFF:
            self.eta_sum_violations += 1

    def wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name is None:
                out = fn(*args, **kwargs)
                hook(tracer, args, kwargs, out)
                return out
            rec = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "op": tracer.op,
            }
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every binding of each target in the loaded spinbath modules.

        Modules that imported a function by name (``estimator`` binds
        ``isotope_family_spectrum``, ``relaxometry`` binds
        ``spectral_density``) hold their own reference, so each module's
        namespace is searched for the original object.
        """
        import importlib

        for mod in LAYERS + ("cli",):
            importlib.import_module(f"spinbath.{mod}")
        modules = [
            m for k, m in sys.modules.items() if m and (k == "spinbath" or k.startswith("spinbath."))
        ]
        for mod_name, attr, name, hook in TARGETS:
            owner = sys.modules[f"spinbath.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, hook))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {op: dict(c) for op, c in self.counts.items()},
            "eta_sum_dev": self.eta_sum_dev,
            "eta_sum_violations": self.eta_sum_violations,
        }

    def merge(self, child: dict, op: str) -> None:
        """Adopt the spans and counts a traced child process recorded."""
        offset = len(self.spans)
        for rec in child["spans"]:
            rec = dict(rec, op=op)
            if rec["parent"] is not None:
                rec["parent"] += offset
            self.spans.append(rec)
        for counts in child["counts"].values():
            self.counts[op].update(counts)
        self.eta_sum_dev = max(self.eta_sum_dev, child["eta_sum_dev"])
        self.eta_sum_violations += child["eta_sum_violations"]


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_table(tracer: Tracer, walls: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one average operation.

    `walls` maps op id ("setup", "op-1", ...) to the traced wall time of
    that set-up or operation.  Each metric is its set-up share plus its
    mean over the operations, so the table describes a fixed amount of
    work however many operations fit into the run.
    """
    ops = [op for op in walls if op != "setup"]
    weight = {"setup": 1.0, **{op: 1.0 / len(ops) for op in ops}}
    selfs = self_times(tracer.spans)
    acc: defaultdict[str, float] = defaultdict(float)
    for s, own in zip(tracer.spans, selfs):
        w = weight.get(s["op"], 0.0)
        layer = s["name"].split(".")[0]
        acc[f"{layer}.self_s"] += w * own
        acc[f"{s['name']}.self"] += w * own
        if s["parent"] is None:
            acc["traced_s"] += w * (s["end"] - s["start"])
        if s["name"] == "estimator.cache_build":
            acc["estimator.cache_build_s"] += w * (s["end"] - s["start"])
    counts: defaultdict[str, float] = defaultdict(float)
    for op, c in tracer.counts.items():
        for k, v in c.items():
            counts[k] += weight.get(op, 0.0) * v
    wall = sum(weight[op] * t for op, t in walls.items())
    table = {
        "spinmodel.hamiltonian_s": acc["spinmodel.hamiltonian.self"],
        "spinmodel.diag_s": acc["spinmodel.transition_spectrum.self"],
        "bathspectrum.spectral_density_s": acc["bathspectrum.spectral_density.self"],
        "estimator.cache_build_s": acc["estimator.cache_build_s"],
        "estimator.cache_self_s": acc["estimator.cache_build.self"],
        "estimator.fit_s": acc["estimator.fit.self"],
        "estimator.confidence_s": acc["estimator.confidence.self"],
        "eesolver.solve_s": acc["eesolver.solve.self"],
        "eesolver.bounds_s": acc["eesolver.bounds.self"],
        "relaxometry.fit_decay_s": acc["relaxometry.fit_decay.self"],
        "relaxometry.relaxation_rate_s": acc["relaxometry.relaxation_rate.self"],
        "config.load_s": acc["config.load.self"],
        "io.load_s": acc["io.load.self"],
        "cli.other_s": wall - acc["traced_s"],
        "trace.wall_s": wall,
    }
    for layer in LAYERS[:5]:
        table[f"{layer}.self_s"] = acc[f"{layer}.self_s"]
    for name in (
        "spinmodel.spectra",
        "spinmodel.raw_lines",
        "bathspectrum.points",
        "bathspectrum.lorentzian_evals",
        "bathspectrum.bytes_computed",
        "estimator.cache_nodes",
        "estimator.fits",
        "estimator.model_evals",
        "eesolver.iterations",
        "relaxometry.decay_fits",
    ):
        table[name] = counts[name]
    table["audit.eta_sum_dev"] = tracer.eta_sum_dev
    return table


def main(argv: list[str]) -> int:
    """Traced ``spinbath`` command: SPANS.json OP_ID -- <cli arguments>."""
    spans_out, op, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json OP_ID -- <spinbath arguments>")
    from spinbath import cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.recording(op):
            code = cli.main(cli_argv)
    finally:
        Path(spans_out).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
