"""Per-layer spans and counts for the traced benchmark run.

The tracer wraps public functions of the novspec modules from outside:
nothing under ``src/`` changes.  A span named ``X`` covers one call of
the wrapped function and yields three metrics: ``X.calls``, ``X.s``
(inclusive seconds) and ``X.self_s`` (``X.s`` minus the time covered by
spans that started inside it).  Counts are plain integers added at the
same boundaries; a call count is also kept per innermost open span, so
``novikov.mul.kept_ratio`` counts only the coefficient products that
``NovikovScalar.__mul__`` makes itself.  Everything stays in memory and
is read once, by ``Tracer.metrics``, when the traced pass ends.

A function imported by name (``from .polytope import polytope_validate``)
lives in several module namespaces; it is wrapped in every loaded
``novspec`` module that holds it, or calls through the other names would
be missed.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "fields", "novikov", "potential", "critical", "polytope",
           "koszul", "spectral", "complexes", "tensor")

# span name -> (module, attribute path)
SPANS = {
    "cli.main": ("cli", "main"),
    "novikov.mul": ("novikov", "NovikovScalar.__mul__"),
    "novikov.invert": ("novikov", "NovikovScalar.invert"),
    "potential.gradient": ("potential", "PotentialFunction.gradient"),
    "potential.hessian": ("potential", "PotentialFunction.hessian"),
    "potential.evaluate": ("potential", "PotentialFunction.evaluate"),
    "critical.lift": ("critical", "lift_critical"),
    "critical.certify": ("critical", "certify_heavy"),
    "critical.revalidate": ("critical", "revalidate_certificate"),
    "critical.leading": ("critical", "critical_points_leading"),
    "critical.scan": ("critical", "scan_fibers"),
    "polytope.validate": ("polytope", "polytope_validate"),
    "polytope.vertices": ("polytope", "enumerate_vertices"),
    "polytope.interior": ("polytope", "interior_point"),
    "koszul.build": ("koszul", "build_cqf"),
    "koszul.hqf": ("koszul", "hqf_report"),
    "spectral.homology": ("spectral", "homology_report"),
    "spectral.spectrum": ("spectral", "spectrum"),
    "spectral.spectral_number": ("spectral", "spectral_number"),
    "complexes.validate": ("complexes", "validate_complex"),
    "tensor.product": ("tensor", "tensor_product"),
}

# count name -> (module, attribute path); one count per call, no span
CALL_COUNTS = {
    "fields.mul.calls": ("fields", "CoefficientField.mul"),
    "spectral.echelon_insert.calls": ("spectral", "Echelon.insert"),
}

def metric_names() -> list:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name in SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"),
                (f"{name}.self_s", "s")]
    out += [(name, "count") for name in CALL_COUNTS]
    out += [("fields.max_coeff_bits", "bits"),
            ("novikov.mul.term_pairs", "count"),
            ("novikov.mul.kept_ratio", "1"),
            ("critical.newton_iterations", "count"),
            ("critical.certified_ratio", "1"),
            ("tensor.product_generators", "count"),
            ("trace.overhead_ratio", "1")]
    return out


def _resolve(module: str, path: str):
    obj = importlib.import_module(f"novspec.{module}")
    owner = obj
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.split(".")[-1], obj


class Tracer:
    """Wraps the layer functions while installed; aggregates in memory."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self_s
        self.counts = defaultdict(int)
        self._child = []  # child-span seconds of each open span
        self._open = []  # names of the open spans, innermost last
        self._patched = []

    # -- wrappers --

    def _span(self, name, fn, after=None):
        agg = self.spans[name]
        child = self._child
        open_spans = self._open

        def wrapper(*args, **kwargs):
            child.append(0.0)
            open_spans.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                open_spans.pop()
                inner = child.pop()
                if child:
                    child[-1] += took
                agg[0] += 1
                agg[1] += took
                agg[2] += took - inner
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        open_spans = self._open

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if open_spans:
                counts[f"{name} in {open_spans[-1]}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that read counts off arguments and results --

    def _mul_pairs(self, args, result):
        self.counts["novikov.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def _lift_iterations(self, args, result):
        self.counts["critical.newton_iterations"] += result.iterations

    def _scan_rows(self, args, result):
        self.counts["critical.fibers_scanned"] += len(result.rows)
        self.counts["critical.fibers_certified"] += sum(
            r.status == "certified" for r in result.rows)

    def _product_size(self, args, result):
        self.counts["tensor.product_generators"] += len(result.generators)

    # -- install / remove --

    def _replace(self, module, path, make):
        owner, attr, original = _resolve(module, path)
        wrapped = make(original)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for name, m in list(sys.modules.items())
                       if name == "novspec" or name.startswith("novspec.")
                       if getattr(m, attr, None) is original]
        for target in targets:
            self._patched.append((target, attr, original))
            setattr(target, attr, wrapped)

    def install(self) -> None:
        for module in MODULES:
            importlib.import_module(f"novspec.{module}")
        after = {"novikov.mul": self._mul_pairs,
                 "critical.lift": self._lift_iterations,
                 "critical.scan": self._scan_rows,
                 "tensor.product": self._product_size}
        for name, (module, path) in SPANS.items():
            self._replace(module, path,
                          lambda fn, name=name: self._span(name, fn, after.get(name)))
        for name, (module, path) in CALL_COUNTS.items():
            self._replace(module, path, lambda fn, name=name: self._count(name, fn))

    def remove(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def metrics(self, outputs, overhead_ratio: float) -> dict:
        """Per-layer metrics of the traced pass; ``outputs`` are its stdouts."""
        c = self.counts
        values = {}
        for name in SPANS:
            calls, total, own = self.spans[name]
            values[f"{name}.calls"] = calls
            values[f"{name}.s"] = total
            values[f"{name}.self_s"] = own
        for name in CALL_COUNTS:
            values[name] = c[name]
        pairs = c["novikov.mul.term_pairs"]
        kept = c["fields.mul.calls in novikov.mul"]
        scanned = c["critical.fibers_scanned"]
        values.update({
            "fields.max_coeff_bits": max_coeff_bits(outputs),
            "novikov.mul.term_pairs": pairs,
            "novikov.mul.kept_ratio": kept / pairs if pairs else 0.0,
            "critical.newton_iterations": c["critical.newton_iterations"],
            "critical.certified_ratio":
                c["critical.fibers_certified"] / scanned if scanned else 0.0,
            "tensor.product_generators": c["tensor.product_generators"],
            "trace.overhead_ratio": overhead_ratio,
        })
        units = dict(metric_names())
        return {k: {"value": values[k], "unit": units[k]} for k, _ in metric_names()}


def _coefficients(node):
    """Exact coefficient strings of every Novikov term list in a document."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("terms", "coeff") and isinstance(value, list):
                for term in value:
                    if isinstance(term, dict) and "c" in term:
                        c = term["c"]
                        yield from (c.values() if isinstance(c, dict) else (c,))
            else:
                yield from _coefficients(value)
    elif isinstance(node, list):
        for item in node:
            yield from _coefficients(item)


def max_coeff_bits(outputs) -> int:
    """Largest numerator or denominator bit length among the exact
    coefficients emitted in ``outputs`` (floating ones are skipped)."""
    best = 0
    for text in outputs:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            continue
        for c in _coefficients(doc):
            if isinstance(c, str):
                num, _, den = c.partition("/")
                best = max(best, abs(int(num)).bit_length(), int(den or 1).bit_length())
    return best
