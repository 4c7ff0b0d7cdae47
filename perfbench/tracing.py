"""Span tracer that times kleinzeta's layers from outside the package.

`Tracer.install` wraps a fixed list of public functions and patches the
wrapper into every `kleinzeta.*` module namespace that binds the original
object (`build_field`, for instance, is bound in `ffield`, `counting` and
`cli`).  Each call records a span (id, name, start, end, parent id,
attributes); the parent comes from a `contextvars` stack, so nesting follows
the call stack.  Spans stay in memory until `Tracer.dump` writes them out.

`layer_metrics` turns a dumped trace into the per-layer metrics.  A target
that no longer exists is listed under "missing" and its metrics read 0.

Blind spot: the counter runs its kernel in worker processes.  Nothing inside
those processes is traced, so all of their work (table builds included) is
attributed to the enclosing `counting.count_klein_fast` span.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import sys
import time


def _field_attrs(args, kwargs, result):
    F = args[0] if args else kwargs["F"]
    return {"p": F.p, "k": F.k, "q": F.q}


def _lookup_attrs(args, kwargs, result):
    return {"hit": result is not None}


def _scan_attrs(args, kwargs, result):
    ty = args[1] if len(args) > 1 else kwargs["ty"]
    return {"type": ty, "combos": result.combos_scanned}


# (module, public name, attribute extractor or None)
TARGETS = (
    ("cli", "main", None),
    ("ffield", "build_field", None),
    ("ffield", "field_tables", None),
    ("counting", "count_klein_fast", _field_attrs),
    ("counting", "count_weierstrass", None),
    ("cache", "cached_count", _lookup_attrs),
    ("cache", "record_count", None),
    ("lfunc", "power_sums_to_local_factor", None),
    ("lfunc", "weil_bound_check", None),
    ("hecke", "h3_local_factor_product", None),
    ("hecke", "predicted_count", None),
    ("gdcohom", "h3_basis", None),
    ("gdcohom", "alpha_pullback", None),
    ("gdcohom", "eigenspace_split", None),
    ("gdcohom", "fil2_eigenvector_map", None),
    ("gdcohom", "gorenstein_pairing_nondegenerate", None),
    ("linalg", "solve_sparse", None),
    ("linalg", "rank", None),
    ("thetasupp", "scan_type", _scan_attrs),
    ("thetasupp", "stabilizer_invariance_check", None),
    ("thetasupp", "archimedean_equivariance", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._ids = itertools.count(1)
        self._patched = []

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            token = self._current.set(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                extra = {}
                if attrs is not None:
                    try:
                        extra = attrs(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass  # an unexpected signature loses attributes, not the span
                self.spans.append((sid, name, start, end, self._current.get(), extra))
        return traced

    def install(self) -> None:
        for mod_name, name, attrs in TARGETS:
            qualname = f"{mod_name}.{name}"
            try:
                original = getattr(importlib.import_module("kleinzeta." + mod_name), name)
            except (ImportError, AttributeError):
                self.missing.append(qualname)
                continue
            wrapper = self._wrap(qualname, original, attrs)
            modules = [m for key, m in list(sys.modules.items())
                       if key == "kleinzeta" or key.startswith("kleinzeta.")]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        spans = [{"id": s, "name": n, "start": a, "end": b, "parent": par, "attrs": x}
                 for s, n, a, b, par, x in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "missing": self.missing}, fh)


class SpanSet:
    """Queries over one dumped trace."""

    def __init__(self, spans):
        self.by_id = {s["id"]: s for s in spans}
        self.spans = spans

    def _nested_in_same_name(self, span) -> bool:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def outer(self, name, **attrs):
        """Spans of `name` not nested in another span of the same name."""
        return [s for s in self.spans
                if s["name"] == name and not self._nested_in_same_name(s)
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def seconds(self, name, **attrs) -> float:
        return sum(s["end"] - s["start"] for s in self.outer(name, **attrs))

    def calls(self, name, **attrs) -> int:
        return len(self.outer(name, **attrs))

    def self_seconds(self, name) -> float:
        """Duration of `name` spans minus the time their direct children cover."""
        outer = {s["id"]: s["end"] - s["start"] for s in self.outer(name)}
        for s in self.spans:
            if s["parent"] in outer:
                outer[s["parent"]] -= s["end"] - s["start"]
        return sum(outer.values())


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _q4_rate(t: SpanSet) -> float:
    spans = t.outer("counting.count_klein_fast")
    return _ratio(sum(s["attrs"].get("q", 0) ** 4 for s in spans),
                  t.seconds("counting.count_klein_fast"))


def _scan_seconds(ty):
    return lambda t: t.seconds("thetasupp.scan_type", type=ty)


# (metric, targets it reads, value from a SpanSet); units live in BENCHMARK.json
LAYER_METRICS = (
    ("ffield.build_field_s", ("ffield.build_field",),
     lambda t: t.seconds("ffield.build_field")),
    ("ffield.build_field_calls", ("ffield.build_field",),
     lambda t: t.calls("ffield.build_field")),
    ("ffield.field_tables_s", ("ffield.field_tables",),
     lambda t: t.seconds("ffield.field_tables")),
    ("counting.count_klein_fast_s", ("counting.count_klein_fast",),
     lambda t: t.seconds("counting.count_klein_fast")),
    ("counting.count_klein_fast_calls", ("counting.count_klein_fast",),
     lambda t: t.calls("counting.count_klein_fast")),
    ("counting.kernel_s.p3k4", ("counting.count_klein_fast",),
     lambda t: t.seconds("counting.count_klein_fast", p=3, k=4)),
    ("counting.kernel_s.p3k5", ("counting.count_klein_fast",),
     lambda t: t.seconds("counting.count_klein_fast", p=3, k=5)),
    ("counting.q4_per_s", ("counting.count_klein_fast",), _q4_rate),
    ("counting.count_weierstrass_s", ("counting.count_weierstrass",),
     lambda t: t.seconds("counting.count_weierstrass")),
    ("cache.lookup_s", ("cache.cached_count",),
     lambda t: t.seconds("cache.cached_count")),
    ("cache.lookups", ("cache.cached_count",),
     lambda t: t.calls("cache.cached_count")),
    ("cache.hit_ratio", ("cache.cached_count",),
     lambda t: _ratio(t.calls("cache.cached_count", hit=True), t.calls("cache.cached_count"))),
    ("cache.record_s", ("cache.record_count",),
     lambda t: t.seconds("cache.record_count")),
    ("cache.records_written", ("cache.record_count",),
     lambda t: t.calls("cache.record_count")),
    ("lfunc.newton_s", ("lfunc.power_sums_to_local_factor",),
     lambda t: t.seconds("lfunc.power_sums_to_local_factor")),
    ("lfunc.purity_s", ("lfunc.weil_bound_check",),
     lambda t: t.seconds("lfunc.weil_bound_check")),
    ("hecke.product_route_s", ("hecke.h3_local_factor_product",),
     lambda t: t.seconds("hecke.h3_local_factor_product")),
    ("hecke.predicted_count_s", ("hecke.predicted_count",),
     lambda t: t.seconds("hecke.predicted_count")),
    ("hecke.predicted_count_calls", ("hecke.predicted_count",),
     lambda t: t.calls("hecke.predicted_count")),
    ("gdcohom.h3_basis_s", ("gdcohom.h3_basis",),
     lambda t: t.seconds("gdcohom.h3_basis")),
    ("gdcohom.alpha_pullback_s", ("gdcohom.alpha_pullback",),
     lambda t: t.seconds("gdcohom.alpha_pullback")),
    ("gdcohom.eigenspace_s", ("gdcohom.eigenspace_split", "gdcohom.fil2_eigenvector_map"),
     lambda t: t.seconds("gdcohom.eigenspace_split") + t.seconds("gdcohom.fil2_eigenvector_map")),
    ("gdcohom.gorenstein_s", ("gdcohom.gorenstein_pairing_nondegenerate",),
     lambda t: t.seconds("gdcohom.gorenstein_pairing_nondegenerate")),
    ("linalg.solve_sparse_s", ("linalg.solve_sparse",),
     lambda t: t.seconds("linalg.solve_sparse")),
    ("linalg.solve_sparse_calls", ("linalg.solve_sparse",),
     lambda t: t.calls("linalg.solve_sparse")),
    ("linalg.rank_s", ("linalg.rank",),
     lambda t: t.seconds("linalg.rank")),
    *((f"thetasupp.scan_s.{ty}", ("thetasupp.scan_type",), _scan_seconds(ty))
      for ty in ("I", "II", "III", "IV")),
    ("thetasupp.combos.IV", ("thetasupp.scan_type",),
     lambda t: sum(s["attrs"].get("combos", 0) for s in t.outer("thetasupp.scan_type", type="IV"))),
    ("thetasupp.stabilizer_s", ("thetasupp.stabilizer_invariance_check",),
     lambda t: t.seconds("thetasupp.stabilizer_invariance_check")),
    ("thetasupp.archimedean_s", ("thetasupp.archimedean_equivariance",),
     lambda t: t.seconds("thetasupp.archimedean_equivariance")),
    ("cli.self_s", ("cli.main",),
     lambda t: t.self_seconds("cli.main")),
)


def layer_metrics(trace: dict) -> tuple:
    """({metric: value}, [missing metrics]) for one dumped trace."""
    spans = SpanSet(trace["spans"])
    missing_targets = set(trace["missing"])
    values, missing = {}, []
    for name, targets, fn in LAYER_METRICS:
        if missing_targets.intersection(targets):
            values[name] = 0.0
            missing.append(name)
        else:
            values[name] = float(fn(spans))
    return values, missing
