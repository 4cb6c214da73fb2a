"""Traced run: timing and count wrappers installed from outside the program.

`Tracer.install` replaces, by `setattr`, every public function of the eight
wignersim modules, the private functions the per-layer metrics name, and the
`__post_init__` of `SymplecticTransform` and `GaussianState`.  It patches
every module attribute that refers to an original, so the names that other
modules bind by `from .wigner import moment` are wrapped too.  Each wrapped
call records a span (name, start, end, parent) in memory; the hottest leaves
(`_poly_mul`, the Wick recursion `_gaussian_expectation`, `Term` and
`WignerExpr` construction) only count, because a span each would cost more
than the work they do.  Spans are written when the run ends.
"""

from __future__ import annotations

import importlib
import os
import types
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("symplectic", "gaussian", "wigner", "measurements", "conditional", "estimation", "scenario", "cli")
PRIVATE = {
    "wigner": ("_integrate_out", "_poly_mul", "_gaussian_expectation"),
    "scenario": ("_optimal_phi", "_click_cfi", "_qfi"),
}
CLASS_SPANS = (("symplectic", "SymplecticTransform"), ("gaussian", "GaussianState"))

HERALD_ENTRIES = (
    "add_photons_bs", "add_photons_bs_branches", "add_photon_spdc", "add_photon_spdc_branches",
    "subtract_photons", "subtract_branches", "subtract_click", "subtract_click_branches", "failure_branch",
)
DETECTION_FNS = ("measure", "intensity", "homodyne", "parity", "intensity_difference")

# Layer groups: metric prefix -> (functions whose outermost calls are counted,
# functions whose self time is summed).
GROUPS = {
    "gaussian.check_covariance": (("gaussian.check_covariance",),) * 2,
    "gaussian.propagate": (("gaussian.propagate",),) * 2,
    "scenario.build_pipeline": (("scenario.build_pipeline",),) * 2,
    "estimation.phase_variance_error_prop": (("estimation.phase_variance_error_prop",),) * 2,
    "wigner.apply_symplectic": (("wigner.apply_symplectic",),) * 2,
    "wigner._integrate_out": (("wigner._integrate_out",),) * 2,
    "wigner.attenuate": (("wigner.attenuate",),) * 2,
    "wigner.project_fock_unnormalized": (("wigner.project_fock_unnormalized",),) * 2,
    "conditional.herald": (tuple(f"conditional.{n}" for n in HERALD_ENTRIES), ("conditional.*",)),
    "wigner.moment": (("wigner.moment",),) * 2,
    "measurements.measure": (("measurements.measure",), tuple(f"measurements.{n}" for n in DETECTION_FNS)),
    "wigner.purity": (("wigner.purity",),) * 2,
    "wigner.photon_number_distribution": (("wigner.photon_number_distribution",),) * 2,
    "measurements.click_probability": (("measurements.click_probability",),) * 2,
    "estimation.cfi": (("estimation.cfi", "estimation.probabilistic_cfi"),) * 2,
    "estimation.qfi": (("estimation.qfi_pure_gaussian", "estimation.qfi_mixed_gaussian",
                        "estimation.qfi_pure_wigner"),) * 2,
}
SELF_ONLY = ("scenario._optimal_phi", "scenario._click_cfi", "scenario._qfi", "scenario.emit")
INCLUSIVE = ("scenario.evaluate_point", "scenario._optimal_phi", "scenario._click_cfi", "scenario._qfi")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time in child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.outer_calls: Counter = Counter()
        self._depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.build_keys: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, groups: tuple[str, ...]):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, depth = self._stack, self._depth
        span_name, span_parent, span_start, span_end = self.span_name, self.span_parent, self.span_start, self.span_end
        self_s, total_s, calls, outer = self.self_s, self.total_s, self.calls, self.outer_calls

        def wrapper(*args, **kwargs):
            for g in groups:
                if not depth[g]:
                    outer[g] += 1
                depth[g] += 1
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            span_start.append(t0)
            span_end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                span_end[idx] = t1
                if stack:
                    stack[-1][1] += dur
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                calls[name] += 1
                for g in groups:
                    depth[g] -= 1

        return wrapper

    def _special(self, name: str, fn):
        """Count-only wrappers for hot leaves, and span wrappers with extra counts."""
        counts, maxima = self.counts, self.maxima
        if name == "wigner._poly_mul":
            def poly_mul(a, b):
                out = fn(a, b)
                counts["wigner.poly_mul.calls"] += 1
                counts["wigner.poly_mul.pair_products"] += len(a) * len(b)
                if len(out) > maxima["wigner.poly.max_size"]:
                    maxima["wigner.poly.max_size"] = len(out)
                return out
            return poly_mul
        if name == "wigner._gaussian_expectation":
            def wick(*args, **kwargs):
                counts["wigner.wick.calls"] += 1
                return fn(*args, **kwargs)
            return wick
        if name == "wigner.Term.__post_init__":
            def term_init(term):
                fn(term)
                if len(term.poly) > maxima["wigner.poly.max_size"]:
                    maxima["wigner.poly.max_size"] = len(term.poly)
            return term_init
        if name == "wigner.WignerExpr.__init__":
            def expr_init(expr, modes, terms):
                fn(expr, modes, terms)
                if len(terms) > maxima["wigner.expr.max_terms"]:
                    maxima["wigner.expr.max_terms"] = len(terms)
            return expr_init
        span = self._span_wrapper(name, fn, self._groups_of(name))
        if name == "estimation.golden_minimize":
            def golden(f, *args, **kwargs):
                def counted(x):
                    counts["estimation.golden_minimize.evals"] += 1
                    return f(x)
                return span(counted, *args, **kwargs)
            return golden
        if name == "scenario.build_pipeline":
            def build(config, phi=None):
                p = config.phi if phi is None else phi
                self.build_keys.add(repr((config.inputs, config.modifications, config.noise, float(p))))
                return span(config, phi)
            return build
        if name == "scenario.emit":
            def emit(*args, **kwargs):
                paths = span(*args, **kwargs)
                counts["scenario.emit.bytes"] += sum(os.path.getsize(p) for p in paths)
                return paths
            return emit
        return span

    @staticmethod
    def _groups_of(name: str) -> tuple[str, ...]:
        return tuple(g for g, (entries, _) in GROUPS.items() if name in entries)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"wignersim.{m}") for m in MODULES}
        replacement: dict[int, object] = {}
        for mname, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_")
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and (public or attr in PRIVATE.get(mname, ()))
                ):
                    replacement[id(fn)] = self._special(f"{mname}.{attr}", fn)
        # rebind every module attribute that holds an original, including re-imports
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                if id(fn) in replacement and isinstance(fn, types.FunctionType):
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, replacement[id(fn)])
        methods = [(mods[m], cls, "__post_init__") for m, cls in CLASS_SPANS]
        methods += [(mods["wigner"], "Term", "__post_init__"), (mods["wigner"], "WignerExpr", "__init__")]
        for mod, cls_name, meth in methods:
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            name = f"{mod.__name__.split('.')[-1]}.{cls_name}.{meth}"
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self._special(name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def _group_self(self, members: tuple[str, ...]) -> float:
        total = 0.0
        for name, s in self.self_s.items():
            if name in members or f"{name.split('.', 1)[0]}.*" in members:
                total += s
        return total

    def metrics(self, points: int) -> dict[str, float]:
        """The per-layer metrics of this run, by name."""
        out: dict[str, float] = {
            "symplectic.transforms": self.calls["symplectic.SymplecticTransform.__post_init__"],
            "symplectic.s": self._group_self(("symplectic.*",)),
            "gaussian.states": self.calls["gaussian.GaussianState.__post_init__"],
        }
        for g, (_, members) in GROUPS.items():
            out[f"{g}.calls"] = self.outer_calls[g]
            out[f"{g}.s"] = self._group_self(members)
        builds = self.calls["scenario.build_pipeline"]
        out["scenario.builds_per_point"] = builds / points
        out["scenario.rebuild_ratio"] = builds / len(self.build_keys) if self.build_keys else 0.0
        for name in ("estimation.golden_minimize.evals", "wigner.poly_mul.calls", "wigner.poly_mul.pair_products",
                     "wigner.wick.calls", "scenario.emit.bytes"):
            out[name] = self.counts[name]
        for name in ("wigner.poly.max_size", "wigner.expr.max_terms"):
            out[name] = self.maxima[name]
        for name in SELF_ONLY:
            out[f"{name}.s"] = self.self_s[name]
        for name in INCLUSIVE:
            out[f"{name}.total_s"] = self.total_s[name]
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as .npz arrays (name id, parent span, start, end) plus a name table."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(self.names),
        )


def is_count(name: str) -> bool:
    """Count-type metrics must repeat exactly across runs of one seed."""
    return not (name.endswith(".s") or name.endswith("_s"))
