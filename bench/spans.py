"""Span tracing of the modulicones layers, installed from outside the package.

`Tracer.install` wraps the public functions of every ``modulicones`` module
(plus the public methods of ``Cone`` and the numbered ``verify`` checks) and
rebinds each wrapper in every ``modulicones.*`` namespace that bound the
original, so a name imported with ``from .linalg import rank`` is traced too.
A layer is a module: the span ``cones.dual_description`` belongs to the layer
``cones``.  Each span records its name, start, end, parent span and the job it
ran in; spans stay in memory until `layer_metrics` reads them.

The package is not edited.  Only the program's own functions are spanned, so
a layer's self time is the time spent in its own code and in the helpers
listed in `UNSPANNED`, which are called once per vector operation and would
cost more to trace than they take to run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable

PACKAGE = "modulicones"

UNSPANNED = {
    "linalg": {"vec", "mat", "zero_vec", "unit_vec", "add", "sub", "scale", "dot", "is_zero_vec"},
    "spaces": {"canonical_label", "sum_to_vector", "fully_pointed", "pair"},
}

# Span names grouped under the metric names the benchmark reports.
DD = ("cones.dual_description",)
SIMPLEX = ("cones.conic_combination", "cones.separating_functional")
CONTAINS = ("cones.contains",)
PORTA_WRITERS = ("porta.porta_write",)
PUSHFORWARD = ("spaces.quotient_pushforward", "spaces.quotient_pushforward_sum")
PULLBACK = ("spaces.forgetful_pullback", "spaces.forgetful_pullback_sum")
BRIDGE_PUSH = ("bridge.hyperelliptic_pushforward", "bridge.pointed_pushforward", "bridge.m21_pushforward")
CACHED = ("relations_and_basis", "enumerate_boundaries")
LAYERS = ("linalg", "cones", "porta", "spaces", "curves", "bridge", "verify", "cli")
CHECK_NUMBERS = range(1, 14)


def package_modules() -> list[ModuleType]:
    """The imported package and its submodules, in a fixed order."""
    return [sys.modules[name] for name in sorted(sys.modules) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _dd_extra(args, kwargs, result) -> tuple[int, int]:
    """(rows in, rays out) of ``dual_description(dim, inequalities, equations=())``."""
    inequalities = kwargs.get("inequalities", args[1] if len(args) > 1 else ())
    equations = kwargs.get("equations", args[2] if len(args) > 2 else ())
    return len(inequalities) + len(equations), len(result[0])


# What a span keeps of its call beyond timing: the sizes a layer metric needs.
EXTRAS: dict[str, Callable] = {
    "cones.dual_description": _dd_extra,
    "cones.contains": lambda args, kwargs, result: not result,
    "porta.porta_write": lambda args, kwargs, result: len(result),
    "porta.cone_json_dumps": lambda args, kwargs, result: len(result),
}


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, job, extra]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: object = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, extra = self.spans, self._stack, EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner: object, attr: str, wrapper: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr) if isinstance(owner, ModuleType) else vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = package_modules()
        wrappers: dict[int, tuple[object, Callable]] = {}
        for mod in modules:
            if mod.__name__ == PACKAGE:
                continue
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or attr in UNSPANNED.get(layer, ())
                    or (layer == "verify" and attr.startswith("check_"))
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, hit[1])

        cones = sys.modules[f"{PACKAGE}.cones"]
        for attr, member in list(vars(cones.Cone).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, classmethod):
                self._rebind(cones.Cone, attr, classmethod(self.wrap(f"cones.{attr}", member.__func__)))
            elif inspect.isfunction(member):
                self._rebind(cones.Cone, attr, self.wrap(f"cones.{attr}", member))

        # run_checks reads the CHECKS tuple, which holds the check functions
        # themselves rather than their module names.
        verify = sys.modules[f"{PACKAGE}.verify"]
        checks = tuple(
            dataclasses.replace(c, run=self.wrap(f"verify.check_{c.number:02d}", c.run)) for c in verify.CHECKS
        )
        self._rebind(verify, "CHECKS", checks)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _functools_cache(obj: object) -> object | None:
    """The ``functools`` cache behind ``obj``, looking through span wrappers."""
    while not hasattr(obj, "cache_info"):
        obj = getattr(obj, "__wrapped__", None)
        if obj is None:
            return None
    return obj


def cache_stats() -> dict[str, tuple[int, int]]:
    """(hits, misses) of the package's cached lookups named in `CACHED`."""
    spaces = sys.modules[f"{PACKAGE}.spaces"]
    out = {}
    for name in CACHED:
        cache = _functools_cache(getattr(spaces, name, None))
        info = cache.cache_info() if cache is not None else None
        out[name] = (info.hits, info.misses) if info is not None else (0, 0)
    return out


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh process starts."""
    for mod in package_modules():
        for obj in vars(mod).values():
            cache = _functools_cache(obj)
            if cache is not None:
                cache.cache_clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], wall: float, caches: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(names: Iterable[str]) -> list[int]:
        return [i for name in names for i in by_name.get(name, ())]

    def calls(*names: str) -> int:
        return len(idx(names))

    def has_ancestor(i: int, names: tuple[str, ...]) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    def inclusive(*names: str) -> float:
        """Time inside any of ``names``, each nested call counted once."""
        return sum(spans[i][2] - spans[i][1] for i in idx(names) if not has_ancestor(i, names))

    def self_s(*names: str) -> float:
        return sum(own[i] for i in idx(names))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
    roots = sum(s[2] - s[1] for s in spans if s[3] < 0)

    dd = [i for i in idx(DD) if spans[i][5] is not None]  # calls that returned
    rays_out = sum(spans[i][5][1] for i in dd)
    contains = idx(CONTAINS)
    m: dict[str, float] = {}
    for fn in ("rank", "rref", "primitive", "solve"):
        m[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        m[f"linalg.{fn}.s"] = inclusive(f"linalg.{fn}")
    m["cones.dd.calls"] = calls(*DD)
    m["cones.dd.s"] = inclusive(*DD)
    m["cones.dd.self_s"] = self_s(*DD)
    m["cones.dd.rows_in"] = sum(spans[i][5][0] for i in dd)
    m["cones.dd.rays_out"] = rays_out
    m["cones.dd.rank_calls_per_ray"] = ratio(
        sum(has_ancestor(i, DD) for i in by_name.get("linalg.rank", ())), rays_out
    )
    m["cones.simplex.calls"] = calls(*SIMPLEX)
    m["cones.simplex.s"] = inclusive(*SIMPLEX)
    m["cones.contains.calls"] = len(contains)
    m["cones.contains.s"] = inclusive(*CONTAINS)
    m["cones.simplex.solves_per_query"] = ratio(
        sum(has_ancestor(i, CONTAINS) for i in idx(SIMPLEX)), len(contains)
    )
    m["cones.simplex.nonmember_frac"] = ratio(sum(bool(spans[i][5]) for i in contains), len(contains))
    m["porta.write.calls"] = calls(*PORTA_WRITERS)
    m["porta.write.self_s"] = self_s(*PORTA_WRITERS)
    m["porta.bytes_out"] = sum(s[5] for s in spans if s[0].startswith("porta.") and isinstance(s[5], int))
    m["spaces.express_in_basis.calls"] = calls("spaces.express_in_basis")
    m["spaces.express_in_basis.s"] = inclusive("spaces.express_in_basis")
    m["spaces.pushforward.s"] = inclusive(*PUSHFORWARD)
    m["spaces.pullback.s"] = inclusive(*PULLBACK)
    for name in CACHED:
        hits, misses = caches[name]
        m[f"spaces.{name}.hit_ratio"] = ratio(hits, hits + misses)
    m["curves.eff_cone.calls"] = calls("curves.eff_cone")
    m["curves.eff_cone.self_s"] = self_s("curves.eff_cone")
    m["curves.nem_hrep.self_s"] = self_s("curves.nem_hrep")
    m["curves.counterexample.s"] = inclusive("curves.counterexample_ftau")
    m["bridge.mg1_family.calls"] = calls("bridge.mg1_inequality_family")
    m["bridge.mg1_family.self_s"] = self_s("bridge.mg1_inequality_family")
    m["bridge.pushforward.s"] = inclusive(*BRIDGE_PUSH)
    for number in CHECK_NUMBERS:
        m[f"verify.check_{number:02d}.s"] = inclusive(f"verify.check_{number:02d}")
    m["cli.main.calls"] = calls("cli.main")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - roots
    return m
