import sys
from fractions import Fraction
from unittest import mock

import pytest

from modulicones import cones


def _functools_cache(obj):
    """The ``functools`` cache behind ``obj``, through any wrappers, or None."""
    while not hasattr(obj, "cache_clear"):
        obj = getattr(obj, "__wrapped__", None)
        if obj is None:
            return None
    return obj


def clear_caches():
    """Empty every module-level ``functools`` cache of the package."""
    for name, module in list(sys.modules.items()):
        if name == "modulicones" or name.startswith("modulicones."):
            for obj in list(vars(module).values()):
                cache = _functools_cache(obj)
                if cache is not None:
                    cache.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    """Empty the package's caches before each test, so no test is answered
    by a value an earlier test cached (the named cones are shared per
    process)."""
    clear_caches()


@pytest.fixture
def count_fractions(monkeypatch):
    """``count_fractions()`` starts recording the arguments of every
    `Fraction` built from then to the end of the test, in the list it returns.
    ``count_fractions(module)`` records only those built by code in
    ``module`` itself, not inside `Fraction` arithmetic."""

    def start(module=None) -> list:
        built = []
        real_new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            if module is None or sys._getframe(1).f_globals.get("__name__") == module.__name__:
                built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        return built

    return start


@pytest.fixture(scope="session")
def counted_dual_description():
    """``counted_dual_description(*args)`` is ``(dual_description(*args),
    calls)``, where ``calls`` counts the `cones.rank` calls of the run: one
    per ray the final sweep ranks.  Session-scoped, so Hypothesis tests can
    use it; each call patches `cones.rank` only while it runs."""

    def run(*args):
        calls = 0
        real_rank = cones.rank

        def counted(rows):
            nonlocal calls
            calls += 1
            return real_rank(rows)

        with mock.patch.object(cones, "rank", counted):
            out = cones.dual_description(*args)
        return out, calls

    return run
