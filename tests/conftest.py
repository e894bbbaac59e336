import sys
from fractions import Fraction

import pytest


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
