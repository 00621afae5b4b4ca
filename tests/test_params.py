from __future__ import annotations

import importlib
import pkgutil

import tnrisk
from tnrisk import BLOCKED

from conftest import barrier, params_from_dicts


def test_caller_barrier_dict_unchanged():
    T = {("A", "X"): 1.0, ("B", "X"): BLOCKED}
    p = params_from_dicts(S={"A": 1.0, "B": 2.0}, T=T, I={"X": 1.0}, Y={"X": -2.0})
    assert T == {("A", "X"): 1.0, ("B", "X"): BLOCKED}
    assert barrier(p, "A", "A") == 0.0 and barrier(p, "B", "B") == 0.0


def test_one_error_type():
    """Every domain error is a plain ModelError, which the package root exports; no tnrisk
    module defines a subclass of it."""
    for module in pkgutil.iter_modules(tnrisk.__path__, "tnrisk."):
        importlib.import_module(module.name)
    from tnrisk import ModelError

    def descendants(cls):
        return [d for s in cls.__subclasses__() for d in (s, *descendants(s))]

    assert [c for c in descendants(ModelError) if c.__module__.startswith("tnrisk")] == []
