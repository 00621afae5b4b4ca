from __future__ import annotations

from tnrisk import BLOCKED

from conftest import barrier, params_from_dicts


def test_caller_barrier_dict_unchanged():
    T = {("A", "X"): 1.0, ("B", "X"): BLOCKED}
    p = params_from_dicts(S={"A": 1.0, "B": 2.0}, T=T, I={"X": 1.0}, Y={"X": -2.0})
    assert T == {("A", "X"): 1.0, ("B", "X"): BLOCKED}
    assert barrier(p, "A", "A") == 0.0 and barrier(p, "B", "B") == 0.0
