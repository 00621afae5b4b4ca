from __future__ import annotations

from tnrisk import BLOCKED, ModelParams


def test_caller_barrier_dict_unchanged():
    T = {("A", "X"): 1.0, ("B", "X"): BLOCKED}
    p = ModelParams(S={"A": 1.0, "B": 2.0}, T=T, I={"X": 1.0}, Y={"X": -2.0})
    assert T == {("A", "X"): 1.0, ("B", "X"): BLOCKED}
    assert p.T[("A", "A")] == 0.0 and p.T[("B", "B")] == 0.0
