from __future__ import annotations

import importlib
import math
import pkgutil
import re
import struct

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import tnrisk
from tnrisk import BLOCKED, ModelError, dataset
from tnrisk.params import parse_cost, parse_number, to_float
from tnrisk.scenario import ScenarioSpec

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


def _float(v) -> float | None:
    """float(v), or None where float() refuses v."""
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        return None


@given(st.floats().map(repr) | st.sampled_from([" 2.5 ", "1_000", "+3", "Infinity", "-0", "nan"]))
def test_to_float_reads_text_as_float_does(text):
    """Text that float() takes reads as float() reads it, to the bit; NaN as NaN."""
    expected = float(text)
    if math.isnan(expected):
        assert math.isnan(to_float(text))
    else:
        assert struct.pack("<d", to_float(text)) == struct.pack("<d", expected)


@given(st.text(" \t", max_size=3), st.lists(st.booleans(), min_size=7, max_size=7),
       st.text(" \t", max_size=3))
@example(" ", [False] * 7, "\t")
def test_to_float_reads_blocked_in_any_case_and_spacing(before, upper, after):
    word = "".join(c.upper() if up else c for c, up in zip("blocked", upper))
    assert to_float(before + word + after) == BLOCKED == math.inf


@given(st.text(st.sampled_from("0123456789.+-_eE \tinfatyINFTYblocked")) | st.text()
       | st.sampled_from([True, False, None, 10**400, -10**400, [], {}, b"blocked"]))
def test_to_float_reads_anything_else_as_nan(v):
    """Text float() refuses, other than 'blocked', is NaN, and so is a bool (JSON true is not
    1), None, an int past float's range or anything else float() refuses."""
    blocked = isinstance(v, str) and v.isascii() and v.strip().lower() == "blocked"
    assume(isinstance(v, bool) or _float(v) is None and not blocked)
    assert math.isnan(to_float(v))


# "blocked" with U+212A KELVIN SIGN for its k, which str.lower() maps to "k"
KELVIN_BLOCKED = "bloc\u212aed"


def test_blocked_is_ascii(tmp_path):
    """The Kelvin-sign spelling is not the word: it reads as NaN, a spec's a_override spelled so
    is refused, and so is a barrier cell, by the row reader, with its line; the word in any ASCII
    case, with spaces around it, is still BLOCKED."""
    assert math.isnan(to_float(KELVIN_BLOCKED)) and KELVIN_BLOCKED.lower() == "blocked"
    assert to_float("BLOCKED") == to_float(" blocked\t") == BLOCKED
    with pytest.raises(ModelError, match="^scenario a_override must be a number"):
        ScenarioSpec(a_override=KELVIN_BLOCKED)
    assert ScenarioSpec(a_override=" blocked\t").a_override == BLOCKED
    path = tmp_path / "barriers.csv"
    path.write_text(f"origin,dest,cost\nAAA,BBB,1\nAAA,CCC,{KELVIN_BLOCKED}\n", encoding="utf-8")
    message = (f"line 3: cost in barriers.csv must be a number, 'inf' or 'blocked', "
               f"got {KELVIN_BLOCKED!r}")
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        dataset._load_barriers(path, {"AAA": 1.0}, {"BBB", "CCC"})


@pytest.mark.parametrize("parse, value, message", [
    (parse_number, "blocked", "value must be a finite number, got 'blocked'"),
    (parse_number, None, "value must be a finite number, got None"),
    (parse_cost, True, "cost must be a number, 'inf' or 'blocked', got True"),
    (parse_cost, "", "cost must be a number, 'inf' or 'blocked', got ''"),
    (parse_cost, "-inf", "cost must be a number, 'inf' or 'blocked', got '-inf'"),
    (parse_number, 10**420, f"value must be a finite number, got {10**420!r}")])
def test_parse_errors_name_the_value(parse, value, message):
    with pytest.raises(ValueError) as error:
        parse(value)
    assert str(error.value) == message
