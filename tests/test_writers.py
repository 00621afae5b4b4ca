"""The block writers against the streaming writers they replace (``writer_oracle``)."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnrisk import AttackMatrix, ModelParams, dataset, solve
from tnrisk.evader import write_matrix_csv

from conftest import params_from_dicts, random_params
from writer_oracle import write_delta_csv, write_matrix_files

FILES = ("attack_matrix.csv", "attack_matrix.json", "plot_data.csv")

# codes the csv module must quote (",", '"', space, newline), non-ASCII codes, and
# "!" and "-", which sort below or at the "-" of a "source->target" JSON key
CODES = st.text(alphabet='AB!- ,"\né国', min_size=1, max_size=4)

# the parameters the JSON document echoes, as the CLI passes them
PARAMS = {"lambda": 0.1, "abandon_yield": "inf", "weights_preset": "default"}


def assert_matches_oracle(matrix: AttackMatrix, directory: Path) -> None:
    new, old = directory / "new", directory / "old"
    new.mkdir()
    old.mkdir()
    write_matrix_csv(matrix, new / FILES[0], (new / FILES[1], PARAMS), new / FILES[2])
    write_matrix_files(matrix, PARAMS, old)
    for name in FILES:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def relabel(p: ModelParams, codes: list[str]) -> ModelParams:
    """``p`` with its source and target codes renamed to ``codes``, in order."""
    name = dict(zip(sorted(p.S) + sorted(p.I), codes))
    return params_from_dicts(S={name[i]: v for i, v in p.S.items()},
                             T={(name[i], name[j]): v for (i, j), v in p.T.items()},
                             I={name[j]: v for j, v in p.I.items()},
                             Y={name[j]: v for j, v in p.Y.items()}, A=p.A, lam=p.lam)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(CODES, min_size=11, max_size=11, unique=True),
       st.sampled_from([1, 3, dataset.BLOCK_CELLS]))
@settings(max_examples=100, deadline=None)
def test_writers_match_oracle(seed, codes, block):
    """Byte for byte the oracle's files, whatever the codes and however the cells are blocked;
    with blocks of 1 and 3 cells many tables cross the orjson threshold, 4 * BLOCK_CELLS."""
    p = relabel(random_params(np.random.default_rng(seed), blocked_fraction=0.5), codes)
    m = solve(p)
    alt = p.copy()
    alt.lam = p.lam / 2
    delta = solve(alt).N - m.N
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataset, "BLOCK_CELLS", block):
        directory = Path(tmp)
        assert_matches_oracle(m, directory)
        dataset.write_cells(delta, m.sources, m.targets, directory / "new" / "delta.csv",
                            ["source", "target", "delta"])
        write_delta_csv(delta, m.sources, m.targets, directory / "old" / "delta.csv")
        assert ((directory / "new" / "delta.csv").read_bytes()
                == (directory / "old" / "delta.csv").read_bytes())


def assert_reprs(floats: list[float]) -> None:
    """_reprs with orjson gives each float's repr."""
    assert dataset._reprs(np.array(floats, dtype=float), orjson.dumps) == list(map(repr, floats))


# log-uniform over 1e-320 ... 1e308, of either sign: each band whose form _reprs fixes
# up is sampled densely
LOG_UNIFORM = st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([1, -1]),
                        st.floats(min_value=-320, max_value=308))


@given(st.lists(st.floats() | st.floats(min_value=-1e16, max_value=1e16) | LOG_UNIFORM))
@settings(max_examples=500, deadline=None)
def test_orjson_text_is_repr(floats):
    """Any float64, nan, the infinities, subnormals and -0.0 included.  This checks the
    installed orjson's float text, so a change to it fails here, not in a user's files."""
    assert_reprs(floats)


def test_orjson_text_is_repr_at_the_range_ends():
    """The ends of the bands where orjson's form differs from repr's, 1e-9, 1e-5, 1e-4 and
    1e16, with their neighbours, a value of each exponent in those bands, the integers past
    2**53, and the least and greatest floats, of either sign; no value, no text."""
    ends = [1e-9, 1e-5, 1e-4, 1e16]
    edges = [*ends, *np.nextafter(ends, 0), *np.nextafter(ends, np.inf),
             *(float(f"1.2345e{e}") for e in [*range(-9, -4), *range(16, 309)]),
             1e15, 2.0**53, 2.0**53 + 2, 5e-324, 1.7976931348623157e308]
    assert_reprs([float(v) for v in edges] + [-float(v) for v in edges])
    assert dataset._reprs(np.array([]), orjson.dumps) == []


def matrix(sources: list[str], targets: list[str], N: np.ndarray) -> AttackMatrix:
    n = len(sources)
    return AttackMatrix(sources=sources, targets=targets, N=N, abandoned=np.arange(n, dtype=float),
                        unroutable=np.zeros(n), total_plots=float(N.sum()) + n * (n - 1) / 2)


def test_json_keys_out_of_row_major_order(tmp_path):
    # "A!->X" sorts before "A->X" because "!" sorts below "-"
    codes = ["A", "A!", "A!!", "AB"]
    m = matrix(codes, ["X", "Y"], np.arange(1.0, 9.0).reshape(4, 2))
    assert_matches_oracle(m, tmp_path)
    keys = list(json.loads((tmp_path / "new" / FILES[1]).read_text())["expected_plots"])
    assert keys == sorted(keys)
    assert keys[:2] == ["A!!->X", "A!!->Y"]


def test_all_zero_matrix(tmp_path):
    m = matrix(["A", "B"], ["X"], np.zeros((2, 1)))
    assert_matches_oracle(m, tmp_path)
    assert (tmp_path / "new" / FILES[0]).read_text() == "source,target,expected_plots\n"
    assert (tmp_path / "new" / FILES[2]).read_text() == "source,target,value,normalized\n"
    assert '\n  "expected_plots": {},\n' in (tmp_path / "new" / FILES[1]).read_text()


def reordered_pairs(pairs: int) -> AttackMatrix:
    """Rows "000", "000!", "001", "001!", ...: each "k!" sorts before its "k" in the JSON keys,
    so no row block ends between them."""
    sources = [code for k in range(pairs) for code in (f"{k:03d}", f"{k:03d}!")]
    targets = [f"T{k:02d}" for k in range(60)]
    rng = np.random.default_rng(7)
    N = rng.uniform(0.0, 100.0, (len(sources), len(targets)))
    N[rng.random(N.shape) < 0.3] = 0.0
    return matrix(sources, targets, N)


def test_matrix_larger_than_one_block(tmp_path):
    # with 60 targets the first block would end between a "k!" and its "k", so it must end
    # one row later
    m = reordered_pairs(60)
    assert m.N.size > dataset.BLOCK_CELLS
    assert_matches_oracle(m, tmp_path)


def test_split_inside_a_reordered_pair(tmp_path, monkeypatch):
    """59 pairs of one-row blocks: no block ends between a "k!" and its "k", so each pair is
    one block and its JSON cells are reordered within it."""
    monkeypatch.setattr(dataset, "BLOCK_CELLS", 60)
    m = reordered_pairs(59)
    key_order = sorted(range(len(m.sources)), key=lambda r: m.sources[r] + "->")
    assert list(dataset._row_blocks(60, key_order)) == [(r, r + 2) for r in range(0, 118, 2)]
    assert_matches_oracle(m, tmp_path)


@pytest.mark.parametrize("zero", ["first", "second", "both"])
def test_split_with_a_half_of_zeros(tmp_path, monkeypatch, zero):
    """Leading, trailing or only zero rows, one row a block: the JSON object's first cell
    follows no comma and every later one follows one, wherever the first nonzero block is."""
    N = np.arange(1.0, 17.0).reshape(8, 2)
    if zero != "second":
        N[:4] = 0.0
    if zero != "first":
        N[4:] = 0.0
    monkeypatch.setattr(dataset, "BLOCK_CELLS", 2)
    assert_matches_oracle(matrix([f"S{k}" for k in range(8)], ["X", "Y"], N), tmp_path)


@pytest.mark.parametrize("failing", ["first", "later"])
def test_a_failed_write_raises_and_leaves_only_the_outputs(tmp_path, monkeypatch, failing):
    """A formatting failure in the first block, or in a later one, is raised as it is, and
    leaves no file but the outputs."""
    reprs = dataset._reprs
    calls = []

    def failing_reprs(values, dumps):
        calls.append(None)
        if failing == "first" or len(calls) > 4:
            raise RuntimeError("formatting failed")
        return reprs(values, dumps)

    monkeypatch.setattr(dataset, "_reprs", failing_reprs)
    monkeypatch.setattr(dataset, "BLOCK_CELLS", 2)
    m = matrix([f"S{k}" for k in range(8)], ["X", "Y"], np.arange(1.0, 17.0).reshape(8, 2))
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_matrix_csv(m, tmp_path / FILES[0], (tmp_path / FILES[1], PARAMS),
                         tmp_path / FILES[2])
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(FILES)
