"""The block writers against the streaming writers they replace (``writer_oracle``)."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
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


def assert_matches_oracle(matrix: AttackMatrix, directory: Path) -> None:
    new, old = directory / "new", directory / "old"
    new.mkdir()
    old.mkdir()
    write_matrix_csv(matrix, new / FILES[0], new / FILES[1], new / FILES[2])
    write_matrix_files(matrix, old)
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
    """Byte for byte the oracle's files, whatever the codes and however the cells are blocked."""
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


def matrix(sources: list[str], targets: list[str], N: np.ndarray) -> AttackMatrix:
    n = len(sources)
    return AttackMatrix(sources=sources, targets=targets, N=N, abandoned=np.arange(n, dtype=float),
                        unroutable=np.zeros(n), total_plots=float(N.sum()) + n * (n - 1) / 2,
                        params_echo={"lambda": 0.1})


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


def test_matrix_larger_than_one_block(tmp_path):
    # each "k!" sorts before its "k" in the JSON keys; with 60 targets the first
    # block would end between such a pair, so it must end one row later
    sources = [code for k in range(60) for code in (f"{k:03d}", f"{k:03d}!")]
    targets = [f"T{k:02d}" for k in range(60)]
    rng = np.random.default_rng(7)
    N = rng.uniform(0.0, 100.0, (len(sources), len(targets)))
    N[rng.random(N.shape) < 0.3] = 0.0
    assert N.size > dataset.BLOCK_CELLS
    assert_matches_oracle(matrix(sources, targets, N), tmp_path)
