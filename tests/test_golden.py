"""Output files of fixed configs, compared byte for byte with committed copies.

The committed outputs in tests/data were written by the program before the
energy evaluations, the Newton loops and the projected ascents were merged;
any change of result, down to the last bit of a float, shows here.
"""

from pathlib import Path

import pytest

from indefsaddle.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, command, suffix",
    [
        ("golden_levels", "levels", ".csv"),
        ("golden_branch", "branch", ".json"),
        ("golden_deflated", "branch", ".json"),
    ],
)
def test_outputs_match_committed_bytes(tmp_path, name, command, suffix):
    out = tmp_path / name
    config = str(DATA / f"{name}.config.json")
    assert main([command, "--config", config, "--out", str(out)]) == 0
    assert (tmp_path / (name + suffix)).read_bytes() == (DATA / (name + suffix)).read_bytes()
