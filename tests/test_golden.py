"""Output files of fixed configs, compared byte for byte with committed copies.

The committed levels output (p = q = 3, r = 1) and its JSON twin,
golden_levels_json, were re-pinned once when each ascent stage at p = q
with r = 1 came to climb its one problem once, from the q problem's
starts: `lower` then takes the q constant for both terms and moved by
-3.7e-6 relative, and the radius, ceiling and max_pointwise_excess of
k = 3 moved at roundoff; `upper` kept its bits.  The
second levels output, at p = 2, q = 5, was written while every random
sample was still evaluated, and the ascents of p != q kept its bits.  When
the random samples were deleted, its `upper` rose to 0.0 at every k, the
floor J(0) = 0, as every fixed point there lies below 0, and its
max_pointwise_excess moved to that of the fixed points (-3631.9 and
-3800.3 to -55816.8); the five other level outputs kept their bytes.
`upper` 0.0 lies below `lower`: that is the defect of ROADMAP item 2,
whose upper ascent re-pins this file together with golden_levels and
golden_levels_json.  All three level outputs were
re-pinned once when the level ascents became Riemannian Newton steps
(ROADMAP item 14): `lower` fell by 0.07% (p = q = 3) and 0.09% (2, 5) to
the converged Gagliardo-Nirenberg constants, the (2, 5) radius and
ceiling of k = 3 rose because the p = 2 sphere minimum, which the
first-order ascent had stopped above, is 3.34 times lower, and the other
moved values moved at roundoff.
Three more level outputs pin paths the 1-D n = 32, k_max 3 ones do not
reach: golden_levels_2d, the forced 2-D n = 64 command at k_max 5 of
benchmark workload levels-sampling, whose constant comes from the radial
ground-state solve; golden_levels_r08, at p = q with r = 0.8, where the q
and p halves take different constants; and golden_levels_krylov, 2-D
n = 130, past solve._KRYLOV_N.
All six level outputs were re-pinned once more when the ascents gave way
to certified constants (ROADMAP item 15): `lower` moved down, to the sharp
whole-space Gagliardo-Nirenberg constants (-1.8e-6 relative at p = q = 3
in 1-D, -3.0e-5 at (2, 5), -1.05e-2 in 2-D, and at r = 0.8, whose q half
takes Lieb's constant, gamma 0.7198 -> 0.4080), every radius grew to the
Hölder bound's (1.22x in 1-D, 1.5x in 2-D at p = q = 3), and `upper`,
`ceiling` and `max_pointwise_excess` moved with the radii and the ray
point added at 3/8 of each.
The four branch outputs were
re-pinned once their one-mode seeds ran on the seed's parity class of the
basis, which moved energies and coefficients at roundoff and made the
coefficients off each class exact zeros; the records, their order and the
notes stayed.  The three at p = q with h = k (golden_branch,
golden_deflated, golden_symmetric) were re-pinned once more, at roundoff
again, when their seeds came to lie on the diagonal u = v bitwise and
their runs became diagonal: each step solves the scalar equation's
Jacobian L - P, and each record of such a run has u = v bitwise.  The
(2, 5) hunt, golden_symmetric_krylov, pins the system's step by block
elimination.  The two forced hunts pin the order of tied records past
roundoff in their coefficients; the forced square's hunt stores two
records of deflated runs, which run on the full system and have u != v.
The two symmetric hunts, 1-D at n = 32 and 2-D at n = 130, pin the folding
of mirror seeds; their class problems (16 to 36 modes) step densely, so
the 2-D one no longer runs GMRES.  The two region outputs, CSV at N = 6 and
JSON at N = 5, were written while the CLI still built one row object per
scanned point; they hold all three statuses, empty cells, the exactly-zero
hyperbola gap at p = q = 2 (N = 6) and the roundoff boundary point p = 4,
q = 1.5 (N = 5).  Any change of result, down to the last bit of a float,
shows here.
"""

import json
from pathlib import Path

import pytest

from indefsaddle.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, command, suffix",
    [
        ("golden_levels", "levels", ".csv"),
        ("golden_levels_json", "levels", ".json"),
        ("golden_levels_pq", "levels", ".csv"),
        ("golden_levels_2d", "levels", ".csv"),
        ("golden_levels_r08", "levels", ".csv"),
        ("golden_levels_krylov", "levels", ".csv"),
        ("golden_branch", "branch", ".json"),
        ("golden_deflated", "branch", ".json"),
        ("golden_symmetric", "branch", ".json"),
        ("golden_symmetric_krylov", "branch", ".json"),
        ("golden_region", "region", ".csv"),
        ("golden_region_json", "region", ".json"),
    ],
)
def test_outputs_match_committed_bytes(tmp_path, name, command, suffix):
    out = tmp_path / name
    config = str(DATA / f"{name}.config.json")
    assert main([command, "--config", config, "--out", str(out)]) == 0
    assert (tmp_path / (name + suffix)).read_bytes() == (DATA / (name + suffix)).read_bytes()


def test_golden_deflated_hunt_converges_deflated_runs(tmp_path, monkeypatch):
    """The forced square's hunt stores two records from deflated runs, so the
    committed file pins the deflated Newton path too."""
    from indefsaddle import solve

    outcomes = []
    real = solve.deflated_solve

    def deflated(*args, **kwargs):
        result = real(*args, **kwargs)
        outcomes.append(result.converged)
        return result

    monkeypatch.setattr(solve, "deflated_solve", deflated)
    config = str(DATA / "golden_deflated.config.json")
    assert main(["branch", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert outcomes == [True, True]
    assert (tmp_path / "out.json").read_bytes() == (DATA / "golden_deflated.json").read_bytes()


@pytest.mark.parametrize("name", ["golden_branch", "golden_symmetric"])
def test_diagonal_hunts_store_records_with_u_equal_v(name):
    """Every seed of these p = q, h = k hunts lies on the diagonal and no
    record comes from deflation, so every record has u = v bitwise."""
    solutions = json.loads((DATA / f"{name}.json").read_text())["solutions"]
    assert solutions
    for sol in solutions:
        assert json.dumps(sol["u"]) == json.dumps(sol["v"])
