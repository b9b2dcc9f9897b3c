import contextlib
import csv
import importlib.metadata
import io
import json
import math
import subprocess
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

import pairons
import pairons.bosonbcs
import pairons.cli
import pairons.collapse
import pairons.paironmap
import pairons.spin
from pairons import BosonState, collapse_points
from pairons.cli import bcs_main, lmg_main
from conftest import module_cli, shift_one_pairon

SPECTRUM_J1 = """\
index,energy,parity,degenerate
0,-1.4142135623730951,even,0
1,0,odd,0
2,1.4142135623730951,even,0
"""

CROSSINGS_J2 = """\
k,gx,pairs,min_gap,verified
0,-1,-2:-1,0,1
1,-3,-2:1|-1:0,0,1
"""

BCS_SPECTRUM = """\
index,energy,seniority,degenerate
0,0.3819660112501051,00,0
1,1,11,0
2,2.6180339887498949,00,0
"""

BCS_SPECTRUM_N6 = """\
index,energy,seniority,degenerate
0,1.322123517036947,000,0
1,1.3247965051247474,110,0
2,1.9912190904426366,101,0
3,2.0282594500957098,011,0
4,2.3307679137177937,000,0
5,2.5312162728976668,110,0
6,2.63676521397581,101,0
7,3.0662979558588566,011,0
8,3.0719721885442079,000,0
9,3.6728915748241291,110,0
10,3.674704655717639,101,0
11,4.1392131670139207,000,0
12,4.2793013709167562,110,0
13,4.3752075532281394,000,0
14,4.3756337168635007,011,0
15,5.1347465565861912,000,0
16,5.1351755027188926,101,0
17,5.4506517232778924,011,0
18,5.9256033432016988,110,0
19,6.1505505664353928,101,0
20,6.7165008207485863,000,0
21,6.8752861023153473,000,0
22,6.9828008268085542,011,0
23,7.2661909330349967,110,0
24,8.1825516915813132,000,0
25,8.4115849707096189,101,0
26,9.0963563270954868,011,0
27,10.351630489227544,000,0
"""

# the same spectrum read off np.linalg.eigh, which also solves the vectors
BCS_SPECTRUM_N6_EIGH = """\
index,energy,seniority,degenerate
0,1.3221235170369472,000,0
1,1.3247965051247466,110,0
2,1.9912190904426363,101,0
3,2.0282594500957098,011,0
4,2.3307679137177937,000,0
5,2.5312162728976673,110,0
6,2.63676521397581,101,0
7,3.0662979558588561,011,0
8,3.0719721885442097,000,0
9,3.6728915748241291,110,0
10,3.6747046557176395,101,0
11,4.1392131670139207,000,0
12,4.2793013709167562,110,0
13,4.3752075532281394,000,0
14,4.3756337168635007,011,0
15,5.1347465565861912,000,0
16,5.1351755027188952,101,0
17,5.4506517232778924,011,0
18,5.9256033432016988,110,0
19,6.1505505664353937,101,0
20,6.7165008207485846,000,0
21,6.8752861023153455,000,0
22,6.9828008268085551,011,0
23,7.2661909330349976,110,0
24,8.1825516915813115,000,0
25,8.4115849707096206,101,0
26,9.0963563270954833,011,0
27,10.351630489227553,000,0
"""


def run_lmg(capsys, *argv):
    rc = lmg_main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_bcs(capsys, *argv):
    rc = bcs_main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_spectrum_frozen(capsys):
    rc, out, _ = run_lmg(capsys, "spectrum", "--j", "1", "--gx", "1", "--gy", "-1")
    assert rc == 0
    assert out == SPECTRUM_J1


def test_crossings_frozen(capsys):
    rc, out, _ = run_lmg(capsys, "crossings", "--j", "2")
    assert rc == 0
    assert out == CROSSINGS_J2


@pytest.mark.parametrize("eps", ["1", "-2", "0.3"])
def test_crossings_are_those_of_the_eigensolve(capsys, eps):
    # lam = 0 on the diagonal: the rows read off H's diagonal are those of
    # a full diagonalization, min_gap to the last bit
    for j in range(1, 41):
        rc, out, _ = run_lmg(capsys, "crossings", "--j", str(j), "--eps", eps)
        assert rc == 0
        expected = []
        for cp in pairons.crossing_points(j):
            h = pairons.build_hamiltonian(pairons.ModelParams.from_gammas(
                j, cp.gamma_x, cp.gamma_x, eps=float(eps)))
            energies = {"even": [], "odd": []}
            for pair in pairons.diagonalize(h):
                energies[pair.state.parity].append(pair.energy)
            gap = min(abs(a - b) for a in energies["even"]
                      for b in energies["odd"])
            expected.append([str(cp.k), "%.17g" % cp.gamma_x,
                             "|".join(f"{m}:{mp}" for m, mp in cp.pairs),
                             "%.17g" % gap, str(int(gap <= 1e-10 * h.norm))])
        assert list(csv.reader(io.StringIO(out)))[1:] == expected


@pytest.mark.parametrize("eps, message", [
    ("0", "eps must be nonzero"), ("nan", "eps must be finite, got nan")])
def test_crossings_bad_eps_is_usage_error(capsys, eps, message):
    rc, out, err = run_lmg(capsys, "crossings", "--j", "3", "--eps", eps)
    assert (rc, out) == (2, "")
    assert err == f"usage error: {message}\n"


def test_crossings_overflowing_h_is_refused_without_warnings():
    # the first points' |H| is finite, but an even - odd difference
    # overflows; the k = 4 point's |H| overflows, and is refused in its own
    # words
    prefix, env = module_cli("pairons")
    proc = subprocess.run(
        prefix + ["lmg", "crossings", "--j", "10", "--eps", "1e307"],
        capture_output=True, text=True, timeout=300,
        env=dict(env, PYTHONWARNINGS="error::RuntimeWarning"))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("numerical failure: H overflows at "
                           "(gx=-3.8, gy=-3.8)\n")


@pytest.mark.parametrize("eps", ["1e170", "1e200", "1e300"])
def test_lmg_pairons_at_a_large_energy_unit(capsys, eps):
    # the eigen-residual's squares would overflow unscaled from about
    # eps = 1e170
    rc, out, _ = run_lmg(capsys, "pairons", "--j", "10", "--gx", "2",
                         "--gy", "8", "--eps", eps, "--format", "json")
    assert rc == 0
    meta = json.loads(out)["meta"]
    assert meta["reconstruction_residual"] <= 1e-12
    assert 1.0 - meta["reconstruction_fidelity"] <= 1e-12


def test_bcs_pairons_at_a_large_energy_unit(capsys):
    # the x1e100 copy of a model: its pairons are 1e100 times the model's;
    # at x1e200 the pairon product overflows, and the set is refused
    argv = ["pairons", "--n", "6", "--format", "json"]
    rc, out, _ = run_bcs(capsys, *argv, "--levels", "0,0.5,1",
                         "--gamma", "0.5")
    assert rc == 0
    small = json.loads(out)
    rc, out, _ = run_bcs(capsys, *argv, "--levels", "0,5e99,1e100",
                         "--gamma", "5e99")
    assert rc == 0
    large = json.loads(out)
    assert_allclose(np.array(large["rows"])[:, 1:3].astype(float),
                    1e100 * np.array(small["rows"])[:, 1:3].astype(float),
                    rtol=1e-12, atol=0)
    assert_allclose(large["meta"]["energy"], 1e100 * small["meta"]["energy"],
                    rtol=1e-12)
    rc, out, err = run_bcs(capsys, *argv, "--levels", "0,5e199,1e200",
                           "--gamma", "5e199")
    assert (rc, out) == (3, "")
    assert err.startswith("numerical failure: pairon product is not finite")


def test_bcs_at_a_small_energy_unit_is_the_model_scaled(capsys):
    # the x1e-10 copy of a model: its spectrum flags none of its 28
    # states, as the model's flags none, and its pairons are 1e-10 times the model's, as the degeneracy rules
    # take their gaps relative to |H| and to the largest |level|; equal
    # levels are still refused, and an H = 0 still flags every state
    argv = ["--n", "6", "--format", "json"]
    unit = ["--levels", "0,0.5,1", "--gamma", "0.5"]
    small = ["--levels", "0,5e-11,1e-10", "--gamma", "5e-11"]
    docs = {}
    for command in ("spectrum", "pairons"):
        for name, model in (("unit", unit), ("small", small)):
            rc, out, _ = run_bcs(capsys, command, *argv, *model)
            assert rc == 0
            docs[command, name] = json.loads(out)
    flags = [[row[3] for row in docs["spectrum", name]["rows"]]
             for name in ("unit", "small")]
    assert flags[0] == flags[1] == [0] * 28
    assert_allclose(
        np.array(docs["pairons", "small"]["rows"])[:, 1:3].astype(float),
        1e-10 * np.array(docs["pairons", "unit"]["rows"])[:, 1:3].astype(float),
        rtol=1e-12, atol=0)
    rc, out, err = run_bcs(capsys, "pairons", "--n", "6", "--levels", "0,0,1",
                           "--gamma", "0.5")
    assert (rc, out) == (3, "")
    assert "level energies are not pairwise distinct" in err
    rc, out, _ = run_bcs(capsys, "spectrum", "--levels", "0,0,0", "--gamma",
                         "0", "--n", "4")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rc == 0 and len(rows) == 15 and {row[3] for row in rows} == {"1"}


def test_spectrum_gap_that_overflows_is_not_degenerate(capsys):
    # at |H| near the largest double, a gap between two sectors' values
    # overflows; it is not close
    rc, out, _ = run_lmg(capsys, "spectrum", "--j", "2", "--gx=-1",
                         "--gy=-1", "--eps=5e307")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[2:] for row in rows] == [
        ["even", "0"], ["odd", "0"], ["even", "0"], ["odd", "0"],
        ["even", "0"]]


def test_bcs_spectrum_frozen(capsys):
    rc, out, _ = run_bcs(capsys, "spectrum", "--levels", "0,1",
                         "--gamma", "1", "--n", "2")
    assert rc == 0
    assert out == BCS_SPECTRUM


def test_bcs_spectrum_three_levels_frozen(capsys):
    # read off one eigvalsh per sector without building a state
    rc, out, _ = run_bcs(capsys, "spectrum", "--levels", "0,0.5,1",
                         "--gamma", "0.5", "--n", "6")
    assert rc == 0
    assert out == BCS_SPECTRUM_N6
    # the eigh values differ from these in their last bits only
    rows, old = (list(csv.reader(io.StringIO(text)))[1:]
                 for text in (out, BCS_SPECTRUM_N6_EIGH))
    assert len(rows) == len(old) == 28
    for (i, e, nu, flag), (i_old, e_old, nu_old, flag_old) in zip(rows, old):
        assert (i, nu, flag) == (i_old, nu_old, flag_old)
        assert abs(float(e) - float(e_old)) <= 1e-14


def test_zeros_total_collapse_pole(capsys):
    rc, out, _ = run_lmg(capsys, "zeros", "--j", "10", "--gx", "5", "--gy", "5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,theta,phi,multiplicity,flags"
    assert len(lines) == 2
    alpha, theta, phi, mult, flags = lines[1].split(",")
    assert float(theta) == pytest.approx(3.141592653589793, abs=1e-15)
    assert mult == "20"
    assert "pole" in flags


ZEROS_J7_DIAGONAL_STATE4 = """\
alpha,theta,phi,multiplicity,flags
0,3.1415926535897931,0,11,pole;seniority
5,0,0,3,pole;seniority
"""


def test_zeros_seniority_joins_pairon_poles(capsys):
    # an odd Dicke state: five pairons at -t and one at +t, whose pole
    # sites take the seniority zero at each pole (2 * 5 + 1 and 2 * 1 + 1)
    rc, out, _ = run_lmg(capsys, "zeros", "--j", "7", "--gx", "5", "--gy", "5",
                         "--state", "4")
    assert rc == 0
    assert out == ZEROS_J7_DIAGONAL_STATE4


def test_scan_pole_multiplicity_is_that_of_zeros(capsys):
    # one rule for both commands: the scan's pole rows count the seniority
    # zero that lmg zeros adds there, 11 at theta = pi and 3 at theta = 0
    rc, out, _ = run_lmg(capsys, "zeros", "--j", "7", "--gx", "5", "--gy", "5",
                         "--state", "4")
    assert rc == 0
    zeros = {float(row["theta"]): int(row["multiplicity"])
             for row in csv.DictReader(io.StringIO(out))}
    rc, out, _ = run_lmg(capsys, "scan", "--j", "7", "--from", "5", "--to",
                         "6", "--steps", "2", "--state", "4")
    assert rc == 0
    rows = [row for row in csv.DictReader(io.StringIO(out))
            if float(row["gx"]) == 5.0]
    assert len(rows) == 6
    assert all(row["flags"] == "pole;seniority" for row in rows)
    scan = {float(row["theta"]): int(row["multiplicity"]) for row in rows}
    assert scan == zeros == {math.pi: 11, 0.0: 3}


def _move_newton_pairons(monkeypatch, *shifts):
    """Make bosonbcs' Newton finish return its pairons sorted as the set
    is, with shifts added to the first ones, so the moved pairons reach
    extract_boson_pairons' gate."""
    newton = pairons.bosonbcs._richardson_newton

    def moved(*args):
        e = np.array(sorted(newton(*args), key=lambda z: (z.real, z.imag)))
        e[:len(shifts)] += shifts
        return e

    monkeypatch.setattr(pairons.bosonbcs, "_richardson_newton", moved)


def test_bcs_pairons_unverified_exit_3(capsys, monkeypatch):
    # two real pairons moved by +1e-3 and -1e-3 keep the sum rule, but the
    # rebuilt state loses 1.8e-6 of its fidelity
    _move_newton_pairons(monkeypatch, 1e-3, -1e-3)
    rc, out, err = run_bcs(capsys, "pairons", "--levels", "0,0.5,1",
                           "--gamma", "0.5", "--n", "6", "--state", "0")
    assert rc == 3
    assert out == ""
    assert "pairons unverified, fidelity loss 1.8e-06" in err


def _break_sum_rule(monkeypatch):
    """Move the first pairon of every set by +1e-3 before the gate, so
    the pairon sum misses the eigenvalue."""
    _move_newton_pairons(monkeypatch, 1e-3)


@pytest.mark.parametrize("command", ["pairons", "ellipsoid"])
def test_bcs_uncertified_pairons_exit_3(capsys, monkeypatch, command):
    # a pairon moved by 1e-3 breaks the sum rule; neither command prints
    # the pairons.  No state of levels 0,0.5,1,1.5 at N <= 15 is refused
    # unpatched, and the refusals at N >= 16 depend on the BLAS threads.
    _break_sum_rule(monkeypatch)
    rc, out, err = run_bcs(capsys, command, "--levels", "0,0.5,1",
                           "--n", "6", "--gamma", "0.5", "--state", "0")
    assert rc == 3
    assert out == ""
    assert ("pairon sum 1.3231235170369469 disagrees with eigenvalue "
            "1.322123517036947") in err


@pytest.mark.parametrize("gamma, states", [
    ("-0.1", (652, 668, 675, 679)), ("0.5", (317, 473)), ("-0.5", (679,))])
def test_bcs_pairons_certify_every_n14_state(capsys, gamma, states):
    # states whose eigh vectors were refused (state 675 at gamma = -0.1:
    # its pairons summed to 18.154 against the eigenvalue 17.272); from
    # the inverse-iteration vectors all of them certify
    for state in states:
        rc, out, err = run_bcs(capsys, "pairons", "--levels", "0,0.5,1,1.5",
                               "--n", "14", "--gamma", gamma,
                               "--state", str(state), "--format", "json")
        assert (rc, err) == (0, "")
        meta = json.loads(out)["meta"]
        assert abs(meta["energy_sum"] - meta["energy"]) <= 1e-8 * abs(
            meta["energy"])
        assert 1.0 - meta["reconstruction_fidelity"] <= 1e-8


def test_bcs_ellipsoid_steps_checked_before_the_gate(capsys, monkeypatch):
    # --steps 0 is a usage error whether or not the pairons certify
    _break_sum_rule(monkeypatch)
    rc, out, err = run_bcs(capsys, "ellipsoid", "--levels", "0,0.5,1",
                           "--n", "6", "--gamma", "0.5", "--state", "0",
                           "--steps", "0")
    assert rc == 2
    assert out == ""
    assert "--steps must be at least 1" in err


def _singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("solve, message", [
    (_singular, "LAPACK failed in sector (1, 1, 0): Singular matrix"),
    (lambda a, b: b, "sector (1, 1, 0): residual 3.1 too big")],
    ids=["lapack", "residual"])
def test_bcs_pairons_failed_eigensolve_exit_3(capsys, monkeypatch, solve,
                                              message):
    # a LAPACK failure of the inverse iteration, or a vector that misses
    # the certificate's residual bound (here the unsolved start vector),
    # is refused, naming the sector of the state
    monkeypatch.setattr(np.linalg, "solve", solve)
    rc, out, err = run_bcs(capsys, "pairons", "--levels", "0,0.5,1",
                           "--gamma", "0.5", "--n", "6", "--state", "1")
    assert rc == 3
    assert out == ""
    assert err == f"numerical failure: {message}\n"


COLLAPSE_DIAGONAL_J10 = """\
k,branch,gx_analytic,gx_detected,delta,anchor_value,pattern,pattern_ok
9,diagonal,5.0250000000000004,5.0250000000000004,0,0,20,1
"""


@pytest.mark.parametrize("j, line_sum, extra", [
    (1, 10.0, []), (2, 10.0, ["--steps", "50"]), (3, 10.0, []),
    (6, 10.0, []), (4, 12.0, [])])
def test_collapse_rows_match_analytic_points(capsys, j, line_sum, extra):
    rc, out, _ = run_lmg(capsys, "collapse", "--j", str(j), "--line-sum",
                         str(line_sum), *extra)
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    # distinct analytic points plus the total collapse at c/2 (at j=3,
    # c=10 the k=2 hyperbola touches the line there)
    targets = sorted({p.gamma_x for p in collapse_points(j, line_sum)}
                     | {line_sum / 2.0})
    assert len(rows) == len(targets)
    for r in rows:
        assert float(r[4]) <= 1e-9
        assert r[7] == "1"
    for gx in targets:
        assert sum(abs(float(r[3]) - gx) <= 1e-9 for r in rows) == 1


@pytest.mark.parametrize("argv", [["--j", "20"],
                                  ["--j", "10", "--line-sum", "20"]])
def test_collapse_unresolved_anchor_exits_3(capsys, argv):
    rc, out, err = run_lmg(capsys, "collapse", *argv)
    assert rc == 3
    assert out == ""
    assert "first over gx in [" in err


@pytest.mark.parametrize("j, steps", [(10, "200"), (3, "2")])
def test_collapse_coarse_grid_exits_3(capsys, j, steps):
    # the k=0 and k=1 sign changes on each branch cancel within one
    # bracket; the command names those points instead of dropping them
    rc, out, err = run_lmg(capsys, "collapse", "--j", str(j), "--steps",
                           steps)
    assert rc == 3
    assert out == ""
    missed = err.split("analytic gx ")[1].split(":")[0].split(", ")
    assert missed == [f"{p.gamma_x:.6g}" for p in sorted(
        collapse_points(j, 10.0), key=lambda p: p.gamma_x) if p.k <= 1]
    assert "more --steps" in err


@pytest.mark.parametrize("state", ["1", "2"])
def test_collapse_excited_state_is_usage_error(capsys, state):
    # the analytic points and the zero patterns are the ground state's
    rc, out, err = run_lmg(capsys, "collapse", "--j", "4", "--state", state)
    assert rc == 2
    assert out == ""
    assert "--state must be 0" in err and "ground state" in err


@pytest.mark.parametrize("argv", [
    ["--j", "4", "--eps", "-1"],
    ["--j", "4", "--line", "diagonal", "--eps", "-1"],
    ["--j", "4", "--line-sum=-10", "--from=-9.9", "--to=-0.1"],
    ["--j", "3", "--line-sum=-10", "--from=-9", "--to=-1"],
    ["--j", "4", "--line-sum", "0", "--from=-3", "--to=-1"]])
def test_collapse_outside_its_ground_state_is_usage_error(capsys, argv):
    # H(-eps) has the spectrum of -H(eps), so state 0 there is the top
    # state of the eps > 0 model, not the one whose points are listed
    rc, out, err = run_lmg(capsys, "collapse", *argv)
    assert rc == 2
    assert out == ""
    assert "ground state's for eps > 0 on gx + gy = c > 0" in err


def test_collapse_diagonal_frozen(capsys):
    rc, out, _ = run_lmg(capsys, "collapse", "--j", "10", "--line",
                         "diagonal")
    assert rc == 0
    assert out == COLLAPSE_DIAGONAL_J10


def test_collapse_diagonal_dicke_state_split(capsys):
    # at gx = gy = -2 the j=4 ground state is |4,-2>, pairons -1 three
    # times and +1 once: not the total collapse, so no row
    rc, out, _ = run_lmg(capsys, "collapse", "--j", "4", "--line",
                         "diagonal", "--from", "-3", "--to", "-1")
    assert rc == 0
    assert out == ("k,branch,gx_analytic,gx_detected,delta,anchor_value,"
                   "pattern,pattern_ok\n")


@pytest.mark.parametrize("j, line_sum", [(14, "12"), (13, "20")])
def test_collapse_outside_envelope_exits_before_patterns(capsys, monkeypatch,
                                                         j, line_sum):
    # the Taylor count is wrong for k <= 1 here; the unresolved anchor
    # refuses the line before any pattern is computed
    calls = []
    for name in ("collapse_zero_pattern", "_zero_patterns"):
        monkeypatch.setattr(pairons.collapse, name,
                            lambda *args, **kwargs: calls.append(args))
    rc, out, err = run_lmg(capsys, "collapse", "--j", str(j),
                           "--line-sum", line_sum)
    assert rc == 3
    assert out == ""
    assert "anchor value within its noise bound" in err
    assert calls == []


def test_collapse_extracts_no_pairons(capsys, monkeypatch):
    # neither the one-point extraction nor the stacked one (the scan's)
    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return wrapper

    for name, modules in (
            ("extract_pairons", (pairons, pairons.paironmap, pairons.cli)),
            ("extract_stack", (pairons.paironmap, pairons.collapse))):
        wrapped = counted(getattr(pairons.paironmap, name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapped)
    rc, out, _ = run_lmg(capsys, "collapse", "--j", "4")
    assert rc == 0
    assert len(out.splitlines()) == 1 + 7  # 6 hyperbola points + total
    assert calls == []


_POINT = ("--j", "10", "--gx", "2", "--gy", "8")


@pytest.mark.parametrize("argv", [
    ("collapse", "--j", "6"),
    ("scan", "--j", "10", "--from", "0.05", "--to", "9.95", "--steps", "40"),
    ("pairons", *_POINT, "--format", "json"),
    ("zeros", *_POINT, "--state", "3"),
    ("spectrum", *_POINT),
], ids=["collapse", "scan", "pairons", "zeros", "spectrum"])
def test_lmg_commands_build_no_dense_hamiltonian(capsys, monkeypatch, argv):
    # the solves, the collapse's anchor profile, refinement rounds, total
    # collapse and zero patterns, and the extraction's eigen-residual all
    # read the bands of H: no _banded call builds the m+-2 matrix
    reference = run_lmg(capsys, *argv)
    banded = pairons.spin._banded

    def refused(diag, off, step=1):
        assert step != 2, f"dense H built by lmg {argv[0]}"
        return banded(diag, off, step)

    monkeypatch.setattr(pairons.spin, "_banded", refused)
    assert run_lmg(capsys, *argv) == reference
    assert reference[0] == 0 and reference[1]


def test_float_cells_roundtrip(capsys):
    # 17 significant digits: parsing the text recovers the double exactly
    rc, out, _ = run_lmg(capsys, "spectrum", "--j", "1", "--gx", "1", "--gy", "-1")
    assert rc == 0
    energy = out.splitlines()[1].split(",")[1]
    assert float(energy) == -(2.0 ** 0.5)


def _csv_writer_text(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([pairons.cli._cell(v) for v in row])
    return buf.getvalue()


def _json_rows_text(columns, rows):
    """The JSON of a table as the per-cell rules of _json_value write it,
    with the meta _emit gives a namespace that holds only its output
    settings."""
    meta = {"tool": "pairons", "version": pairons.__version__,
            "command": "table", "seed": 0, "config": {}}
    return pairons.cli._json_value(
        {"meta": meta, "columns": columns, "rows": rows}) + "\n"


def _emitted(fmt, columns, shared=None, counts=()):
    """The text _emit writes for a table of columns, as CSV or JSON."""
    args = SimpleNamespace(format=fmt, out=None)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        pairons.cli._emit(args, "table", columns, shared=shared,
                          counts=counts)
    return out.getvalue()


def _by_column(rows):
    """The columns c0, c1, ... of rectangular rows."""
    return {f"c{k}": [row[k] for row in rows] for k in range(len(rows[0]))}


CSV_CELLS = [1.5, float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
             5e-324, np.float64(0.1), np.float64("nan"), np.int64(-3),
             np.int64(2 ** 62), 7, True, False, np.bool_(True), "", "a",
             "a,b", 'say "x"', "c\rd", "e\nf", "g\r\nh", " lead", "%s%d%%",
             None, (1, 2)]


@pytest.mark.parametrize("rows", [
    [CSV_CELLS],
    [[v] for v in CSV_CELLS],
    [["", "", ""], ["", 1.0, ""], [1.0, "", ","], ["x", ",", "y"]],
    [[float(k) / 3, k, "seniority" if k % 2 else ""] for k in range(50)],
], ids=["one-row", "one-column", "empty-cells", "mixed-types"])
def test_csv_rows_are_csv_writer_bytes(rows):
    # the table written from its columns equals csv.writer over _cell of
    # its rows, byte for byte, including the cells csv quotes and a lone
    # empty cell, which csv writes as ""
    columns = _by_column(rows)
    assert _emitted("csv", columns) == _csv_writer_text(list(columns), rows)


@pytest.mark.parametrize("lead", [[0.5, 3], ["a,b", 1.0], [""], [1.0, "x"]],
                         ids=["numbers", "quoted", "empty", "text"])
def test_grouped_csv_rows_are_csv_writer_bytes(lead):
    # rows given behind shared leading cells are the full rows' bytes,
    # with a quoted cell in the lead or in the rest of a row
    tails = [[v, 1.0] for v in CSV_CELLS] + [[1.0, "c\rd"]]
    leads, groups = [lead, [2.0, 7][:len(lead)]], [tails, tails[:3]]
    rows = [head + tail for head, group in zip(leads, groups)
            for tail in group]
    shared = {f"s{k}": [head[k] for head in leads] for k in range(len(lead))}
    columns = _by_column([tail for group in groups for tail in group])
    assert (_emitted("csv", columns, shared, [len(g) for g in groups])
            == _csv_writer_text([*shared, *columns], rows))


def _cells(kind):
    """Cells of one column kind: floats, integers (bools among them), str,
    or any of CSV_CELLS, which makes mixed columns."""
    return {
        "float": st.floats() | st.sampled_from(
            [-0.0, 5e-324, float("nan"), float("inf"), float("-inf"),
             np.float64(0.1), np.float64("-inf")]),
        "int": st.integers(-2 ** 63, 2 ** 63 - 1) | st.sampled_from(
            [np.int64(-3), np.int32(5), True, False]),
        "str": st.text(alphabet="ab ,\"\r\n%;", max_size=3),
        "mixed": st.sampled_from(CSV_CELLS),
    }[kind]


@st.composite
def _tables(draw):
    """A table of columns c0.., maybe behind shared columns s0.. of one
    value per group of rows, and its full rows."""
    kinds = ["float", "int", "str", "mixed"]
    n_shared = draw(st.integers(0, 2))
    counts = draw(st.lists(st.integers(0, 3), max_size=4)) if n_shared else []
    width = draw(st.integers(0 if n_shared else 1, 3))
    n_rows = sum(counts) if n_shared else draw(st.integers(0, 6))
    shared = {f"s{k}": draw(st.lists(_cells(draw(st.sampled_from(kinds))),
                                     min_size=len(counts),
                                     max_size=len(counts)))
              for k in range(n_shared)}
    columns = {f"c{k}": draw(st.lists(_cells(draw(st.sampled_from(kinds))),
                                      min_size=n_rows, max_size=n_rows))
               for k in range(width)}
    heads = [head for head, n in zip(zip(*shared.values()), counts)
             for _ in range(n)] if n_shared else [()] * n_rows
    tails = list(zip(*columns.values())) if width else [()] * n_rows
    rows = [[*head, *tail] for head, tail in zip(heads, tails)]
    return columns, shared, counts, rows


@given(table=_tables())
@settings(max_examples=300)
def test_table_text_is_the_row_writers(table):
    # the column writer against reference row writers: csv.writer over
    # _cell, and _json_value's per-cell rules, byte for byte; where the
    # JSON rules refuse a cell (np.bool_), so does the writer
    columns, shared, counts, rows = table
    names = [*shared, *columns]
    assert (_emitted("csv", columns, shared, counts)
            == _csv_writer_text(names, rows))
    try:
        expected = _json_rows_text(names, rows)
    except TypeError:
        with pytest.raises(TypeError):
            _emitted("json", columns, shared, counts)
    else:
        assert _emitted("json", columns, shared, counts) == expected


def test_json_meta_and_rows(capsys):
    rc, out, _ = run_lmg(capsys, "pairons", "--j", "1", "--gx", "1",
                         "--gy", "-1", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    meta = doc["meta"]
    assert meta["tool"] == "pairons"
    assert meta["command"] == "lmg pairons"
    assert meta["seed"] == 0
    assert isinstance(meta["version"], str)
    # config echoes the resolved inputs but not output plumbing
    assert meta["config"]["j"] == 1
    assert meta["config"]["gx"] == 1
    assert "out" not in meta["config"]
    assert "threads" not in meta["config"]
    assert doc["columns"] == ["alpha", "re_e", "im_e", "flags"]
    (row,) = doc["rows"]
    assert row[1] == pytest.approx(1.0 - 2.0 ** 0.5, abs=1e-14)
    assert row[2] == 0
    # gx * gy < 0: |t| is fixed but its branch is not
    assert "sign-unverified" in row[3]
    assert meta["reconstruction_fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_help_lists_every_subcommand(capsys):
    rc, out, _ = run_lmg(capsys, "--help")
    assert rc == 0
    assert "{spectrum,zeros,pairons,scan,collapse,crossings}" in out
    rc, out, _ = run_bcs(capsys, "--help")
    assert rc == 0
    assert "{spectrum,pairons,ellipsoid}" in out


def test_subcommand_help_lists_its_flags(capsys):
    rc, out, _ = run_lmg(capsys, "scan", "--help")
    assert rc == 0
    assert out.startswith("usage: lmg scan ")
    for flag in ("--j", "--from", "--to", "--steps", "--line", "--line-sum",
                 "--state", "--eps", "--seed", "--threads", "--format",
                 "--out", "--config"):
        assert f" {flag} " in out


def test_unknown_subcommand_is_usage_error(capsys):
    rc, out, err = run_lmg(capsys, "bogus", "--j", "2")
    assert rc == 2
    assert out == ""
    assert "invalid choice: 'bogus'" in err
    assert all(f"'{name}'" in err for name in pairons.cli._LMG_COMMANDS)


def test_only_the_requested_subcommand_gets_flags(capsys, monkeypatch):
    added = []
    add_flags = pairons.cli._add_flags

    def counted(parser, names):
        added.append(names)
        add_flags(parser, names)

    monkeypatch.setattr(pairons.cli, "_add_flags", counted)
    rc, out, _ = run_lmg(capsys, "spectrum", "--j", "1", "--gx", "1",
                         "--gy", "-1")
    assert rc == 0
    assert out == SPECTRUM_J1
    assert added == [["j", "gx", "gy", "eps"]]


def test_unverified_pairons_exit_3(capsys, monkeypatch):
    # a pairon set whose rebuilt state misses the eigenstate
    shift_one_pairon(monkeypatch)
    rc, out, err = run_lmg(capsys, "pairons", "--j", "10", "--gx", "3",
                           "--gy", "7")
    assert rc == 3
    assert out == ""
    assert "pairons unverified" in err


def test_j120_pairons_certify(capsys):
    # the ground state at gx = 0.5, whose u-polynomial spans 18 orders of
    # magnitude, rebuilds within the bound
    rc, out, _ = run_lmg(capsys, "pairons", "--j", "120", "--gx", "0.5",
                         "--gy", "9.5", "--format", "json")
    assert rc == 0
    meta = json.loads(out)["meta"]
    assert 1.0 - meta["reconstruction_fidelity"] <= 1e-8
    assert meta["reconstruction_residual"] <= 1e-8
    assert "max_pairing_defect" not in meta


def test_large_root_check_certifies_without_warnings():
    # the j = 120 state 60 u-polynomial has roots whose powers overflow;
    # its residual check, taken on the reversed polynomial, passes
    prefix, env = module_cli("pairons")
    proc = subprocess.run(prefix + ["lmg", "pairons", "--j", "120", "--gx",
                                    "0.25", "--gy", "9.75", "--state", "60",
                                    "--format", "json"],
                          capture_output=True, text=True,
                          env=dict(env, PYTHONWARNINGS="default"),
                          timeout=300)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    meta = json.loads(proc.stdout)["meta"]
    assert 1.0 - meta["reconstruction_fidelity"] <= 1e-8


_OVERFLOW = "H overflows at (gx=1.6e+308, gy=1e+307)"
_INFINITE_LAM = "lam must be finite, got -inf"


@pytest.mark.parametrize("argv, code, messages", [
    ("lmg spectrum --j 2 --gx 1.6e308 --gy 1e307", 3, [_OVERFLOW]),
    ("lmg pairons --j 2 --gx 1.6e308 --gy 1e307", 3, [_OVERFLOW]),
    ("lmg scan --j 2 --line-sum 1.7e308 --from=-1e308 --to=-9e307 --steps 3",
     0, [f"skipped gx={g}: ValueError: {_INFINITE_LAM}"
         for g in ("-1e+308", "-9.5e+307", "-9e+307")]),
    ("lmg collapse --j 2 --line-sum 1.7e308 --from=-1e308 --to=-9e307 "
     "--steps 3", 3, [_INFINITE_LAM]),
    ("lmg scan --j 2 --line-sum 1.7e308 --from 1e307 --to 1.6e308 --steps 3",
     0, ["skipped gx=1e+307: ValueError: H overflows at (gx=1e+307, "
         "gy=1.6e+308)",
         "skipped gx=8.5e+307: DegenerateStateError: state 0 at "
         "(gx=8.5e+307, gy=8.5e+307) is degenerate within its parity sector",
         f"skipped gx=1.6e+308: ValueError: {_OVERFLOW}"]),
    ("bcs spectrum --levels 0,1 --gamma 1e308 --n 4", 3,
     ["H overflows at (gamma=1e+308)"]),
    ("bcs pairons --levels 0,1 --gamma 1e308 --n 4", 3,
     ["H overflows at (gamma=1e+308)"]),
])
def test_overflowing_points_are_refused_without_warnings(argv, code,
                                                         messages):
    # couplings that are not finite and an |H| that overflows are refused
    # before any solve, in one message per point, with no RuntimeWarning
    prefix, env = module_cli("pairons")
    env = dict(env, PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run(prefix + argv.split(), capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == code
    prefix = "numerical failure: " if code else ""
    assert proc.stderr.splitlines() == [prefix + m for m in messages]


@pytest.mark.parametrize("argv, code, messages", [
    ("lmg collapse --j 2 --line-sum 1e308 --from 1 --to 5 --steps 3", 3,
     ["numerical failure: H overflows at (gx=1, gy=1e+308)"]),
    ("lmg scan --j 2 --line-sum 1e308 --from 1 --to 5 --steps 3", 0,
     [f"skipped gx={g}: ValueError: H overflows at (gx={g}, gy=1e+308)"
      for g in "135"])])
def test_refusals_name_the_samples_own_gammas(argv, code, messages):
    # beside gy = 1e308 the couplings of gx = 1 give back gx = 0, as they
    # cancel; a refusal names the sample by its own gx and gy
    prefix, env = module_cli("pairons")
    proc = subprocess.run(prefix + argv.split(), capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == code
    assert proc.stderr.splitlines() == messages


def test_missing_required_flag(capsys):
    rc, _, err = run_lmg(capsys, "spectrum", "--gx", "1", "--gy", "1")
    assert rc == 2
    assert "missing required flag --j" in err


def test_bad_flag_value(capsys):
    rc, _, err = run_lmg(capsys, "spectrum", "--j", "nope", "--gx", "1", "--gy", "2")
    assert rc == 2
    assert "usage error" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("main, argv, name", [
    (bcs_main, ["pairons", "--levels", "0,0.5,1", "--n", "4", "--gamma", "{}",
                "--state", "0"], "gamma"),
    (bcs_main, ["pairons", "--levels", "0,{},1", "--n", "4", "--gamma", "0.5",
                "--state", "0"], "levels"),
    (lmg_main, ["pairons", "--j", "4", "--gx", "{}", "--gy", "2"], "lam"),
    (lmg_main, ["pairons", "--j", "4", "--gx", "2", "--gy", "{}"], "lam"),
    (lmg_main, ["pairons", "--j", "4", "--gx", "2", "--gy", "3",
                "--eps", "{}"], "eps"),
    (lmg_main, ["scan", "--j", "4", "--from", "0.1", "--to", "1",
                "--steps", "3", "--eps", "{}"], "eps")])
def test_non_finite_parameter_is_usage_error(capsys, main, argv, name, bad):
    rc = main([a.format(bad) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"usage error: {name} must be finite" in err


@pytest.mark.parametrize("command", [
    ["scan", "--from", "1", "--to", "2", "--steps", "3"], ["collapse"]])
def test_zero_eps_on_a_line_is_usage_error(capsys, command):
    rc, out, err = run_lmg(capsys, *command, "--j", "4", "--eps", "0")
    assert rc == 2
    assert out == ""
    assert "usage error: eps must be nonzero" in err


def test_overflowing_couplings_are_usage_error(capsys):
    rc, _, err = run_lmg(capsys, "pairons", "--j", "4", "--gx=1e308",
                         "--gy=-1e308")
    assert rc == 2
    assert "lam must be finite, got inf" in err


def test_overflowing_scan_span_is_usage_error(capsys):
    rc, out, err = run_lmg(capsys, "scan", "--j", "2", "--from=-1e308",
                           "--to", "1e308", "--steps", "3")
    assert rc == 2
    assert out == ""
    assert err == ("usage error: the span from start=-1e+308 to "
                   "stop=1e+308 overflows\n")


def test_nonpositive_j_rejected(capsys):
    rc, _, err = run_lmg(capsys, "spectrum", "--j", "0", "--gx", "1", "--gy", "2")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["scan", "--j", "0", "--from", "0.05", "--to", "9.95", "--steps", "10"],
    ["collapse", "--j", "0"]])
def test_nonpositive_j_on_a_line_is_usage_error(capsys, argv):
    rc, _, err = run_lmg(capsys, *argv)
    assert rc == 2
    assert err == "usage error: --j must be a positive integer\n"


def test_state_index_out_of_range(capsys):
    rc, _, err = run_lmg(capsys, "pairons", "--j", "1", "--gx", "1",
                         "--gy", "2", "--state", "5")
    assert rc == 2
    assert "--state" in err


def test_degenerate_state_is_numerical_failure(capsys):
    # on the diagonal the even sector of j=2 degenerates at gam = -1/2
    rc, _, err = run_lmg(capsys, "pairons", "--j", "2", "--gx", "-1.5",
                         "--gy", "-1.5", "--state", "1")
    assert rc == 3
    assert "numerical failure" in err


def test_singular_gamma_is_numerical_failure(capsys):
    rc, _, err = run_lmg(capsys, "pairons", "--j", "2", "--gx", "1", "--gy", "0")
    assert rc == 3


def test_degenerate_levels_ellipsoid_failure(capsys):
    rc, _, err = run_bcs(capsys, "ellipsoid", "--levels", "0.5,0.5",
                         "--gamma", "1", "--n", "2")
    assert rc == 3
    assert "numerical failure" in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    rc, out, _ = run_lmg(capsys, "spectrum", "--j", "1", "--gx", "1",
                         "--gy", "-1", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text() == SPECTRUM_J1


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 1, "gx": 3.0, "gy": -1}))
    # config supplies what the command line omits; the command line wins
    rc, out, _ = run_lmg(capsys, "spectrum", "--config", str(cfg), "--gx", "1")
    assert rc == 0
    assert out == SPECTRUM_J1


def test_config_file_can_set_out(tmp_path, capsys):
    target = tmp_path / "from_config.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 1, "gx": 1, "gy": -1,
                               "out": str(target)}))
    rc, out, _ = run_lmg(capsys, "spectrum", "--config", str(cfg))
    assert rc == 0
    assert out == ""
    assert target.read_text() == SPECTRUM_J1


def test_config_file_from_key(tmp_path, capsys):
    # "from" is a keyword-ish flag; the config key maps onto it too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 2, "from": 1.0, "to": 2.0, "steps": 5}))
    rc, out, _ = run_lmg(capsys, "scan", "--config", str(cfg))
    assert rc == 0
    assert out.splitlines()[0].startswith("gx,gy,t,state_index,energy")


def test_usage_errors_name_the_from_flag(tmp_path, capsys):
    # a bad --from, on the command line or from the config key "from",
    # and a missing one are named as the flag the user types
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"from": "x"}))
    bad = "usage error: bad value for --from: could not convert string to " \
          "float: 'x'\n"
    for argv in (["--from", "x"], ["--config", str(cfg)]):
        rc, _, err = run_lmg(capsys, "scan", "--j", "2", *argv, "--to", "2",
                             "--steps", "3")
        assert (rc, err) == (2, bad)
    rc, _, err = run_lmg(capsys, "scan", "--j", "2", "--to", "2", "--steps",
                         "3")
    assert (rc, err) == (2, "usage error: missing required flag --from\n")


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 1, "gx": 1, "gy": -1, "bogus": 7}))
    rc, _, err = run_lmg(capsys, "spectrum", "--config", str(cfg))
    assert rc == 2
    assert "unknown config key" in err


def test_config_file_missing(tmp_path, capsys):
    rc, _, err = run_lmg(capsys, "spectrum", "--j", "1", "--gx", "1",
                         "--gy", "-1", "--config", str(tmp_path / "nope.json"))
    assert rc == 2


def test_config_file_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"j": 1, "gx": 1, "gy": "-1\xff"}')
    rc, out, err = run_lmg(capsys, "spectrum", "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert err.startswith("usage error: cannot read config file: ")


_J1 = ["--j", "1", "--gx", "1", "--gy", "-1"]


@pytest.mark.parametrize("main, argv, key, value, flag", [
    (lmg_main, ["spectrum", "--gx", "1", "--gy", "-1"], "j", 1.9, "1.9"),
    (lmg_main, ["spectrum", "--gx", "1", "--gy", "-1"], "j", True, "True"),
    (lmg_main, ["spectrum", "--gx", "1", "--gy", "-1"], "j", 0, "0"),
    (lmg_main, ["spectrum", "--gx", "1", "--gy", "-1", "--format", "json"],
     "j", 1, "1"),
    (lmg_main, ["scan", "--j", "2", "--from", "1", "--to", "2"], "steps",
     3.9, "3.9"),
    (lmg_main, ["scan", "--j", "2", "--from", "1", "--to", "2", "--format",
                "json"], "steps", 3, "3"),
    (lmg_main, ["pairons", *_J1], "state", 0.5, "0.5"),
    (lmg_main, ["spectrum", "--j", "1", "--gy", "-1"], "gx", True, "True"),
    (lmg_main, ["spectrum", *_J1], "threads", 2.7, "2.7"),
    (lmg_main, ["spectrum", *_J1], "threads", 0, "0"),
    (lmg_main, ["spectrum", *_J1], "threads", 2, "2"),
    (bcs_main, ["spectrum", "--gamma", "0.5", "--n", "2", "--format",
                "json"], "levels", [0, 1], "0,1"),
    (bcs_main, ["spectrum", "--gamma", "0.5", "--n", "2", "--format",
                "json"], "levels", "0,1", "0,1"),
    (bcs_main, ["spectrum", "--gamma", "0.5", "--n", "2"], "levels",
     [0, "x"], "0,x"),
    (lmg_main, ["spectrum", *_J1], "format", None, None),
    (lmg_main, ["spectrum", *_J1], "out", None, None)])
def test_config_value_is_its_flag_text(tmp_path, capsys, monkeypatch, main,
                                       argv, key, value, flag):
    # a config value is resolved, or refused, exactly as its text on the
    # command line (a list joined by commas, a null as no flag at all):
    # same exit code, stdout and stderr, and no file left behind
    monkeypatch.delenv("PAIRONS_THREADS", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    from_config = main([*argv, "--config", str(cfg)]), *capsys.readouterr()
    text = [] if flag is None else [f"--{key}", flag]
    assert from_config == (main([*argv, *text]), *capsys.readouterr())
    assert list(work.iterdir()) == []


def test_config_format_is_checked(tmp_path, capsys):
    # the command line's --format xml is refused by argparse's choices
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    rc, out, err = run_lmg(capsys, "spectrum", *_J1, "--config", str(cfg))
    assert (rc, out, err) == (2, "", "usage error: unknown format 'xml'\n")


@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_unwritable_out_is_usage_error(tmp_path, capsys, target):
    # a missing directory, or a directory itself: exit 2, no traceback,
    # no file
    rc, out, err = run_lmg(capsys, "spectrum", *_J1, "--out",
                           str(tmp_path / target))
    assert (rc, out) == (2, "")
    assert err.startswith("usage error: cannot write --out file: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


SCAN_ARGS = ["scan", "--j", "4", "--from", "0.5", "--to", "9.5",
             "--steps", "40"]


def test_scan_deterministic_across_threads(capsys):
    outputs = []
    for n in ("1", "4"):
        rc, out, _ = run_lmg(capsys, *SCAN_ARGS, "--threads", n)
        assert rc == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_scan_solves_no_block_twice(capsys, monkeypatch):
    # --state 5 at j = 10: the diagonal order predicts the wrong block at
    # 70 of the 200 samples, which then solve only the other block
    rows = []

    def counted(blocks, name):
        rows.append(len(blocks) if blocks.ndim == 3 else 1)
        return parity_eigh(blocks, name)

    parity_eigh = pairons.spin.parity_eigh
    monkeypatch.setattr(pairons.spin, "parity_eigh", counted)
    rc, _, _ = run_lmg(capsys, "scan", "--j", "10", "--from", "0.05",
                       "--to", "9.95", "--steps", "200", "--state", "5")
    assert rc == 0
    assert sorted(rows) == [70, 200]


def test_j40_scan_solves_one_block_per_point(capsys, monkeypatch):
    # --steps 100 at j = 40 takes three stacks of 33-34 points, each of
    # at least ONE_BLOCK_MIN_ROWS rows (points times 81), so each point
    # passes one block to parity_eigh and every one of them certifies
    rows = []

    def counted(blocks, name):
        rows.append(len(blocks) if blocks.ndim == 3 else 1)
        return parity_eigh(blocks, name)

    parity_eigh = pairons.spin.parity_eigh
    monkeypatch.setattr(pairons.spin, "parity_eigh", counted)
    rc, _, _ = run_lmg(capsys, "scan", "--j", "40", "--from", "0.05",
                       "--to", "9.95", "--steps", "100")
    assert rc == 0
    assert sorted(rows) == [33, 33, 34]


@pytest.mark.parametrize("argv", [
    SCAN_ARGS,
    ["scan", "--j", "7", "--line", "diagonal", "--from", "4.9", "--to", "5",
     "--steps", "2", "--state", "4"]], ids=["sum-line", "diagonal-poles"])
def test_scan_csv_and_json_rows_agree(capsys, argv):
    # both emitters give the same rows, value for value: the JSON numbers
    # are read as their text, which is the CSV cell (17 significant
    # digits), and the strings are the CSV strings
    rc, text, _ = run_lmg(capsys, *argv)
    assert rc == 0
    header, *rows = csv.reader(io.StringIO(text))
    rc, out, _ = run_lmg(capsys, *argv, "--format", "json")
    assert rc == 0
    doc = json.loads(out, parse_float=str, parse_int=str)
    assert doc["columns"] == header
    assert doc["rows"] == rows
    assert len(rows) > 0
    if "diagonal" in argv:
        # nu = 1 at j = 7: six pairons per sample, all at the poles
        assert len(rows) == 2 * 6
        assert all(row[-1] == "pole;seniority" for row in rows)
        assert {row[8] for row in rows} <= {"0", "3.1415926535897931"}


def test_scan_csv_shape(capsys):
    rc, out, _ = run_lmg(capsys, *SCAN_ARGS, "--threads", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ("gx,gy,t,state_index,energy,alpha,re_e,im_e,"
                        "theta,phi,multiplicity,branch_id,flags")
    # 40 grid points, 4 pairons each (j=4 ground has nu=0)
    assert len(lines) == 1 + 40 * 4


def test_env_threads(capsys, monkeypatch):
    monkeypatch.setenv("PAIRONS_THREADS", "3")
    rc, out_env, _ = run_lmg(capsys, *SCAN_ARGS)
    assert rc == 0
    monkeypatch.delenv("PAIRONS_THREADS")
    rc, out_one, _ = run_lmg(capsys, *SCAN_ARGS)
    assert rc == 0
    assert out_env == out_one


def test_env_threads_invalid(capsys, monkeypatch):
    monkeypatch.setenv("PAIRONS_THREADS", "three")
    rc, _, err = run_lmg(capsys, *SCAN_ARGS)
    assert rc == 2


def test_bcs_pairons_meta(capsys):
    rc, out, _ = run_bcs(capsys, "pairons", "--levels", "0,1", "--gamma", "1",
                         "--n", "2", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["energy_sum"] == pytest.approx(doc["meta"]["energy"])
    assert doc["meta"]["seniority"] == [0, 0]
    assert doc["meta"]["reconstruction_fidelity"] == pytest.approx(1.0, abs=1e-10)


def test_bcs_state_index_out_of_range(capsys):
    # levels 0, 0.5, 1 with 6 bosons: dim = C(8, 2) = 28
    rc, out, err = run_bcs(capsys, "pairons", "--levels", "0,0.5,1",
                           "--gamma", "0.5", "--n", "6", "--state", "28")
    assert rc == 2
    assert out == ""
    assert "--state must be in 0..27, got 28" in err


def test_bcs_pairons_builds_one_eigenstate(capsys, monkeypatch):
    # one BosonState from the sector solves, one from the reconstruction
    made = {"eigen": 0, "recon": 0}
    inside = []
    init = BosonState.__init__
    reconstruct = pairons.bosonbcs.reconstruct_boson_state

    def counting_init(self, *args, **kwargs):
        made["recon" if inside else "eigen"] += 1
        init(self, *args, **kwargs)

    def counting_reconstruct(*args, **kwargs):
        inside.append(True)
        try:
            return reconstruct(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(BosonState, "__init__", counting_init)
    monkeypatch.setattr(pairons.bosonbcs, "reconstruct_boson_state",
                        counting_reconstruct)
    rc, _, _ = run_bcs(capsys, "pairons", "--levels", "0,0.5,1",
                       "--gamma", "0.5", "--n", "6", "--state", "3")
    assert rc == 0
    assert made == {"eigen": 1, "recon": 1}


def test_bcs_ellipsoid_columns(capsys):
    rc, out, _ = run_bcs(capsys, "ellipsoid", "--levels", "0,0.5,1",
                         "--gamma", "0.5", "--n", "4", "--state", "0")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,re_e,im_e,axis,re_xi2,im_xi2,max_residual"
    # two pairons (M = 2), one quadric axis per non-reference level
    assert len(lines) == 1 + 2 * 2
    assert all(float(row.split(",")[-1]) < 1e-8 for row in lines[1:])


def test_bcs_ellipsoid_seed_changes_probe_but_not_verdict(capsys):
    args = ["ellipsoid", "--levels", "0,0.5,1", "--gamma", "0.5", "--n", "4"]
    rc, out_a, _ = run_bcs(capsys, *args, "--seed", "7")
    rc_b, out_b, _ = run_bcs(capsys, *args, "--seed", "7")
    assert rc == rc_b == 0
    assert out_a == out_b  # same seed, byte-identical


def _installed(dist: str) -> bool:
    try:
        importlib.metadata.distribution(dist)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _installed("pairons"),
                    reason="pairons is not installed, so the lmg/bcs "
                           "console scripts do not exist")
def test_entry_points_installed():
    for prog in ("lmg", "bcs"):
        proc = subprocess.run([prog, "--version"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "pairons" in proc.stdout


def test_module_main_runs_bcs():
    prefix, env = module_cli("pairons")
    proc = subprocess.run(prefix + ["bcs", "spectrum", "--levels", "0,1",
                                    "--gamma", "1", "--n", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == BCS_SPECTRUM


# Imports pairons and pairons.cli in a fresh interpreter, scipy made
# unimportable if argv[1] is "block", runs `python -m pairons argv[2:]` if
# given, and prints the scipy and numpy.polynomial modules then loaded as
# JSON on stderr's last line.
_IMPORT_PROBE = """\
import json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
import pairons, pairons.cli
from pairons.__main__ import main
rc = main(sys.argv[2:]) if sys.argv[2:] else 0
sys.stdout.flush()
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if module is not None and (name.partition(".")[0] == "scipy"
                               or name.startswith("numpy.polynomial")))),
    file=sys.stderr)
sys.exit(rc)
"""


def _import_probe(*argv, block=False):
    """The stdout of a run that exits 0, and the scipy and numpy.polynomial
    modules it loaded."""
    prefix, env = module_cli("pairons")
    proc = subprocess.run([prefix[0], "-c", _IMPORT_PROBE,
                           "block" if block else "load", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _import_probe() == ("", [])


@pytest.mark.parametrize("command", ["pairons", "spectrum", "ellipsoid"])
def test_bcs_runs_without_scipy(command):
    # the same bytes with scipy blocked, and no numpy.polynomial loaded
    argv = ["bcs", command, "--levels", "0,0.5,1", "--n", "6",
            "--gamma", "0.5"]
    prefix, env = module_cli("pairons")
    ref = subprocess.run(prefix + argv, capture_output=True, text=True,
                         env=env, timeout=300)
    assert ref.returncode == 0, ref.stderr
    assert _import_probe(*argv, block=True) == (ref.stdout, [])


@pytest.mark.parametrize("command", [
    ["collapse"], ["spectrum", "--gx", "2", "--gy", "8"],
    ["pairons", "--gx", "2", "--gy", "8"],
    ["zeros", "--gx", "2", "--gy", "8", "--state", "3"], ["crossings"],
    ["scan", "--from", "0.05", "--to", "9.95", "--steps", "40"]],
    ids=lambda command: command[0])
def test_lmg_runs_without_scipy(command):
    # the same bytes with scipy blocked, and no numpy.polynomial loaded
    argv = ["lmg", command[0], "--j", "4", *command[1:]]
    prefix, env = module_cli("pairons")
    ref = subprocess.run(prefix + argv, capture_output=True, text=True,
                         env=env, timeout=300)
    assert ref.returncode == 0, ref.stderr
    assert _import_probe(*argv, block=True) == (ref.stdout, [])


def test_entry_point_env_threads_deterministic(tmp_path):
    lmg, env = module_cli()
    env.pop("PAIRONS_THREADS", None)
    cmd = lmg + ["scan", "--j", "3", "--from", "0.5", "--to", "4.5",
                 "--steps", "12"]
    ref = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert ref.returncode == 0
    env["PAIRONS_THREADS"] = "5"
    alt = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert alt.returncode == 0
    assert alt.stdout == ref.stdout


def test_scan_skips_a_degenerate_sample(capsys):
    # j = 10, lam = 0: state 4 is degenerate within its sector at 4.75
    rc, out, err = run_lmg(capsys, "scan", "--j", "10", "--line", "diagonal",
                           "--from", "4.5", "--to", "5", "--steps", "3",
                           "--state", "4")
    assert rc == 0
    assert err == ("skipped gx=4.75: DegenerateStateError: state 4 at "
                   "(gx=4.75, gy=4.75) is degenerate within its parity "
                   "sector\n")
    assert sorted({row.split(",")[0] for row in out.splitlines()[1:]}) == [
        "4.5", "5"]
