import importlib.metadata
import json
import subprocess

import pytest

import pairons.cli
import pairons.collapse
import pairons.paironmap
from pairons import BosonState, collapse_points
from pairons.cli import bcs_main, lmg_main
from conftest import module_cli

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


def test_bcs_spectrum_frozen(capsys):
    rc, out, _ = run_bcs(capsys, "spectrum", "--levels", "0,1",
                         "--gamma", "1", "--n", "2")
    assert rc == 0
    assert out == BCS_SPECTRUM


def test_bcs_spectrum_three_levels_frozen(capsys):
    # read off the sector solves without building a state
    rc, out, _ = run_bcs(capsys, "spectrum", "--levels", "0,0.5,1",
                         "--gamma", "0.5", "--n", "6")
    assert rc == 0
    assert out == BCS_SPECTRUM_N6


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


def test_float_cells_roundtrip(capsys):
    # 17 significant digits: parsing the text recovers the double exactly
    rc, out, _ = run_lmg(capsys, "spectrum", "--j", "1", "--gx", "1", "--gy", "-1")
    assert rc == 0
    energy = out.splitlines()[1].split(",")[1]
    assert float(energy) == -(2.0 ** 0.5)


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


def test_nonpositive_j_rejected(capsys):
    rc, _, err = run_lmg(capsys, "spectrum", "--j", "0", "--gx", "1", "--gy", "2")
    assert rc == 2


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


SCAN_ARGS = ["scan", "--j", "4", "--from", "0.5", "--to", "9.5",
             "--steps", "40"]


def test_scan_deterministic_across_threads(capsys):
    outputs = []
    for n in ("1", "4"):
        rc, out, _ = run_lmg(capsys, *SCAN_ARGS, "--threads", n)
        assert rc == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


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
    reconstruct = pairons.cli.reconstruct_boson_state

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
    monkeypatch.setattr(pairons.cli, "reconstruct_boson_state",
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
# given, and prints the scipy modules then loaded as JSON on stderr's last
# line.
_SCIPY_PROBE = """\
import json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
import pairons, pairons.cli
from pairons.__main__ import main
rc = main(sys.argv[2:]) if sys.argv[2:] else 0
sys.stdout.flush()
print(json.dumps(sorted(name for name, module in sys.modules.items()
                        if module is not None
                        and name.partition(".")[0] == "scipy")),
      file=sys.stderr)
sys.exit(rc)
"""


def _scipy_probe(*argv, block=False):
    """The stdout of a run that exits 0, and the scipy modules it loaded."""
    prefix, env = module_cli("pairons")
    proc = subprocess.run([prefix[0], "-c", _SCIPY_PROBE,
                           "block" if block else "load", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_probe() == ("", [])


@pytest.mark.parametrize("command", ["pairons", "spectrum", "ellipsoid"])
def test_bcs_runs_without_scipy(command):
    argv = ["bcs", command, "--levels", "0,0.5,1", "--n", "6",
            "--gamma", "0.5"]
    prefix, env = module_cli("pairons")
    ref = subprocess.run(prefix + argv, capture_output=True, text=True,
                         env=env, timeout=300)
    assert ref.returncode == 0, ref.stderr
    assert _scipy_probe(*argv, block=True) == (ref.stdout, [])


@pytest.mark.parametrize("command", [
    ["collapse"], ["spectrum", "--gx", "2", "--gy", "8"],
    ["pairons", "--gx", "2", "--gy", "8"],
    ["zeros", "--gx", "2", "--gy", "8", "--state", "3"], ["crossings"]],
    ids=lambda command: command[0])
def test_lmg_runs_without_scipy(command):
    # every lmg command but scan, whose branch matcher needs scipy.optimize
    argv = ["lmg", command[0], "--j", "4", *command[1:]]
    prefix, env = module_cli("pairons")
    ref = subprocess.run(prefix + argv, capture_output=True, text=True,
                         env=env, timeout=300)
    assert ref.returncode == 0, ref.stderr
    assert _scipy_probe(*argv, block=True) == (ref.stdout, [])


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
