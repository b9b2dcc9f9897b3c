import importlib.metadata
import json
import subprocess

import pytest

from pairons import collapse_points
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


def test_collapse_diagonal_frozen(capsys):
    rc, out, _ = run_lmg(capsys, "collapse", "--j", "10", "--line",
                         "diagonal")
    assert rc == 0
    assert out == COLLAPSE_DIAGONAL_J10


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
