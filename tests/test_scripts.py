"""The experiment scripts run end to end and exit 0."""
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import module_cli

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script, argv", [
    ("run_scan.py", ["--j", "4", "--steps", "400"]),
    ("boson_demo.py", []),
    ("boson_demo.py", ["--levels", "0", "1", "--n", "2"])])
def test_script_runs(script, argv):
    _, env = module_cli()
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script),
                           *argv], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_run_scan_excited_state_is_usage_error():
    _, env = module_cli()
    script = os.path.join(SCRIPTS, "run_scan.py")
    proc = subprocess.run([sys.executable, script,
                           "--j", "4", "--state", "1"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "ground state" in proc.stderr


def _dump_outputs():
    spec = importlib.util.spec_from_file_location(
        "dump_outputs", os.path.join(SCRIPTS, "dump_outputs.py"))
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    return dump


def test_dump_outputs_runner():
    # the runner of the byte-identity dump, on one success and one usage
    # error, in fresh interpreters
    dump = _dump_outputs()
    ok = dump.run(["bcs", "spectrum", "--levels", "0,1", "--gamma", "1",
                   "--n", "2"])
    assert ok == {"argv": ["bcs", "spectrum", "--levels", "0,1", "--gamma",
                           "1", "--n", "2"],
                  "exit": 0, "stderr": "",
                  "stdout": "index,energy,seniority,degenerate\n"
                            "0,0.3819660112501051,00,0\n1,1,11,0\n"
                            "2,2.6180339887498949,00,0\n"}
    bad = dump.run(["lmg", "spectrum", "--j", "2", "--gx", "nan", "--gy", "1"])
    assert bad["exit"] == 2 and bad["stdout"] == ""
    assert "lam must be finite" in bad["stderr"]
    assert len(dump.COMMANDS) == 166


def test_dump_outputs_compare(tmp_path):
    # two crafted dumps: one command keeps its output, one changes its
    # exit code and stderr, one JSON command moves two numeric meta fields,
    # and one changes stdout at line 2, column 5
    same = {"argv": ["lmg", "spectrum"], "exit": 0, "stdout": "a\n",
            "stderr": ""}

    def pairons_json(fidelity, rows):
        meta = {"command": "lmg pairons", "energy": -1.5, "nu": 0,
                "reconstruction_fidelity": fidelity, "seniority": rows,
                "config": {"j": 40}}
        return {"argv": ["lmg", "pairons", "--format", "json"], "exit": 0,
                "stdout": json.dumps({"meta": meta, "rows": rows}) + "\n",
                "stderr": ""}

    base = [same,
            {"argv": ["lmg", "pairons"], "exit": 0, "stdout": "x\n",
             "stderr": "warning\n"},
            pairons_json(1.0, [0, 1]),
            {"argv": ["lmg", "scan"], "exit": 0, "stdout": "h\n1,2,3\n",
             "stderr": ""}]
    head = [same,
            {"argv": ["lmg", "pairons"], "exit": 3, "stdout": "x\n",
             "stderr": "numerical failure\n"},
            pairons_json(1.0 + 2.0 ** -52, [0, 3]),
            {"argv": ["lmg", "scan"], "exit": 0, "stdout": "h\n1,2,4\n",
             "stderr": ""}]
    assert _compare(tmp_path, base, head) == REPORT
    # dumps of different lengths are paired by argv: a command in only one
    # of them is listed as such and not counted
    base_only = {"argv": ["lmg", "zeros"], "exit": 0, "stdout": "z\n",
                 "stderr": ""}
    head_only = dict(base_only, argv=["lmg", "crossings"])
    assert _compare(tmp_path, [base_only] + base,
                    head + [head_only]) == REPORT + """
1 only in the base:

- `lmg zeros`

1 only in the head:

- `lmg crossings`
"""


def _compare(tmp_path, base, head):
    """dump_outputs.py --compare of two lists of records, its stdout."""
    paths = []
    for name, records in (("base", base), ("head", head)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(records))
    proc = subprocess.run([sys.executable,
                           os.path.join(SCRIPTS, "dump_outputs.py"),
                           "--compare", *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


REPORT = """\
## Byte identity against the base commit

3 of 4 commands differ.

- `lmg pairons`
  - exit code 0 -> 3
  - stderr, first difference at line 1, column 1:
    ```
    base: warning
    head: numerical failure
    ```
- `lmg pairons --format json`
  - stdout, first difference at line 1, column 92:
    ```
    base: ... "nu": 0, "reconstruction_fidelity": 1.0, "seniority": [0, 1], \
"config": {"j": 40}}, "rows": [0, 1]}
    head: ... "nu": 0, "reconstruction_fidelity": 1.0000000000000002, \
"seniority": [0, 3], "config": {"j": 40}}, "rows": [0, 3]}
    ```
  - meta, largest absolute difference: energy 0, nu 0, \
reconstruction_fidelity 2.22e-16, seniority 2
- `lmg scan`
  - stdout, first difference at line 2, column 5:
    ```
    base: 1,2,3
    head: 1,2,4
    ```
"""


COUNT_SAMPLE = '''"""A module docstring
on two lines."""
import os  # a comment

# a comment line


def f(x):
    """A function docstring."""
    text = """a string
that is code"""
    return (x +
            1)
'''


def test_count_lines(tmp_path):
    # 14 lines in two files; code: the import, the def, the two lines of
    # the string that is no docstring, the two of the return, and x = 1
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(COUNT_SAMPLE)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not counted\n")
    proc = subprocess.run([sys.executable,
                           os.path.join(SCRIPTS, "count_lines.py"),
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("14 lines, 7 without docstrings, comments and "
                           "blank lines\n")
