"""The experiment scripts run end to end and exit 0."""
import os
import subprocess
import sys

import pytest

from conftest import module_cli

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script, argv", [
    ("run_scan.py", ["--j", "4", "--steps", "400"]),
    ("boson_demo.py", [])])
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
