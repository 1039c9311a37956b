"""Acceptance criteria, one test per criterion.

Criteria 1-8 run the checks of ``fiberdist.selftest.CHECKS`` at full scale
and must make exactly the number of checks pinned there.  Each test prints
one PASS/FAIL line with its runtime; stated runtime budgets are asserted.
"""

import json
import subprocess
import sys
import time

from fiberdist.selftest import CHECKS

CLI = [sys.executable, "-m", "fiberdist.cli"]


def report(number, name, detail, started, budget):
    elapsed = time.time() - started
    print(f"ACCEPTANCE PASS: criterion {number} ({name}): {detail} [{elapsed:.1f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"


def run_criterion(number):
    started = time.time()
    check = next(c for c in CHECKS if c.criterion == number)
    result = check.run(True, None)
    assert result.ok, result.failures[:3]
    assert result.checked == check.full_checks, (result.checked, check.full_checks)
    report(number, check.name, check.detail(result), started, check.budget_s)


def test_criterion_1_extension_property():
    run_criterion(1)


def test_criterion_2_hausdorff_coincidence():
    run_criterion(2)


def test_criterion_3_power_coincidence():
    run_criterion(3)


def test_criterion_4_kantorovich_solver_vs_oracle():
    run_criterion(4)


def test_criterion_5_graev_swierczkowski():
    run_criterion(5)


def test_criterion_6_pseudometric_axioms():
    run_criterion(6)


def test_criterion_7_lipschitz_bound():
    run_criterion(7)


def test_criterion_8_naturality():
    run_criterion(8)


def test_criterion_9_cli_contract(tmp_path):
    started = time.time()

    def run_cli(*args):
        proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
        return proc.returncode, proc.stdout

    code, out = run_cli("selftest")
    assert code == 0, out
    assert all(line.startswith("PASS") for line in out.splitlines() if line)

    space = {
        "points": ["x", "y"],
        "matrix": [["0", "5"], ["5", "0"]],
        "mode": "metric",
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space, indent=2) + "\n")
    code, out = run_cli(
        "dist",
        "transport",
        "--method",
        "both",
        "--inject-fault",
        "transport-solver",
        "--space",
        str(path),
        "--a",
        '{"x":"1"}',
        "--b",
        '{"y":"1"}',
    )
    assert code == 3, out
    payload = json.loads(out)
    assert payload["match"] is False
    assert payload["specialized"]["witness"] and payload["generic"]["witness"]

    code, out = run_cli("validate", "--space", str(path))
    assert code == 0
    assert out == path.read_text()

    report(9, "cli contract", "selftest 0, corrupted both-mode 3, byte round-trip", started, 120)
