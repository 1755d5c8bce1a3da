"""Smoke test of the benchmark: every workload at its smallest size.

Each run must print every metric of ``BENCHMARK.json`` with its unit, check
every gate of its workload at least once, and end with a parseable JSON
result.  Run with ``python -m pytest cylbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "cylbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_and_gate(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result[
        "attempted"]

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and value == value
        line = f"# {m['name']} = \\S+ {re.escape(m['unit'])}(\\s|$)"
        assert any(re.match(line, r) for r in report), m["name"]
    assert any(r.startswith("# failed_share = ") for r in report)
    assert any(r.startswith("# env {") for r in report)

    gates = dict(re.findall(r"^# gate (\S+): checked (\d+), breached 0$",
                            "\n".join(report), re.M))
    assert set(gates) == set(workloads.WORKLOADS[workload].gates_named)
    assert all(int(n) > 0 for n in gates.values()), gates


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "cylbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_exception_in_a_check_breaches_its_gate():
    gates = workloads.Gates()
    with gates.guard("retrace"):
        raise KeyError("no such event")
    assert not gates.ok
    assert gates.checked["retrace"] == gates.breached["retrace"] == 1
    assert "KeyError" in gates.first_breach["retrace"]
