"""One checked session of each benchmark workload, and of flex-member.

The benchmark checks its first session's outputs with its own code
(perfbench/checks.py) and refuses a run whose outputs are wrong.  Running
that same checked session here, with the harness's inputs and environment,
makes an answer the benchmark would refuse fail the tests first.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# flex-member is not in BENCHMARK.json, but it is the one workload on the
# lazy membership path: 360 targets, each certificate re-expanded by the
# benchmark's own code, for about 1.6 s on 2 vCPUs
WORKLOADS.append("flex-member")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checked_session_passes(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    # importing run.py points the bytecode cache at its build directory
    monkeypatch.setattr(sys, "pycache_prefix", sys.pycache_prefix)
    import run
    import workloads

    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(workloads.make_inputs(workload, 1)))
    # session.py --check, in a certificate directory under tmp_path, with run._env()
    result = run._session(workload, inputs, tmp_path, 0, trace=False, check=True)
    assert result["check_failures"] == []
    assert result["failed"] == 0
    assert result["attempted"] > 0
