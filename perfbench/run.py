"""skewalg benchmark: whole-run metrics per workload, or a traced run.

    python3 perfbench/run.py --workload alt-quotient --seed 1 --seconds 40 --trace 0

Run from the repository root; skewalg is imported from ./src, nothing is
installed.  A run generates the workload's inputs from --seed, then runs
sessions, each in a fresh single-threaded interpreter, until --seconds
have passed (always whole sessions, at least one).  Every session of a run
gets the same inputs; the first one is checked for correctness apart from
the program, and the others must produce the same outputs.

--trace 0 prints the end-to-end metrics: medians over the run's sessions
of solve_s, peak_rss_mb and cert_bytes, and of setup_s over the sessions
plus extra processes that only import skewalg.  --trace 1 alternates an
untraced and a traced session and prints the per-layer metrics of the
traced ones (medians), with trace.overhead_s, the traced minus the
untraced solve time.  --workload all runs every workload in turn.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Everything the benchmark writes goes under ./.bench_build.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.pycache_prefix = str(BUILD / "pycache")  # no bytecode in the source tree

from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_PROBES = 9
SESSION_TIMEOUT_S = 170
RUN_LIMIT_S = 150  # start no session that would likely end later than this
UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cert_bytes": "bytes"}


class SessionError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env() -> dict:
    """Sessions import skewalg from ./src and keep all bytecode, the
    standard library's too, under .bench_build, so that set-up time reads
    cached bytecode whatever the caller's bytecode settings are."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
               PYTHONHASHSEED="0")
    return env


def _spawn(args: list) -> dict:
    """Run session.py to its end and return its result line."""
    start = _now()
    proc = subprocess.run([sys.executable, str(HERE / "session.py"), *args],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=SESSION_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SessionError(f"session {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _session(workload, inputs_path, workdir, index, trace, check, spans=None):
    certdir = workdir / f"certs{index}"
    certdir.mkdir()
    args = ["--workload", workload, "--inputs", str(inputs_path),
            "--certdir", str(certdir)]
    if trace:
        args.append("--trace")
        if spans:
            args += ["--spans", str(spans)]
    if check:
        args.append("--check")
    try:
        return _spawn(args)
    finally:
        shutil.rmtree(certdir, ignore_errors=True)


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bits", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD))
    spans = BUILD / "traces" / f"{workload}-seed{seed}.jsonl"
    if trace:
        spans.parent.mkdir(exist_ok=True)
    try:
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(make_inputs(workload, seed)))
        setups = []
        if not trace:
            _spawn(["--probe"])  # fills the bytecode cache; not counted
            setups = [_spawn(["--probe"])["setup_s"] for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        begin = _now()
        while True:
            k = len(plain)
            plain.append(_session(workload, inputs_path, workdir, 2 * k, False, k == 0))
            if trace:
                traced.append(_session(workload, inputs_path, workdir, 2 * k + 1,
                                       True, False, spans))
            elapsed = _now() - begin
            if elapsed >= seconds or elapsed * (k + 2) / (k + 1) > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sessions = plain + traced
    failures = plain[0]["check_failures"]
    if len({s["digest"] for s in sessions}) != 1:
        failures.append("sessions with the same inputs produced different outputs")
    for f in failures:
        print(f"{workload}: check failed: {f}", file=sys.stderr)
    median = lambda key, runs: statistics.median(r[key] for r in runs)
    if trace:
        values = {name: statistics.median(t["layers"][name] for t in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = median("solve_s", traced) - median("solve_s", plain)
        metrics = {n: {"value": v, "unit": _unit(n)} for n, v in values.items()}
    else:
        values = {"solve_s": median("solve_s", plain),
                  "setup_s": statistics.median(setups + [s["setup_s"] for s in plain]),
                  "peak_rss_mb": median("peak_rss_mb", plain),
                  "cert_bytes": statistics.median_low(s["cert_bytes"] for s in plain)}
        metrics = {n: {"value": v, "unit": UNITS[n]} for n, v in values.items()}
    return {"correct": not failures,
            "attempted": sum(s["attempted"] for s in sessions),
            "failed": sum(s["failed"] for s in sessions),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="skewalg benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "skewalg" / "__init__.py").is_file():
        print(f"error: no skewalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except (SessionError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for w, result in results.items():
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    if args.workload == "all":
        print(json.dumps({w: r for w, r in results.items()}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
