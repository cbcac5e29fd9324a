"""One session: a fresh interpreter runs one workload's query phase.

run.py starts this script once per session, so every session pays for
skewalg's import and starts with cold caches, as a `skewalg` invocation
does.  `--probe` only imports skewalg, for set-up time.  The last line of
standard output is one JSON object; `ready` is the CLOCK_MONOTONIC time at
which `import skewalg` finished, which the harness subtracts from the time
it started the process.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import skewalg as S

READY = time.clock_gettime(time.CLOCK_MONOTONIC)


def _digest(outputs: dict, certdir: str) -> str:
    """A fingerprint of everything the queries returned and wrote."""
    parts = []
    results = outputs["results"]
    for key in sorted(results, key=repr):
        value = results[key]
        if isinstance(value, S.Report):
            doc = value.to_json()
            doc.pop("elapsed_ms")
            doc["certificates"] = [os.path.basename(c) for c in doc["certificates"]]
            value = doc
        elif isinstance(value, S.MultiPoly):
            value = [len(value), hash(frozenset(value.terms.items()))]
        parts.append([repr(key), value])
    for name in sorted(os.listdir(certdir)):
        with open(os.path.join(certdir, name), "rb") as fh:
            parts.append([name, hashlib.sha256(fh.read()).hexdigest()])
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--inputs", help="JSON file written by run.py")
    ap.add_argument("--certdir", help="empty directory for certificate files")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="where a traced session writes its spans")
    ap.add_argument("--check", action="store_true",
                    help="run the correctness checks after the timed phase")
    args = ap.parse_args()
    if args.probe:
        print(json.dumps({"ready": READY}))
        return 0

    import checks
    import tracing
    import workloads

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True
    t0 = time.perf_counter()
    outputs = workloads.run_queries(S, args.workload, inputs, args.certdir)
    solve_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "ready": READY,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "cert_bytes": sum(os.path.getsize(os.path.join(args.certdir, f))
                          for f in os.listdir(args.certdir)),
        "attempted": outputs["attempted"],
        "failed": outputs["failed"],
        "digest": _digest(outputs, args.certdir),
    }
    if tracer is not None:
        result["layers"] = tracing.per_layer_metrics(tracer, solve_s)
        if args.spans:
            tracer.write(args.spans)
    if args.check:
        result["check_failures"] = checks.check_session(
            S, args.workload, inputs, outputs, args.certdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
