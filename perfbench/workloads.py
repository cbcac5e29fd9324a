"""The three workloads: seeded inputs and the query phase.

make_inputs runs in the harness and never imports skewalg; run_queries
runs in the session process and reaches the library only through the
names of the `skewalg` package, so a traced session sees every call.

Each workload is a closed loop with one client: a query is issued when
the previous answer is back.
"""

import json
import os
import random
import sys
import traceback

from reference import (FLEX_IDENTITY, HOLE, combine, expand_generator,
                       format_poly, random_word)

WORKLOADS = ("alt-quotient", "flex-member", "symbolic")

ALT_QUOTIENT = (
    [("fm_nonzero", {"m": m}) for m in (3, 4, 5)]
    + [("skew_dim", {"d": 5}), ("lemma3", {"m": 5}), ("eq6", {"m": 5})]
)

SYMBOLIC = (
    [("lemma1", {"m": m}) for m in (3, 4, 5, 6)]
    + [("eq1", {}), ("lemma2", {"m": 3}), ("lemma2", {"m": 4}), ("eq4", {"k": 2}),
       ("cor2_assoc", {}), ("assoc_projection", {"d": 9}), ("cor4_tiny", {}),
       ("lemma3", {"m": 4}), ("eq6", {"m": 4})]
    + [("skew_dim", {"d": d}) for d in (1, 2, 3, 4)]
)
SYMBOLIC_SKEWS = (("x", 7), ("z", 2), ("z", 3), ("z", 4), ("z", 5))

# flex-member: degree-5 components with repeated variables, given as
# exponents of x1, x2, ...  Each component has a fixed pool of generators,
# made from a constant seed.  --seed groups the pool into targets, draws
# the coefficients and the non-members' extra monomials, and orders the
# stream.  Every generator enters FLEX_USES members and one non-member, so
# every seed saturates every component once and asks for the same
# generators, while the targets themselves change.
FLEX_COMPONENTS = ((3, 1, 1), (2, 2, 1), (2, 1, 1, 1))
FLEX_POOL = 90   # generators per component
FLEX_USES = 3    # member targets each generator enters
FLEX_TERMS = 3   # generators per target
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def _labels(exponents) -> list:
    return [v for v, e in enumerate(exponents, start=1) for _ in range(e)]


def _flex_generator(rng, exponents) -> dict:
    """(a,b,c) + (c,b,a) at random monomials a, b, c in a random context."""
    labels = _labels(exponents)
    rng.shuffle(labels)
    ctx_len = rng.randint(0, len(labels) - 3)
    slot_labels = labels[ctx_len:]
    i, j = sorted(rng.sample(range(1, len(slot_labels)), 2))
    parts = (slot_labels[:i], slot_labels[i:j], slot_labels[j:])
    slots = {k + 1: random_word(rng, part) for k, part in enumerate(parts)}
    ctx_labels = labels[:ctx_len] + [HOLE]
    rng.shuffle(ctx_labels)
    return expand_generator(FLEX_IDENTITY, slots, random_word(rng, ctx_labels))


def _flex_targets(rng, exponents) -> list:
    """FLEX_POOL * FLEX_USES / FLEX_TERMS members, FLEX_POOL / FLEX_TERMS
    non-members."""
    pool_rng = random.Random(f"flex-pool-{exponents}")
    pool = [_flex_generator(pool_rng, exponents) for _ in range(FLEX_POOL)]
    targets = []
    for use in range(FLEX_USES + 1):
        member = use < FLEX_USES
        order = rng.sample(range(FLEX_POOL), FLEX_POOL)
        for k in range(0, FLEX_POOL, FLEX_TERMS):
            p = {}
            while not p:
                p = combine(*((rng.choice(COEFFICIENTS), pool[g])
                              for g in order[k:k + FLEX_TERMS]))
            if not member:
                labels = _labels(exponents)
                rng.shuffle(labels)
                p = combine((1, p), (rng.choice(COEFFICIENTS),
                                     {random_word(rng, labels): 1}))
            targets.append({"text": format_poly(p), "member": member})
    return targets


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs from the seed alone; the same seed gives the same inputs.

    alt-quotient and symbolic run fixed queries, so the seed sets their
    order (the total work does not depend on it), the program's own
    sampling seed and the octonions the checks evaluate at.
    """
    rng = random.Random(seed)
    if workload == "flex-member":
        targets = [t for exponents in FLEX_COMPONENTS
                   for t in _flex_targets(rng, exponents)]
        rng.shuffle(targets)
        return {"seed": seed, "targets": targets}
    if workload == "alt-quotient":
        queries = [{"op": "verify", "check": c, "params": p} for c, p in ALT_QUOTIENT]
    elif workload == "symbolic":
        queries = ([{"op": "verify", "check": c, "params": p} for c, p in SYMBOLIC]
                   + [{"op": "skew", "word": w, "k": k} for w, k in SYMBOLIC_SKEWS])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(queries)
    return {"seed": seed, "queries": queries}


def run_queries(S, workload: str, inputs: dict, certdir: str) -> dict:
    """The timed query phase.

    Returns {"attempted", "failed", "results"}; results maps a query key to
    its answer and is what the checks read.  A query that raises or ends
    in resource_limit counts as failed.
    """
    config = S.Config(certificate_directory=certdir, random_seed=inputs["seed"])
    if workload == "flex-member":
        flex = S.builtin_variety("flex")
        queries = [(("target", i),
                    lambda i=i, t=t: _member_query(S, flex, t["text"], i, config))
                   for i, t in enumerate(inputs["targets"])]
    else:
        queries = [_library_query(S, q, config) for q in inputs["queries"]]
    results, failed = {}, 0
    for key, run in queries:
        try:
            results[key] = answer = run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        failed += isinstance(answer, S.Report) and answer.verdict == "resource_limit"
    return {"attempted": len(queries), "failed": failed, "results": results}


def _library_query(S, q, config):
    """(key, thunk) for a named check or a skew through the library."""
    if q["op"] == "verify":
        key = (q["check"], json.dumps(q["params"], sort_keys=True))
        return key, lambda: S.verify(q["check"], q["params"], config)
    bracket = S.x_bracket if q["word"] == "x" else S.z_word
    return ("skew", q["word"], q["k"]), lambda: S.skew(bracket(q["k"]).poly)


def _member_query(S, flex, text, index, config):
    """parse_poly, is_member, recheck and to_json; certificates to files."""
    p = S.parse_poly(text)
    result = S.is_member(p, flex, config)
    rechecked = []
    for j, cert in enumerate(result.certificates):
        rechecked.append(cert.recheck(flex))
        path = os.path.join(config.certificate_directory, f"target{index:03d}_{j}.json")
        with open(path, "w") as fh:
            json.dump(cert.to_json(flex), fh, indent=1)
    return {"member": result.member, "rechecked": rechecked}
