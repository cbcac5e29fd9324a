"""Correctness checks made apart from the program, run after the timed phase.

The checks read the program's outputs (reports, polynomials, certificate
files) and test them with the benchmark's own code in reference.py:

(a) integer octonions, an alternative and flexible algebra: a "no" for
    fm_nonzero evaluates nonzero there, and every "yes" target, the
    lemma3 residual and the eq6 relation evaluate to zero;
(b) a flex-member non-member has a nonzero associative image, and the
    flexible identity and every member have none;
(c) every certificate file, re-expanded here, sums to its stated target;
(d) fm(m) and every skew output change sign under x1 <-> x2;
(e) fixed values from outside the program: alternative multilinear
    dimensions, associative dimensions n! and skew dimensions.

Each check returns a list of failure messages; empty means correct.
"""

import json
import os
import random
from fractions import Fraction
from math import factorial

from reference import (ALT_IDENTITIES, FLEX_IDENTITY, associative_projection,
                       combine, evaluate, expand_certificate, leaves, octonion_self_test,
                       omul, osub, parse_poly, random_octonions, relabel)

ALT_MULTILINEAR_DIMS = {1: 1, 2: 2, 3: 7, 4: 32, 5: 175}
SKEW_DIMS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 4}
IDENTITIES = {"flex": [FLEX_IDENTITY], "alt": list(ALT_IDENTITIES)}
NONZERO_TRIES = 10


def _n_vars(p: dict) -> int:
    return max((max(leaves(w)) for w in p), default=1)


def _sign_flips(p: dict) -> bool:
    """(d): swapping x1 and x2 negates p."""
    swapped = relabel(p, {1: 2, 2: 1})
    return len(swapped) == len(p) and all(swapped.get(w) == -c for w, c in p.items())


def _certificate_failures(path: str, rng, target=None) -> list:
    """(c) and (a) for one certificate file; target, if given, must match."""
    name = os.path.basename(path)
    with open(path) as fh:
        doc = json.load(fh)
    stated = parse_poly(doc["target"])
    out = []
    if target is not None and stated != target:
        out.append(f"{name}: stated target differs from the query")
    known = IDENTITIES[doc["variety"]]
    if any(parse_poly(g["identity"]) not in known for g in doc["generators"]):
        out.append(f"{name}: a generator uses an unknown identity")
    if expand_certificate(doc) != stated:
        out.append(f"{name}: re-expansion does not sum to the target")
    if any(evaluate(stated, random_octonions(rng, _n_vars(stated)))):
        out.append(f"{name}: target is nonzero on octonions")
    return out


def _octonion_commutator(a, b):
    return osub(omul(a, b), omul(b, a))


def _vanishes(parts, values) -> bool:
    """sum of c * p(values) over (c, p) pairs is zero."""
    total = [Fraction(0)] * 8
    for c, p in parts:
        for k, x in enumerate(evaluate(p, values)):
            total[k] += c * x
    return not any(total)


def _check_reports(S, reports: dict, rng) -> list:
    """Named-check reports from alt-quotient and symbolic."""
    out = []
    for (check, params), report in reports.items():
        label = f"{check} {params}"
        if report.verdict != "pass":
            out.append(f"{label}: verdict {report.verdict}")
            continue
        d, p = report.details, json.loads(params)
        if check == "fm_nonzero":
            m, f = p["m"], S.fm(p["m"]).terms
            if not any(any(evaluate(f, random_octonions(rng, m)))
                       for _ in range(NONZERO_TRIES)):
                out.append(f"{label}: fm({m}) vanished on every sampled octonion tuple")
            if d["ambient"] - d["ideal_rank"] != ALT_MULTILINEAR_DIMS[m]:
                out.append(f"{label}: alternative dimension is not {ALT_MULTILINEAR_DIMS[m]}")
        elif check == "skew_dim":
            if d["skew_dimension"] != SKEW_DIMS[p["d"]]:
                out.append(f"{label}: skew dimension is not {SKEW_DIMS[p['d']]}")
        elif check == "lemma3":
            out += _check_lemma3(S, p["m"], d, report.certificates, rng, label)
        elif check == "eq6":
            out += _check_eq6(S, p["m"], d, rng, label)
        for path in report.certificates:
            out += _certificate_failures(path, rng)
    return out


def _check_lemma3(S, m, details, cert_paths, rng, label) -> list:
    alpha = Fraction(details["alpha"])
    beta = Fraction(details["beta"]) if details["beta"] is not None else Fraction(0)
    fm = S.fm(m).terms
    sx = S.skew(S.x_bracket(m).poly).terms
    sz = S.skew(S.z_word(m - 2).poly).terms if m - 2 >= 2 else {}
    out = [f"{label}: skew output keeps its sign under x1<->x2"
           for p in (sx, sz) if p and not _sign_flips(p)]
    parts = [(1, fm), (-alpha, sx), (-beta, sz)]
    if not all(_vanishes(parts, random_octonions(rng, m)) for _ in range(2)):
        out.append(f"{label}: residual fm - alpha Skew x - beta Skew z is nonzero on octonions")
    for path in cert_paths:
        out += _certificate_failures(path, rng, target=combine(*parts))
    return out


def _check_eq6(S, m, details, rng, label) -> list:
    """Skew x^[m] = lambda fm(m) + nu * sum over i<j of
    (-1)^(i+j) [fm(m-2)(rest), [xi, xj]], rebuilt on octonions."""
    lam, nu = Fraction(details["lambda"]), Fraction(details["nu"])
    sx = S.skew(S.x_bracket(m).poly).terms
    fm, inner = S.fm(m).terms, S.fm(m - 2).terms
    for _ in range(2):
        values = random_octonions(rng, m)
        bracket_sum = [Fraction(0)] * 8
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                rest = [values[k - 1] for k in range(1, m + 1) if k not in (i, j)]
                term = _octonion_commutator(
                    evaluate(inner, rest),
                    _octonion_commutator(values[i - 1], values[j - 1]))
                sign = 1 if (i + j) % 2 == 0 else -1
                bracket_sum = [b + sign * t for b, t in zip(bracket_sum, term)]
        lhs, f = evaluate(sx, values), evaluate(fm, values)
        if any(a - lam * b - nu * c for a, b, c in zip(lhs, f, bracket_sum)):
            return [f"{label}: Skew x^[{m}] - lambda fm - nu sum is nonzero on octonions"]
    if not lam:
        return [f"{label}: lambda vanished"]
    return []


def _check_flex(inputs: dict, outputs: dict, certdir: str, rng) -> list:
    out = []
    if associative_projection(FLEX_IDENTITY):
        out.append("the flexible identity has a nonzero associative image")
    for i, target in enumerate(inputs["targets"]):
        answer = outputs["results"].get(("target", i))
        if answer is None:  # the query failed and is counted as such
            continue
        p = parse_poly(target["text"])
        label = f"target {i}"
        if answer["member"] != target["member"]:
            out.append(f"{label}: answered member={answer['member']}")
            continue
        if not all(answer["rechecked"]):
            out.append(f"{label}: recheck rejected the certificate")
        paths = sorted(os.path.join(certdir, f) for f in os.listdir(certdir)
                       if f.startswith(f"target{i:03d}_"))
        if target["member"]:
            if associative_projection(p):
                out.append(f"{label}: member with a nonzero associative image")
            if len(paths) != 1:
                out.append(f"{label}: expected one certificate file, found {len(paths)}")
            for path in paths:
                out += _certificate_failures(path, rng, target=p)
        elif not associative_projection(p):
            out.append(f"{label}: non-member with a zero associative image")
    return out


def _check_fixed_dimensions(S) -> list:
    """(e) on small components the symbolic workload already touches."""
    out = []
    alt, assoc = S.builtin_variety("alt"), S.builtin_variety("assoc")
    for n in range(1, 5):
        md = {i: 1 for i in range(1, n + 1)}
        if S.component_dimension(alt, md) != ALT_MULTILINEAR_DIMS[n]:
            out.append(f"alternative multilinear dimension {n} is not "
                       f"{ALT_MULTILINEAR_DIMS[n]}")
        if S.component_dimension(assoc, md) != factorial(n):
            out.append(f"associative multilinear dimension {n} is not {n}!")
    return out


def check_session(S, workload: str, inputs: dict, outputs: dict, certdir: str) -> list:
    rng = random.Random(inputs["seed"])
    out = octonion_self_test(rng)
    if workload == "flex-member":
        return out + _check_flex(inputs, outputs, certdir, rng)
    results = outputs["results"]
    reports = {k: v for k, v in results.items() if k[0] != "skew"}
    out += _check_reports(S, reports, rng)
    fm_degrees = sorted({json.loads(p).get("m") for (c, p) in reports
                         if c in ("fm_nonzero", "lemma1")} - {None})
    out += [f"fm({m}) keeps its sign under x1<->x2"
            for m in fm_degrees if not _sign_flips(S.fm(m).terms)]
    out += [f"skew of {k[1]}^[{k[2]}] keeps its sign under x1<->x2"
            for k, p in results.items() if k[0] == "skew" and not _sign_flips(p.terms)]
    if workload == "symbolic":
        out += _check_fixed_dimensions(S)
    return out
