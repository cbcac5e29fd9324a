"""Named, reproducible checks with pass/fail reports and certificates.

Each check ties one claim to a computation.  Verdicts are three-valued:
pass and fail are mathematical outcomes, resource_limit means a configured
bound stopped the computation before an answer existed; the two must never
be conflated.  Reports are plain data and serialize to JSON; membership
certificates are written as separate JSON files referenced by path, when
the config names a certificate directory.
"""

import os
import random
import sys
import time
from collections import namedtuple
from itertools import chain, combinations, product
from math import comb, factorial

from .config import DEFAULT_CONFIG, ResourceLimitError
from .family import (BaseDescriptor, alternating_space, associative_projection,
                     base_element, basea_count, fm, solve_skew_decomposition,
                     standard_polynomial, x_bracket)
from .linalg import EchelonAccumulator
from .poly import (MultiPoly, add_terms, commutator, jordan, multiply, relabel_poly,
                   substitute)
from .symmetrize import collapse, is_skew_symmetric, skew
from .variety import (builtin_variety, component_dimension, consequence_generators,
                      expand_descriptor, is_member)
from .words import enumerate_words, format_word


class Report(namedtuple("Report", "check params verdict details certificates elapsed_ms")):
    """verdict is pass, fail or resource_limit; certificates are file paths."""

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


def _member_check(p, variety_name, config):
    """Shared body for the membership-style checks."""
    variety = builtin_variety(variety_name)
    result = is_member(p, variety, config)
    details = {"variety": variety_name, "member": result.member}
    if not result.member:
        details["witness"] = format_word(result.witness)
        return "fail", details, []
    for cert in result.certificates:
        if not cert.recheck(variety):
            details["error"] = "certificate failed re-expansion"
            return "fail", details, []
    details["generators_used"] = sum(len(c.entries) for c in result.certificates)
    return "pass", details, [(c, variety) for c in result.certificates]


def check_lemma1(params, config):
    m = params["m"]
    f = fm(m)
    details = {"m": m, "pairs_checked": m * (m - 1) // 2, "terms": len(f)}
    if is_skew_symmetric(f):
        return "pass", details, []
    details["nonvanishing_pairs"] = [pair for pair in combinations(range(1, m + 1), 2)
                                     if collapse(f, *pair)]
    return "fail", details, []


def check_eq1(params, config):
    x, y = map(MultiPoly.variable, (1, 2))
    p = commutator(multiply(x, x), y) - jordan(x, commutator(x, y))
    return _member_check(p, "flex", config)


def check_lemma2(params, config):
    m = params["m"]
    x = MultiPoly.variable(1)
    assignment = {1: multiply(x, x), 2: x}
    for slot in range(3, m + 1):
        assignment[slot] = MultiPoly.variable(slot - 1)
    p = substitute(fm(m), assignment)
    verdict, details, certs = _member_check(p, "flex", config)
    details["m"] = m
    return verdict, details, certs


def check_eq4(params, config):
    k = params["k"]
    f = fm(k + 1)
    x, y, z = map(MultiPoly.variable, (1, 2, 3))
    extras = {slot: MultiPoly.variable(slot + 2) for slot in range(2, k + 1)}
    a = substitute(f, {1: jordan(x, y), **extras, k + 1: z})
    b = substitute(f, {1: x, **extras, k + 1: jordan(z, y)})
    c = substitute(f, {1: y, **extras, k + 1: jordan(z, x)})
    verdict, details, certs = _member_check(a - b - c, "flex", config)
    details["k"] = k
    return verdict, details, certs


def check_fm_nonzero(params, config):
    m = params["m"]
    space = alternating_space(m, config)
    residual = space.residual_of(fm(m))
    details = {
        "m": m,
        "ambient": len(space.ambient),
        "ideal_rank": space.acc.rank,
    }
    if residual:
        details["witness"] = format_word(space.ambient[min(residual)])
        return "pass", details, []
    details["error"] = "fm(m) fell into the alternative T-ideal"
    return "fail", details, []


def check_skew_dim(params, config):
    d = params["d"]
    expected = basea_count(d)
    space = alternating_space(d, config)
    independent, _ = space.solve([skew(MultiPoly.monomial(w))
                                  for w in enumerate_words({1: d})])
    rank = sum(independent)
    details = {
        "d": d,
        "ambient": len(space.ambient),
        "skew_dimension": rank,
        "expected": expected,
    }
    verdict = "pass" if rank == expected else "fail"
    return verdict, details, []


def _binary_word(i: int) -> tuple:
    """Word i of the associative words in two letters listed by degree,
    then lexicographically: the binary digits of i + 2 after its leading
    1, a 0 read as letter 1 and a 1 as letter 2.  Degrees 1..b hold words
    0..2^(b+1) - 3."""
    return tuple(1 + int(bit) for bit in bin(i + 2)[3:])


def _evaluate_associative(proj: dict, words: tuple) -> dict:
    """Evaluate a multilinear associative polynomial at associative words."""
    return add_terms({}, ((tuple(chain.from_iterable(words[v - 1] for v in term)), c)
                          for term, c in proj.items()))


def _cor2_body(m: int, degree_bound: int, config):
    """Evaluate fm(m)'s associative image on m-subsets of two-letter words:
    every subset of the 6 words of degree <= 2, and 100 sampled from the
    words of degree <= degree_bound, each word decoded from its index."""
    pool_size = (1 << (degree_bound + 1)) - 2
    if pool_size > sys.maxsize:
        raise ValueError(f"degree_bound {degree_bound} gives more than sys.maxsize words"
                         " to sample from")
    proj = associative_projection(fm(m))
    full_failures = sum(
        1 for subset in combinations(map(_binary_word, range(6)), m)
        if _evaluate_associative(proj, subset)
    )
    rng = random.Random(config.random_seed)
    sampled_failures = 0
    for _ in range(100):
        subset = tuple(sorted(rng.sample(range(pool_size), m)))
        if _evaluate_associative(proj, tuple(map(_binary_word, subset))):
            sampled_failures += 1
    details = {
        "m": m,
        "degree_bound": degree_bound,
        "full_subsets": comb(6, m),
        "full_nonzero": full_failures,
        "sampled_subsets": 100,
        "sampled_nonzero": sampled_failures,
        "seed": config.random_seed,
    }
    return full_failures, sampled_failures, details


def check_cor2_assoc(params, config):
    degree_bound = params["degree_bound"]
    full_bad, sampled_bad, details = _cor2_body(6, degree_bound, config)
    verdict = "pass" if full_bad == 0 and sampled_bad == 0 else "fail"
    return verdict, details, []


def check_cor2_assoc_probe(params, config):
    """Exploratory: outcome for fm(5) is reported, never asserted."""
    degree_bound = params["degree_bound"]
    full_bad, sampled_bad, details = _cor2_body(5, degree_bound, config)
    details["outcome"] = ("vanished on all sampled substitutions"
                          if full_bad == 0 and sampled_bad == 0
                          else "nonzero on some substitution")
    return "pass", details, []


def check_assoc_projection(params, config):
    d = params["d"]
    details = {"d": d}
    for k in range(3, d + 1):
        if associative_projection(x_bracket(k).poly):
            details["error"] = f"x[{k}] has a nonzero associative image"
            return "fail", details, []
    checked = []
    for n in range(1, min(d, 5) + 1):
        m, sigma = divmod(n, 2)
        got = associative_projection(skew(base_element(BaseDescriptor("power", m, sigma)).poly))
        want = {w: (2 ** m) * c for w, c in standard_polynomial(n).items()}
        checked.append(f"t^{m}*x^{sigma}")
        if got != want:
            details["error"] = f"skew(t^{m} x^{sigma}) missed 2^{m} * S_{n}"
            return "fail", details, []
    details["bracket_images_zero_up_to"] = d
    details["standard_polynomials_checked"] = checked
    return "pass", details, []


def check_lemma3(params, config):
    m = params["m"]
    result = solve_skew_decomposition(m, config)
    details = {"m": m, "status": result.status}
    if result.status != "ok":
        return "fail", details, []
    details["alpha"] = str(result.alpha)
    details["beta"] = str(result.beta) if result.beta is not None else None
    details["beta_free"] = result.beta_free
    if not result.alpha:
        details["error"] = "alpha vanished"
        return "fail", details, []
    alt = builtin_variety("alt")
    if not result.certificate.recheck(alt):
        details["error"] = "residual certificate failed re-expansion"
        return "fail", details, []
    details["residual_generators"] = len(result.certificate.entries)
    return "pass", details, [(result.certificate, alt)]


def check_cor4_tiny(params, config):
    """Skew x^[4] under every substitution of one-variable monomials of
    degree <= 3, evaluated in the associative-and-commutative collapse."""
    proj = associative_projection(skew(x_bracket(4).poly))
    failures = sum(1 for words in product([(1,) * e for e in (1, 2, 3)], repeat=4)
                   if _evaluate_associative(proj, words))
    details = {"substitutions": 3 ** 4, "nonzero": failures}
    return ("pass" if failures == 0 else "fail"), details, []


def check_eq6(params, config):
    """Two-parameter solve: Skew x^[m] against fm(m) and the double-bracket
    sum over omitted pairs, modulo the alternative T-ideal."""
    m = params["m"]
    space = alternating_space(m, config)
    terms = []  # (sign, term) per omitted pair i < j
    for i, j in combinations(range(1, m + 1), 2):
        rest = (k for k in range(1, m + 1) if k != i and k != j)
        inner = relabel_poly(fm(m - 2), dict(enumerate(rest, start=1)))
        xi, xj = map(MultiPoly.variable, (i, j))
        terms.append((1 if (i + j) % 2 == 0 else -1, commutator(inner, commutator(xi, xj))))
    bracket_sum = MultiPoly.from_pairs((w, sign * c) for sign, term in terms
                                       for w, c in term.terms.items())

    _, coeffs = space.solve([fm(m), bracket_sum], skew(x_bracket(m).poly))
    details = {"m": m}
    if coeffs is None:
        details["error"] = "no (lambda, nu) combination exists"
        return "fail", details, []
    lam, nu = coeffs
    details["lambda"] = str(lam)
    details["nu"] = str(nu)
    if not lam:
        details["error"] = "lambda vanished"
        return "fail", details, []
    return "pass", details, []


def check_engine_soundness(params, config):
    n_certs = params["n_certificates"]
    n_shuffles = params["n_shuffles"]
    n_sets = params["n_sets"]
    details = {}

    assoc = builtin_variety("assoc")
    dims = {}
    for n in range(1, 6):
        md = {i: 1 for i in range(1, n + 1)}
        dims[n] = component_dimension(assoc, md, config)
        if dims[n] != factorial(n):
            details["error"] = f"dim(assoc, multilinear {n}) = {dims[n]} != {n}!"
            return "fail", details, []
    details["assoc_multilinear_dims"] = dims

    alt = builtin_variety("alt")
    d_alt = component_dimension(alt, {1: 1, 2: 1, 3: 1}, config)
    details["alt_dim_111"] = d_alt
    if d_alt != 7:
        details["error"] = "dim(alt, (1,1,1)) != 7"
        return "fail", details, []

    rng = random.Random(config.random_seed)
    layouts = [
        ("alt", {1: 1, 2: 1, 3: 1}),
        ("flex", {1: 2, 2: 1}),
        ("flex", {1: 1, 2: 1, 3: 1, 4: 1}),
        ("alt", {1: 2, 2: 1, 3: 1}),
    ]
    pools = []  # (variety, its generators' polynomials) per layout
    for vname, md in layouts:
        variety = builtin_variety(vname)
        pools.append((variety, [expand_descriptor(variety, desc)
                                for desc in consequence_generators(variety, md)]))
    rechecked = 0
    for _ in range(n_certs):
        variety, gens = pools[rng.randrange(len(pools))]
        picks = [(rng.randint(-3, 3), gens[rng.randrange(len(gens))])
                 for _ in range(rng.randint(1, 4))]
        target = MultiPoly.from_pairs((w, coeff * c) for coeff, g in picks
                                      for w, c in g.terms.items())
        result = is_member(target, variety, config)
        if not result.member:
            details["error"] = f"generator combination not recognized in {variety.name}"
            return "fail", details, []
        for cert in result.certificates:
            if not cert.recheck(variety):
                details["error"] = "random certificate failed re-expansion"
                return "fail", details, []
        rechecked += 1
    details["certificates_rechecked"] = rechecked

    stable = 0
    for _ in range(n_sets):
        dim = rng.randint(5, 50)
        vecs = []
        for _ in range(rng.randint(3, 12)):
            vec = {rng.randrange(dim): rng.randint(-5, 5)
                   for _ in range(rng.randint(1, min(dim, 6)))}
            vecs.append({k: v for k, v in vec.items() if v})
        base_acc = EchelonAccumulator(dim)
        for v in vecs:
            base_acc.insert_reduce(v)
        for _ in range(n_shuffles):
            order = list(range(len(vecs)))
            rng.shuffle(order)
            acc = EchelonAccumulator(dim)
            for i in order:
                acc.insert_reduce(vecs[i])
            if acc.rank != base_acc.rank:
                details["error"] = "rank depended on insertion order"
                return "fail", details, []
        stable += 1
    details["shuffle_stable_sets"] = stable
    details["seed"] = config.random_seed
    return "pass", details, []


# lowest holds the least value of each parameter.
CheckDef = namedtuple("CheckDef", "runner defaults lowest")


CHECKS = {
    "lemma1": CheckDef(check_lemma1, {"m": 5}, {"m": 1}),
    "eq1": CheckDef(check_eq1, {}, {}),
    "lemma2": CheckDef(check_lemma2, {"m": 4}, {"m": 2}),
    "eq4": CheckDef(check_eq4, {"k": 2}, {"k": 1}),
    "fm_nonzero": CheckDef(check_fm_nonzero, {"m": 3}, {"m": 1}),
    "skew_dim": CheckDef(check_skew_dim, {"d": 4}, {"d": 1}),
    # below degree 2 the 2 one-letter words cannot fill an m-subset
    "cor2_assoc": CheckDef(check_cor2_assoc, {"degree_bound": 3}, {"degree_bound": 2}),
    "cor2_assoc_probe": CheckDef(check_cor2_assoc_probe, {"degree_bound": 3},
                                 {"degree_bound": 2}),
    "assoc_projection": CheckDef(check_assoc_projection, {"d": 9}, {"d": 1}),
    "lemma3": CheckDef(check_lemma3, {"m": 4}, {"m": 1}),
    "eq6": CheckDef(check_eq6, {"m": 4}, {"m": 3}),
    "cor4_tiny": CheckDef(check_cor4_tiny, {}, {}),
    "engine_soundness": CheckDef(check_engine_soundness,
                                 {"n_certificates": 200, "n_shuffles": 20, "n_sets": 10},
                                 {"n_certificates": 0, "n_shuffles": 0, "n_sets": 0}),
}


DESK_SUITE = (
    [("lemma1", {"m": m}) for m in range(3, 8)]
    + [("eq1", {})]
    + [("lemma2", {"m": m}) for m in (3, 4, 5)]
    + [("fm_nonzero", {"m": m}) for m in (3, 4, 5)]
    + [("skew_dim", {"d": d}) for d in range(1, 6)]
    + [("cor2_assoc", {"degree_bound": 3})]
    + [("assoc_projection", {"d": 9})]
    + [("lemma3", {"m": 4}), ("lemma3", {"m": 5})]
    + [("engine_soundness", {})]
)


def _write_certificates(check, params, cert_pairs, config):
    if not cert_pairs or config.certificate_directory is None:
        return []
    os.makedirs(config.certificate_directory, exist_ok=True)
    tag = "_".join(f"{k}{v}" for k, v in sorted(params.items())) or "run"
    paths = []
    for i, (cert, variety) in enumerate(cert_pairs):
        path = os.path.join(config.certificate_directory,
                            f"{check}_{tag}_{i}.json")
        cert.write(path, variety)
        paths.append(path)
    return paths


def verify(check: str, params=None, config=DEFAULT_CONFIG) -> Report:
    """Run one named check; resource limits surface as their own verdict.

    An unknown check name, a parameter the check does not take, one that
    is not an int (a bool is not) or one below its least value in the
    check's CheckDef raises ValueError before anything runs.
    """
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; known: {', '.join(sorted(CHECKS))}")
    cdef = CHECKS[check]
    params = params or {}
    unknown = set(params) - set(cdef.defaults)
    if unknown:
        raise ValueError(f"check {check!r} does not take {', '.join(sorted(unknown))}")
    for name, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{check} needs an integer {name}")
    merged = {**cdef.defaults, **params}
    for name, low in cdef.lowest.items():
        if merged[name] < low:
            raise ValueError(f"{check} needs {name} >= {low}")
    t0 = time.perf_counter()
    try:
        verdict, details, cert_pairs = cdef.runner(merged, config)
        paths = _write_certificates(check, merged, cert_pairs, config)
    except ResourceLimitError as e:
        verdict = "resource_limit"
        details = {"limit": e.limit_name, "needed": e.needed, "bound": e.limit}
        paths = []
    elapsed = int((time.perf_counter() - t0) * 1000)
    return Report(check, merged, verdict, details, paths, elapsed)
