import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (EagerProvenanceEchelon, UnprunedSaturation, WordPathSaturation,
                     dense_express, dense_rank, splits_by_filter)
from skewalg.config import Config, ResourceLimitError
from skewalg.family import fm
from skewalg.poly import (MultiPoly, commutator, jordan, multiply, parse_poly,
                          substitute)
from skewalg.symmetrize import linearize
from skewalg import variety
from skewalg.variety import (ComponentSpace, GenDescriptor, MembershipCertificate,
                             Variety, builtin_variety, component_dimension,
                             component_space, consequence_generators,
                             expand_descriptor, is_member)
from skewalg.words import HOLE, _words_for, enumerate_words, leaves, md_key, word_count

ALT = builtin_variety("alt")
FLEX = builtin_variety("flex")
ASSOC = builtin_variety("assoc")


def md(*exps):
    return {i + 1: e for i, e in enumerate(exps)}


def _generators(variety, degree):
    """The streamed generators' polynomials, in stream order."""
    return [expand_descriptor(variety, d) for d in consequence_generators(variety, degree)]


def test_builtin_varieties():
    assert len(ALT.identities) == 2
    assert len(FLEX.identities) == 1
    assert len(ASSOC.identities) == 1
    for v in (ALT, FLEX, ASSOC):
        for f in v.identities:
            assert f.multidegree() == {1: 1, 2: 1, 3: 1}
    ncj = builtin_variety("ncj_cor1")
    assert len(ncj.identities) == 3
    degs = sorted(len(f.multidegree()) for f in ncj.identities)
    assert degs == [3, 4, 4]
    assert builtin_variety("free").identities == ()
    with pytest.raises(ValueError, match="unknown variety 'octonion'; known: assoc, alt, "
                                         "flex, ncj_cor1, free, custom"):
        builtin_variety("octonion")


def test_custom_variety():
    v = builtin_variety("custom", [parse_poly("((x1*x1)*x2) - (x1*(x1*x2))")])
    assert len(v.identities) == 1
    assert v.identities[0].multidegree() == {1: 1, 2: 1, 3: 1}
    with pytest.raises(ValueError, match=r"^custom identity is not multihomogeneous: "
                                         r"x1 \+ \(x1\*x1\)$"):
        builtin_variety("custom", [parse_poly("x1 + (x1*x1)")])
    with pytest.raises(ValueError):
        builtin_variety("custom")
    with pytest.raises(ValueError, match="only the custom variety"):
        builtin_variety("alt", [parse_poly("((x1*x1)*x2) - (x1*(x1*x2))")])


@pytest.mark.parametrize("text, message", [
    ("(x1*x1)", "variety identities must be multilinear"),
    ("x1 + (x1*x2)", "polynomial is not multihomogeneous"),
    ("0", "variety identities must be multilinear"),
], ids=["square", "two-degrees", "zero"])
def test_variety_rejects_nonmultilinear_identity(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Variety("bad", (parse_poly(text),))


@pytest.mark.parametrize("text", ["(x2*x3) - (x3*x2)", "(x1*x3) - (x3*x1)", "x2"])
def test_variety_rejects_identity_not_in_x1_to_xk(text):
    with pytest.raises(ValueError):
        Variety("bad", (parse_poly(text),))


def test_generator_counts():
    assert sum(1 for _ in consequence_generators(ALT, md(1, 1, 1))) == 12
    assert sum(1 for _ in consequence_generators(ASSOC, md(1, 1, 1))) == 6
    assert sum(1 for _ in consequence_generators(FLEX, md(2, 1))) == 3
    # descriptors are pairwise distinct
    descs = list(consequence_generators(ALT, md(1, 1, 1)))
    assert len(set(descs)) == 12


def test_generator_stream_deterministic():
    a = [(format_gen(d), str(expand_descriptor(FLEX, d)))
         for d in consequence_generators(FLEX, md(2, 1))]
    b = [(format_gen(d), str(expand_descriptor(FLEX, d)))
         for d in consequence_generators(FLEX, md(2, 1))]
    assert a == b


def format_gen(desc):
    return (desc.identity_index, desc.substitution, desc.context)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("parts", range(1, 6))
def test_compositions_come_in_lexicographic_order(n, parts):
    # the splits, and so the generator stream, rows and certificates,
    # follow this order
    assert list(variety._compositions(n, parts)) == sorted(
        t for t in product(range(n + 1), repeat=parts) if sum(t) == n)


def _multidegrees(total):
    """Every multidegree over x1..xn with positive exponents summing to total."""
    if total == 0:
        yield {}
    for first in range(1, total + 1):
        for rest in _multidegrees(total - first):
            yield {1: first, **{v + 1: e for v, e in rest.items()}}


@pytest.mark.parametrize("k", [1, 2, 3])  # an identity has at least one variable
def test_splits_match_product_and_filter_oracle(k):
    # the splits, and so the generator stream, follow the product order
    seen = 0
    for total in range(7):
        for d in _multidegrees(total):
            assert list(variety._splits(d, k)) == list(splits_by_filter(d, k)), d
            seen += 1
    assert seen == 64


def test_generators_have_the_right_multidegree():
    target = md(2, 1, 1)
    for poly in _generators(ALT, target):
        if poly.is_zero():
            continue
        for w in poly.terms:
            assert Counter(leaves(w)) == target


def test_expansion_matches_descriptor():
    # the same generator by polynomial substitution: slot words into the
    # identity, then the result into the context's hole
    f = FLEX.identities[0]
    for desc in consequence_generators(FLEX, md(2, 1)):
        slots = {i + 1: MultiPoly.monomial(w) for i, w in enumerate(desc.substitution)}
        expected = substitute(MultiPoly.monomial(desc.context), {HOLE: substitute(f, slots)})
        assert expand_descriptor(FLEX, desc) == expected


def test_dimensions():
    assert component_dimension(ASSOC, md(1, 1, 1)) == 6
    assert component_dimension(ALT, md(1, 1, 1)) == 7
    assert component_dimension(builtin_variety("free"), md(1, 1, 1)) == 12


def test_alt_dimension_against_dense_oracle():
    space = ComponentSpace(ALT, md(1, 1, 1))
    vecs = [space.vec(p) for p in _generators(ALT, md(1, 1, 1))]
    assert dense_rank(vecs, len(space.ambient)) == 12 - 7
    space.saturate()
    assert space.acc.rank == 5


def test_monotonicity_more_identities_never_raise_dimension():
    flex_and_assoc = Variety("flex+assoc", FLEX.identities + ASSOC.identities)
    for degree in (md(1, 1, 1), md(2, 1), md(2, 2)):
        d_free = component_dimension(builtin_variety("free"), degree)
        d_flex = component_dimension(FLEX, degree)
        d_both = component_dimension(flex_and_assoc, degree)
        assert d_free >= d_flex >= d_both >= 0


def test_self_membership_of_generators():
    for variety, degree in [(ALT, md(1, 1, 1)), (FLEX, md(2, 1)), (ASSOC, md(1, 1, 1))]:
        for poly in _generators(variety, degree):
            result = is_member(poly, variety)
            assert result.member
            for cert in result.certificates:
                assert cert.recheck(variety)


def test_eq1_membership_with_certificate():
    x, y = MultiPoly.variable(1), MultiPoly.variable(2)
    p = commutator(multiply(x, x), y) - jordan(x, commutator(x, y))
    result = is_member(p, FLEX)
    assert result.member
    (cert,) = result.certificates
    assert cert.recheck(FLEX)
    # tampering must break the re-check
    bad = MembershipCertificate(cert.target + x.scale(0) + MultiPoly.variable(9),
                                cert.variety_name, cert.multidegree, cert.entries)
    assert not bad.recheck(FLEX)


def test_certificate_json_roundtrip(tmp_path):
    from skewalg.family import solve_skew_decomposition
    x1, x2, x3, x4 = map(MultiPoly.variable, (1, 2, 3, 4))
    f = FLEX.identities[0]
    eq1 = commutator(multiply(x1, x1), x2) - jordan(x1, commutator(x1, x2))
    flex_2111 = (multiply(substitute(f, {1: multiply(x1, x1), 2: x2, 3: x3}), x4)
                 + substitute(f, {1: x1, 2: multiply(x1, x4), 3: multiply(x2, x3)})
                 .scale(Fraction(-3, 2)))
    certs = [(is_member(eq1, FLEX).certificates[0], FLEX),
             (is_member(flex_2111, FLEX).certificates[0], FLEX)]
    for m in (4, 5):  # no generator at m=4; both alt identities at m=5
        certs.append((solve_skew_decomposition(m).certificate, ALT))
    assert {desc.identity_index for desc, _ in certs[-1][0].entries} == {0, 1}
    for i, (cert, variety_) in enumerate(certs):
        path = tmp_path / f"cert{i}.json"
        cert.write(str(path), variety_)
        loaded = MembershipCertificate.from_json(json.loads(path.read_text()))
        assert loaded.target == cert.target
        assert loaded.multidegree == cert.multidegree
        assert loaded.entries == cert.entries
        assert loaded.recheck(variety_)


@pytest.mark.parametrize("desc", [
    GenDescriptor(0, (1, 2), HOLE),              # x3 left without a word
    GenDescriptor(0, (1, 2, 3, 4), HOLE),        # a word for no variable
    GenDescriptor(0, (1, 2, 3), (HOLE, HOLE)),   # two holes
    GenDescriptor(0, (1, 2, 3), (1, 2)),         # no hole
    GenDescriptor(1, (1, 2, 3), HOLE),           # no such identity
])
def test_recheck_rejects_malformed_descriptor(desc):
    good = GenDescriptor(0, (1, 2, 3), HOLE)
    f = FLEX.identities[0]
    assert MembershipCertificate(f, "flex", md(1, 1, 1), [(good, 1)]).recheck(FLEX)
    # each malformed expansion (where one exists) equals its target, so only
    # the descriptor check can reject it
    target = expand_descriptor(FLEX, desc) if desc.identity_index == 0 else f
    cert = MembershipCertificate(target, "flex", md(1, 1, 1), [(desc, 1)])
    assert not cert.recheck(FLEX)


def test_recheck_sums_rational_coefficients():
    descs = list(consequence_generators(ALT, md(1, 1, 1)))[:3]
    coeffs = [Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)]
    target = MultiPoly.zero()
    for desc, c in zip(descs, coeffs):
        target = target + expand_descriptor(ALT, desc).scale(c)
    assert any(Fraction(c).denominator > 1 for c in target.terms.values())
    cert = MembershipCertificate(target, "alt", md(1, 1, 1), list(zip(descs, coeffs)))
    assert cert.recheck(ALT)
    for i in range(3):
        off = [c + Fraction(1, 6) if j == i else c for j, c in enumerate(coeffs)]
        assert not MembershipCertificate(target, "alt", md(1, 1, 1),
                                         list(zip(descs, off))).recheck(ALT)


def test_recheck_integer_coefficients_rational_target():
    desc = next(consequence_generators(ALT, md(1, 1, 1)))
    g = expand_descriptor(ALT, desc)
    half = MembershipCertificate(g.scale(Fraction(1, 2)), "alt", md(1, 1, 1),
                                 [(desc, Fraction(1, 2))])
    assert half.recheck(ALT)
    assert not MembershipCertificate(g.scale(Fraction(1, 2)), "alt", md(1, 1, 1),
                                     [(desc, 1)]).recheck(ALT)


def test_recheck_empty_certificate():
    zero = MembershipCertificate(MultiPoly.zero(), "alt", md(1, 1, 1), [])
    assert zero.recheck(ALT)
    nonzero = MembershipCertificate(ALT.identities[0], "alt", md(1, 1, 1), [])
    assert not nonzero.recheck(ALT)


def test_recheck_rejects_short_substitution_from_json():
    f = FLEX.identities[0]
    cert = MembershipCertificate(f, "flex", md(1, 1, 1),
                                 [(GenDescriptor(0, (1, 2, 3), HOLE), 1)])
    doc = cert.to_json(FLEX)
    assert MembershipCertificate.from_json(doc).recheck(FLEX)
    del doc["generators"][0]["substitution"]["x3"]  # x3 would stay x3
    assert not MembershipCertificate.from_json(doc).recheck(FLEX)


def test_membership_failure_has_witness():
    from skewalg.family import fm
    result = is_member(fm(3), ALT)
    assert not result.member
    assert result.witness is not None
    assert Counter(leaves(result.witness)) == md(1, 1, 1)


def test_zero_membership():
    result = is_member(MultiPoly.zero(), ALT)
    assert result.member and result.certificates == []


def test_membership_splits_components():
    x, y = MultiPoly.variable(1), MultiPoly.variable(2)
    eq1 = commutator(multiply(x, x), y) - jordan(x, commutator(x, y))
    gen3 = expand_descriptor(FLEX, next(consequence_generators(FLEX, md(1, 1, 1))))
    combined = eq1 + gen3
    result = is_member(combined, FLEX)
    assert result.member
    assert len(result.certificates) == 2
    total = MultiPoly.zero()
    for cert in result.certificates:
        assert cert.recheck(FLEX)
        total = total + cert.target
    assert total == combined


def test_renaming_stability():
    x, y = MultiPoly.variable(1), MultiPoly.variable(2)
    p = commutator(multiply(x, x), y) - jordan(x, commutator(x, y))
    # swap the roles of the variables: x5 squared, x2 linear
    sigma = substitute(p, {1: MultiPoly.variable(5), 2: MultiPoly.variable(2)})
    assert is_member(sigma, FLEX).member


def test_resource_limits():
    tiny = Config(max_ambient_dimension=10)
    with pytest.raises(ResourceLimitError) as e:
        ComponentSpace(ALT, md(1, 1, 1), tiny)
    assert e.value.limit_name == "max_ambient_dimension"

    few = Config(max_generators=3)
    space = ComponentSpace(ALT, md(1, 1, 1), few)
    with pytest.raises(ResourceLimitError) as e:
        space.dimension()
    assert e.value.limit_name == "max_generators"


def test_max_generators_counts_skipped_generators():
    # a generator skipped by slot orbit is still streamed, so the limit trips
    # at the same count as over the unpruned stream
    total = len(list(consequence_generators(ALT, md(1, 1, 1))))
    for n in range(1, total + 1):
        space = ComponentSpace(ALT, md(1, 1, 1), Config(max_generators=n))
        if n == total:
            assert space.dimension() == 7
            continue
        with pytest.raises(ResourceLimitError) as e:
            space.dimension()
        assert (e.value.needed, e.value.limit) == (n + 1, n)


def test_membership_reads_the_whole_stream_before_inserting():
    # the first streamed generator alone spans the target, but the space
    # reads, and counts, the whole stream before its first insertion
    descs = list(consequence_generators(ALT, md(1, 1, 1)))
    limit = len(descs) - 1
    space = ComponentSpace(ALT, md(1, 1, 1), Config(max_generators=limit))
    with pytest.raises(ResourceLimitError) as e:
        space.membership(expand_descriptor(ALT, descs[0]))
    assert (e.value.limit_name, e.value.needed, e.value.limit) == (
        "max_generators", limit + 1, limit)
    assert space.acc.n_inserted == 0


@pytest.mark.parametrize("variety_, degree", [
    (ALT, md(1, 1, 1, 1)), (FLEX, md(2, 1, 1)), (builtin_variety("ncj_cor1"), md(2, 1, 1))],
    ids=["alt-1111", "flex-211", "ncj_cor1-211"])
def test_insertion_goes_by_descending_group_key(monkeypatch, variety_, degree):
    # each vector the space makes is traced to the descriptor streamed just
    # before it, and each inserted vector to its descriptor
    streamed, made, inserted = [], {}, []
    stream = variety.consequence_generators

    def recording_stream(*args):
        for desc in stream(*args):
            streamed.append(desc)
            yield desc

    monkeypatch.setattr(variety, "consequence_generators", recording_stream)
    space = ComponentSpace(variety_, degree)
    vector, insert = space._table.vector, space.acc.insert_reduce

    def record_vector(*args):
        vec = vector(*args)
        made[id(vec)] = len(streamed) - 1, vec  # kept alive, so the id stays its own
        return vec

    def record_insert(vec):
        inserted.append(made[id(vec)])
        return insert(vec)

    monkeypatch.setattr(space._table, "vector", record_vector)
    monkeypatch.setattr(space.acc, "insert_reduce", record_insert)
    space.saturate()
    group = [(d.context, frozenset(d.substitution)) for d in streamed]
    first_seen, keys = {}, {}
    for pos, g in enumerate(group):
        first_seen.setdefault(g, pos)
    for pos, vec in inserted:
        assert vec
        keys[group[pos]] = max(keys.get(group[pos], -1), min(vec))
    # descending key, then the group the stream reaches first, then stream order
    order = [(-keys[group[pos]], first_seen[group[pos]], pos) for pos, _ in inserted]
    assert order == sorted(order)
    assert len(set(keys.values())) > 1
    assert [pos for pos, _ in inserted] != sorted(pos for pos, _ in inserted)


def test_vec_rejects_foreign_words():
    space = ComponentSpace(ALT, md(1, 1, 1))
    with pytest.raises(ValueError):
        space.vec(parse_poly("(x1*x1)"))


def test_flexible_law_self_test():
    # the linearized flexible identity collapses back to 2 (x,y,x)
    from skewalg.poly import associator
    x1, x2 = MultiPoly.variable(1), MultiPoly.variable(2)
    f = FLEX.identities[0]
    collapsed = substitute(f, {1: x1, 2: x2, 3: x1})
    assert collapsed == associator(x1, x2, x1).scale(2)


def test_linearize_matches_builtin_alt():
    # the stored alt identities are exactly the linearizations of the
    # right- and left-alternative laws (x,y,y) and (x,x,y)
    from skewalg.poly import associator
    x1, x2 = MultiPoly.variable(1), MultiPoly.variable(2)
    assert linearize(associator(x1, x2, x2)) == ALT.identities[0]
    assert linearize(associator(x1, x1, x2)) == ALT.identities[1]


def test_component_space_cache_and_membership_reuse(config):
    s1 = component_space(FLEX, md(2, 1), config)
    s2 = component_space(FLEX, md(2, 1), config)
    assert s1 is s2


def test_component_space_cache_evicts_least_recently_used(config):
    variety.clear_space_cache()
    cap = variety._cached_space.cache_info().maxsize
    # max_generators is part of the key, so each value is its own entry
    configs = [Config(**{**config._asdict(), "max_generators": 1000 + i})
               for i in range(cap + 1)]
    spaces = [component_space(FLEX, md(1, 1), c) for c in configs[:cap]]
    assert component_space(FLEX, md(1, 1), configs[0]) is spaces[0]  # a hit refreshes
    component_space(FLEX, md(1, 1), configs[cap])
    assert variety._cached_space.cache_info().currsize == cap
    assert component_space(FLEX, md(1, 1), configs[0]) is spaces[0]
    assert component_space(FLEX, md(1, 1), configs[1]) is not spaces[1]  # was evicted
    variety.clear_space_cache()
    assert variety._cached_space.cache_info().currsize == 0


def _streamed(degree):
    """alt's consequence_generators at degree, kept as they arrive, so that
    a stream failing partway still shows what it yielded."""
    out = []
    try:
        out.extend(consequence_generators(ALT, degree))
    finally:
        assert out == []


@pytest.mark.parametrize("entry", [
    md_key, word_count, enumerate_words, _streamed,
    lambda degree: ComponentSpace(ALT, degree),
    lambda degree: component_dimension(ALT, degree),
], ids=["md_key", "word_count", "enumerate_words", "consequence_generators",
        "ComponentSpace", "component_dimension"])
@pytest.mark.parametrize("degree, message", [
    ({0: 1, 1: 2}, "variable indices start at 1"),  # 0 is the hole marker
    ({1: -1, 2: 2}, "multidegree exponents must be positive"),
], ids=["hole", "negative"])
def test_multidegree_gate_builds_nothing(entry, degree, message):
    # alt's {0: 1, 1: 2} once had dimension 3, its words printing as _
    spaces, words = variety._cached_space.cache_info().currsize, _words_for.cache_info().currsize
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(degree)
    assert variety._cached_space.cache_info().currsize == spaces
    assert _words_for.cache_info().currsize == words


def test_certificates_are_canonical_under_extra_rows():
    # expressing a member over a longer echelon prefix must not change the
    # certificate: ascending-column sweeps only ever touch pivots that the
    # minimal sufficient prefix already had
    import json
    x, y = MultiPoly.variable(1), MultiPoly.variable(2)
    p = commutator(multiply(x, x), y) - jordan(x, commutator(x, y))
    early = ComponentSpace(FLEX, md(2, 1))
    cert_early, _ = early.membership(p)
    assert cert_early is not None
    full = ComponentSpace(FLEX, md(2, 1))
    full.saturate()
    cert_full, _ = full.express(p)
    assert full.acc.rank >= early.acc.rank
    assert (json.dumps(cert_early.to_json(FLEX), sort_keys=True)
            == json.dumps(cert_full.to_json(FLEX), sort_keys=True))


def test_membership_stops_early_and_its_certificate_survives_saturation():
    # lemma2 m=4: the target falls into the span at rank 201 of 205, and the
    # rows inserted after that do not change its certificate
    x, y, z = map(MultiPoly.variable, (1, 2, 3))
    p = substitute(fm(4), {1: multiply(x, x), 2: x, 3: y, 4: z})
    space = ComponentSpace(FLEX, md(3, 1, 1))
    cert, witness = space.membership(p)
    assert witness is None
    assert (space.acc.n_inserted, space.acc.rank) == (217, 201)
    early = json.dumps(cert.to_json(FLEX))
    space.saturate()
    assert space.acc.rank == 205
    again, _ = space.membership(p)
    assert json.dumps(again.to_json(FLEX)) == early


def test_residual_of_reduces_modulo_the_saturated_component():
    # even on a space nothing has read yet
    *_, desc = consequence_generators(ALT, md(1, 1, 1))
    p = expand_descriptor(ALT, desc)
    space = ComponentSpace(ALT, md(1, 1, 1))
    assert p and space.residual_of(p) == {}
    assert len(space.ambient) - space.acc.rank == 7


@pytest.mark.parametrize("seed", range(4))
def test_solve_matches_dense_oracle(seed):
    rng = random.Random(seed)
    space = ComponentSpace(ALT, md(1, 1, 1, 1))
    dim = len(space.ambient)

    def random_poly():
        return MultiPoly.from_pairs((rng.choice(space.ambient), rng.randint(1, 5))
                                    for _ in range(rng.randint(1, 6)))

    basis = [random_poly() for _ in range(4)]
    basis.insert(rng.randrange(5), rng.choice(basis))  # one element twice
    residuals = [space.residual_of(b) for b in basis]
    ranks = [dense_rank(residuals[:i], dim) for i in range(len(basis) + 1)]
    independent, coeffs = space.solve(basis)
    assert independent == [b > a for a, b in zip(ranks, ranks[1:])]
    assert coeffs is None

    def combination(ks):
        return MultiPoly.from_pairs((w, k * c) for k, b in zip(ks, basis)
                                    for w, c in b.terms.items())

    inside = combination([rng.randint(-3, 3) for _ in basis])
    member = expand_descriptor(ALT, next(consequence_generators(ALT, md(1, 1, 1, 1))))
    for target in (inside, inside + member):
        again, coeffs = space.solve(basis, target)
        assert again == independent and len(coeffs) == len(basis)
        assert space.residual_of(target - combination(coeffs)) == {}
    assert space.solve(basis, MultiPoly.zero())[1] == [0] * len(basis)

    outside = random_poly()
    assert dense_express(residuals, space.residual_of(outside), dim) is None
    assert space.solve(basis, outside) == (independent, None)


def test_dimensions_against_dense_oracle_random_components():
    import random
    rng = random.Random(97)
    layouts = [md(1, 1, 1), md(2, 1), md(3, 1), md(2, 2), md(2, 1, 1), md(4)]
    for variety in (ALT, FLEX, ASSOC):
        for degree in rng.sample(layouts, 4):
            space = ComponentSpace(variety, degree)
            vecs = [space.vec(p) for p in _generators(variety, degree)]
            expected = len(space.ambient) - dense_rank(vecs, len(space.ambient))
            assert component_dimension(variety, degree) == expected


@pytest.mark.parametrize("variety, degree", [(ALT, md(1, 1, 1, 1)), (FLEX, md(2, 1, 1))])
def test_membership_certificates_match_eager_oracle(variety, degree):
    space = ComponentSpace(variety, degree)
    inserted = []
    insert = space.acc.insert_reduce

    def record(vec):
        inserted.append(dict(vec))
        return insert(vec)

    space.acc.insert_reduce = record
    gens = _generators(variety, degree)
    rng = random.Random(61)
    for _ in range(8):
        target = MultiPoly.zero()
        for p in rng.sample(gens, rng.randint(2, 4)):
            target = target + p.scale(rng.randint(-3, 3) or 1)
        if target.is_zero():
            continue
        cert, _ = space.membership(target)
        assert cert is not None
        oracle = EagerProvenanceEchelon()
        for v in inserted:
            oracle.insert(v)
        expected = sorted(oracle.express(space.vec(target)).items())
        assert [c for _, c in cert.entries] == [c for _, c in expected]
        for (desc, _), (ins_id, _) in zip(cert.entries, expected):
            assert space.vec(expand_descriptor(variety, desc)) == inserted[ins_id]


def _pivots_in_order(acc, descriptors):
    """(pivot column, descriptor) per rank-raising insertion, oldest first."""
    by_id = sorted((source[0], p) for p, source in acc.pivot_source.items())
    return [(p, descriptors[ins_id]) for ins_id, p in by_id]


_LAYOUTS = [md(1, 1, 1), md(2, 1), md(3, 1), md(2, 2), md(1, 1, 1, 1),
            md(2, 1, 1), md(4), md(3, 1, 1), md(2, 2, 1)]


@pytest.mark.parametrize("name", ["alt", "flex", "assoc", "ncj_cor1"])
def test_slot_orbit_pruning_matches_unpruned_saturation(name):
    variety_ = builtin_variety(name)
    rng = random.Random(f"orbits-{name}")
    for degree in rng.sample(_LAYOUTS, 3) + [md(2, 1, 1)]:
        oracle = UnprunedSaturation(variety_, degree)
        space = ComponentSpace(variety_, degree).saturate()
        acc = space.acc
        assert acc.rows == oracle.acc.rows
        assert acc.provenance == oracle.acc.provenance
        assert ({p: (d, lead) for p, (_, d, lead) in acc.pivot_source.items()}
                == {p: (d, lead) for p, (_, d, lead) in oracle.acc.pivot_source.items()})
        assert (_pivots_in_order(acc, space._descriptors)
                == _pivots_in_order(oracle.acc, oracle.descriptors))
        assert acc.n_inserted <= oracle.acc.n_inserted
        gens = _generators(variety_, degree)
        for _ in range(4):
            target = MultiPoly.zero()
            for p in rng.sample(gens, min(len(gens), rng.randint(1, 4))):
                target = target + p.scale(rng.randint(-3, 3) or 1)
            if target.is_zero():
                continue
            expected = oracle.express(space.vec(target))
            cert, _ = space.express(target)
            assert cert.entries == expected
            lazy, _ = ComponentSpace(variety_, degree).membership(target)
            assert lazy is not None and lazy.entries == expected


def test_slot_orbits_skip_dependent_generators():
    # at alt (2,1,1) the repeated variable makes slot words coincide, and
    # slot orbits drop more than exact duplicates do
    space = ComponentSpace(ALT, md(2, 1, 1)).saturate()
    oracle = UnprunedSaturation(ALT, md(2, 1, 1))
    assert space.acc.rank == oracle.acc.rank
    assert space.acc.n_inserted < oracle.acc.n_inserted


_TABLE_CASES = [
    (ALT, md(1, 1, 1, 1)),
    (FLEX, md(2, 1, 1)),
    (FLEX, md(2, 1, 1, 1)),
    (builtin_variety("ncj_cor1"), md(2, 1, 1)),
    (builtin_variety("custom", [parse_poly("((x1*x1)*x2) - (x1*(x1*x2))"),
                                parse_poly("((x1*x2)*(x3*x4)) - (x1*(x2*(x3*x4)))")]),
     md(2, 1, 1)),
    (ALT, md(5)),
    # an identity that is its variable: its root is a slot position
    (builtin_variety("custom", [parse_poly("x1")]), md(2, 1)),
]
_TABLE_IDS = ["alt-1111", "flex-211", "flex-2111", "ncj_cor1-211", "custom-211", "alt-5",
              "custom-x1-21"]


@pytest.mark.parametrize("variety_, degree", _TABLE_CASES, ids=_TABLE_IDS)
def test_word_table_vectors_match_word_expansion(variety_, degree):
    space = ComponentSpace(variety_, degree)
    table = space._table
    n = 0
    for desc in consequence_generators(variety_, degree):
        _, path = table.context(desc.context)
        vec = table.vector(desc.identity_index, table.slot_ids(desc.substitution), path)
        # equal, and built in the same order
        assert list(vec.items()) == list(space.vec(expand_descriptor(variety_, desc)).items())
        n += 1
    assert n > 0


@pytest.mark.parametrize("variety_, degree", _TABLE_CASES, ids=_TABLE_IDS)
def test_word_table_saturation_matches_word_path(variety_, degree):
    oracle = WordPathSaturation(variety_, degree)
    acc = ComponentSpace(variety_, degree).saturate().acc
    assert acc.n_inserted == oracle.acc.n_inserted
    assert list(acc.rows) == list(oracle.acc.rows)  # pivots in installation order
    assert acc.rows == oracle.acc.rows
    assert acc.provenance == oracle.acc.provenance
    assert acc.pivot_source == oracle.acc.pivot_source


def test_word_table_ids_and_pairs():
    space = ComponentSpace(FLEX, md(2, 1))
    table = space._table
    words = sorted(table.ids, key=table.ids.get)
    assert words[:len(space.ambient)] == space.ambient  # an ambient id is its column
    assert len(words) == table.size == len(set(words))
    for w, i in table.ids.items():
        if not isinstance(w, int):
            assert table.pair[table.ids[w[0]] * table.size + table.ids[w[1]]] == i
    assert len(table.pair) == table.size - 2  # every word but the leaves x1, x2
    assert table.context(HOLE) == (0, ())
    number, path = table.context(((1, HOLE), 2))
    assert number == 1 and len(path) == 2


def test_saturated_space_reduces_each_polynomial_once(monkeypatch):
    space = ComponentSpace(ALT, md(1, 1, 1)).saturate()
    p = parse_poly("((x1*x2)*x3) - (x2*(x1*x3))")
    calls = []
    original = space.acc.residual
    monkeypatch.setattr(space.acc, "residual", lambda v: calls.append(v) or original(v))
    first = space.residual_of(p)
    first[0] = 99  # callers get a fresh dict each time
    second = space.residual_of(parse_poly("((x1*x2)*x3) - (x2*(x1*x3))"))
    assert second == original(space.vec(p)) and len(calls) == 1


_CERT_VARIETIES = {"alt": (ALT, md(1, 1, 1)), "ncj_cor1": (builtin_variety("ncj_cor1"), md(2, 1))}
_COEFFICIENTS = st.one_of(
    st.integers(-10**30, 10**30).filter(bool),
    st.fractions(max_denominator=10**12).filter(bool).map(Fraction),
)


@st.composite
def _certificates(draw):
    name = draw(st.sampled_from(sorted(_CERT_VARIETIES)))
    variety_, degree = _CERT_VARIETIES[name]
    descs = list(consequence_generators(variety_, degree))
    entries = draw(st.lists(st.tuples(st.sampled_from(descs), _COEFFICIENTS), max_size=6))
    target = MultiPoly.zero()
    for desc, c in entries:
        target = target + expand_descriptor(variety_, desc).scale(c)
    return variety_, MembershipCertificate(target, name, degree, entries)


def _one_generator_per_line(doc):
    """The text of a certificate file: the document's head, ending in
    "generators": [, then one line per generator, then "]}"."""
    head = json.dumps({**doc, "generators": []}).removesuffix("]}")
    lines = ",\n".join(json.dumps(entry) for entry in doc["generators"])
    return head + ("\n" + lines if lines else "") + "\n]}\n"


@settings(max_examples=150, deadline=None)
@given(_certificates())
def test_certificate_write_matches_json_dump(tmp_path_factory, case):
    variety_, cert = case
    path = tmp_path_factory.mktemp("cert") / "c.json"
    cert.write(str(path), variety_)
    doc = cert.to_json(variety_)
    assert json.loads(path.read_bytes()) == doc
    assert path.read_bytes() == _one_generator_per_line(doc).encode()


def test_certificate_write_covers_the_named_cases(tmp_path):
    ncj = builtin_variety("ncj_cor1")
    descs = [d for d in consequence_generators(ncj, md(2, 1, 1))]
    by_identity = {d.identity_index: d for d in descs}
    assert sorted(by_identity) == [0, 1, 2]
    entries = [(by_identity[0], 3), (by_identity[1], Fraction(-5, 7)), (by_identity[2], -2)]
    cases = [MembershipCertificate(MultiPoly.zero(), "ncj_cor1", md(2, 1, 1), []),
             MembershipCertificate(parse_poly("-1/2*((x1*x2)*x1)"), "ncj_cor1",
                                   md(2, 1, 1), entries)]
    for cert in cases:
        path = tmp_path / "c.json"
        cert.write(str(path), ncj)
        doc = cert.to_json(ncj)
        assert json.loads(path.read_bytes()) == doc
        assert path.read_bytes() == _one_generator_per_line(doc).encode()
        assert len(path.read_text().splitlines()) == len(cert.entries) + 2
