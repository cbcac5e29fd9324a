import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import DictSweepEchelon, EagerProvenanceEchelon, dense_express, dense_rank
from skewalg.linalg import EchelonAccumulator, _ratio
from skewalg.variety import ComponentSpace, builtin_variety


def test_insert_rank_examples():
    acc = EchelonAccumulator(2)
    assert acc.insert_reduce({0: Fraction(1)}) is True
    assert acc.insert_reduce({1: Fraction(1)}) is True
    assert acc.rank == 2

    acc = EchelonAccumulator(2)
    assert acc.insert_reduce({0: Fraction(1), 1: Fraction(1)}) is True
    assert acc.insert_reduce({0: Fraction(2), 1: Fraction(2)}) is False
    assert acc.rank == 1

    before = acc.rank
    assert acc.insert_reduce({}) is False
    assert acc.rank == before


def test_express_examples():
    acc = EchelonAccumulator(2)
    acc.insert_reduce({0: Fraction(1), 1: Fraction(1)})
    coeffs, witness = acc.express_in_span({0: Fraction(3), 1: Fraction(3)})
    assert witness is None
    assert coeffs == {0: Fraction(3)}

    coeffs, witness = acc.express_in_span({0: Fraction(1)})
    assert coeffs is None
    assert witness == 1  # remainder leads at column 1 after eliminating col 0

    coeffs, witness = acc.express_in_span({})
    assert coeffs == {} and witness is None


def test_dimension_checks():
    acc = EchelonAccumulator(3)
    with pytest.raises(ValueError):
        acc.insert_reduce({5: Fraction(1)})
    with pytest.raises(ValueError):
        EchelonAccumulator(-1)


_SEED_VECS = [{0: 1, 1: 1, 2: 1}, {1: 1, 3: 2}, {4: Fraction(1, 2), 5: 1}]


def _fill(acc):
    for v in _SEED_VECS:
        acc.insert_reduce(v)
    return acc


_LATER = [{0: 2, 3: 1, 5: -1}, {2: Fraction(1, 3), 4: 1}, {1: 1, 2: -1, 5: 3}]


def _later_results_match(acc, oracle):
    """Residuals and insertions after a failed call equal the oracle's,
    through the columns the failed call touched."""
    target = {0: 1, 4: 1, 5: Fraction(2, 3)}
    held = acc.residual(target)
    assert held == oracle.residual(target)
    for v in _LATER:
        assert acc.insert_reduce(v) == oracle.insert_reduce(v)
        assert acc.residual(target) == oracle.residual(target)
    acc.rereduce(held)
    assert held == oracle.residual(target)
    assert acc.rows == oracle.rows
    assert acc.n_inserted == oracle.n_inserted
    for pivot, (ins_id, d, lead) in acc.pivot_source.items():
        assert (ins_id, Fraction(d, lead)) == oracle.pivot_source[pivot]
        assert ({k: Fraction(m, d) for k, m in acc.provenance[pivot].items()}
                == oracle.provenance[pivot])
    assert acc.pivot_source.keys() == oracle.pivot_source.keys()


@pytest.mark.parametrize("bad", [{-1: 1}, {6: 1}, {0: 1, 6: 1}, {-2: 3, 2: 1},
                                 {6: Fraction(1, 2)}, {-1: Fraction(1, 3), 0: 1}],
                         ids=["negative", "past-end", "int-past-end", "int-negative",
                              "fraction-past-end", "fraction-negative"])
@pytest.mark.parametrize("call", ["insert_reduce", "residual", "express_in_span"])
def test_column_out_of_range_changes_nothing(bad, call):
    acc, oracle = _fill(EchelonAccumulator(6)), _fill(DictSweepEchelon())
    rank = acc.rank
    with pytest.raises(ValueError, match="outside dimension 6"):
        getattr(acc, call)(bad)
    assert acc.n_inserted == 3 and acc.rank == rank
    _later_results_match(acc, oracle)


class _RaisesOnce(dict):
    """A row whose items() raises the first time a sweep reads it."""

    armed = True

    def items(self):
        if self.armed:
            self.armed = False
            raise RuntimeError("injected")
        return super().items()


@pytest.mark.parametrize("call", ["insert_reduce", "residual", "express_in_span"])
def test_sweep_that_raises_midway_leaves_no_trace(call):
    # the target eliminates pivots 0 and 1, filling columns 1..4 of the
    # scratch, before the sweep reads row 4 and raises; later sweeps must
    # find every column untouched
    acc, oracle = _fill(EchelonAccumulator(6)), _fill(DictSweepEchelon())
    acc.rows[4] = _RaisesOnce(acc.rows[4])
    with pytest.raises(RuntimeError, match="injected"):
        getattr(acc, call)({0: 1, 4: 1})
    assert acc.n_inserted == 3 and acc.rank == 3
    assert acc.residual({0: 1, 4: 1}) == oracle.residual({0: 1, 4: 1})
    _later_results_match(acc, oracle)


def _random_vecs(rng, dim, count):
    vecs = []
    for _ in range(count):
        v = {}
        for _ in range(rng.randint(1, min(dim, 7))):
            v[rng.randrange(dim)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        vecs.append({k: c for k, c in v.items() if c})
    return vecs


def test_reexpansion_exactness():
    rng = random.Random(41)
    for _ in range(30):
        dim = rng.randint(3, 30)
        vecs = _random_vecs(rng, dim, rng.randint(2, 10))
        acc = EchelonAccumulator(dim)
        for v in vecs:
            acc.insert_reduce(v)
        # random combination of inserted vectors must express exactly
        target = {}
        chosen = {i: Fraction(rng.randint(-5, 5)) for i in rng.sample(range(len(vecs)),
                                                                rng.randint(1, len(vecs)))}
        for i, c in chosen.items():
            for k, val in vecs[i].items():
                nv = target.get(k, 0) + c * val
                if nv:
                    target[k] = nv
                elif k in target:
                    del target[k]
        coeffs, witness = acc.express_in_span(target)
        assert witness is None
        rebuilt = {}
        for i, c in coeffs.items():
            for k, val in vecs[i].items():
                nv = rebuilt.get(k, 0) + c * val
                if nv:
                    rebuilt[k] = nv
                elif k in rebuilt:
                    del rebuilt[k]
        assert rebuilt == target


def test_rank_agrees_with_dense_oracle():
    rng = random.Random(17)
    for _ in range(25):
        dim = rng.randint(2, 50)
        vecs = _random_vecs(rng, dim, rng.randint(1, 25))
        acc = EchelonAccumulator(dim)
        for v in vecs:
            acc.insert_reduce(v)
        assert acc.rank == dense_rank(vecs, dim)


def test_membership_agrees_with_dense_oracle():
    rng = random.Random(23)
    agree_in = agree_out = 0
    for _ in range(40):
        dim = rng.randint(2, 20)
        vecs = _random_vecs(rng, dim, rng.randint(1, 10))
        target = _random_vecs(rng, dim, 1)[0]
        acc = EchelonAccumulator(dim)
        for v in vecs:
            acc.insert_reduce(v)
        coeffs, _ = acc.express_in_span(target)
        dense = dense_express(vecs, target, dim)
        assert (coeffs is None) == (dense is None)
        if coeffs is None:
            agree_out += 1
        else:
            agree_in += 1
    assert agree_in and agree_out  # both branches exercised


def test_rank_insertion_order_invariance():
    rng = random.Random(31)
    for _ in range(10):
        dim = rng.randint(4, 40)
        vecs = _random_vecs(rng, dim, rng.randint(3, 15))
        ranks = set()
        for _ in range(6):
            order = list(range(len(vecs)))
            rng.shuffle(order)
            acc = EchelonAccumulator(dim)
            for i in order:
                acc.insert_reduce(vecs[i])
            ranks.add(acc.rank)
        assert len(ranks) == 1


def _normalised(row):
    """A stored integer row divided by its lead: 1 at the pivot."""
    lead = row[min(row)]
    return {k: Fraction(v, lead) for k, v in row.items()}


def test_rows_lead_at_pivot_with_unit_coefficient():
    rng = random.Random(53)
    vecs = _random_vecs(rng, 12, 20)
    acc = EchelonAccumulator(12)
    for v in vecs:
        acc.insert_reduce(v)
    for pivot, stored in acc.rows.items():
        # stored as a primitive integer row with a positive lead
        assert all(type(v) is int for v in stored.values())
        assert stored[pivot] > 0 and math.gcd(*stored.values()) == 1
        row = _normalised(stored)
        assert min(row) == pivot
        assert row[pivot] == 1
        # stored provenance re-expands the row exactly
        coeffs, witness = acc.express_in_span(row)
        assert witness is None
        rebuilt = {}
        for ins_id, c in coeffs.items():
            for k, val in vecs[ins_id].items():
                nv = rebuilt.get(k, 0) + c * val
                if nv:
                    rebuilt[k] = nv
                elif k in rebuilt:
                    del rebuilt[k]
        assert rebuilt == row


def test_saturated_alt_component_rows_are_integers():
    space = ComponentSpace(builtin_variety("alt"), {1: 1, 2: 1, 3: 1, 4: 1})
    space.saturate()
    assert space.acc.rank > 0
    assert all(type(v) is int for row in space.acc.rows.values() for v in row.values())


def test_saturated_alt_component_provenance_is_integer():
    space = ComponentSpace(builtin_variety("alt"), {1: 1, 2: 1, 3: 1, 4: 1})
    space.saturate()
    acc = space.acc
    assert any(acc.provenance.values())
    assert all(type(m) is int for prov in acc.provenance.values() for m in prov.values())
    assert all(type(d) is int and type(lead) is int
               for _, d, lead in acc.pivot_source.values())


@pytest.mark.parametrize("name, degree", [("alt", (1, 1, 1, 1)), ("flex", (2, 1, 1)),
                                          ("flex", (2, 1, 1, 1)),
                                          ("ncj_cor1", (2, 1, 1))])
def test_dense_sweep_matches_dict_sweep_oracle(name, degree):
    space = ComponentSpace(builtin_variety(name),
                           {i + 1: e for i, e in enumerate(degree)})
    inserted = []
    insert = space.acc.insert_reduce

    def record(vec):
        inserted.append(dict(vec))
        return insert(vec)

    space.acc.insert_reduce = record
    space.saturate()
    acc, oracle = space.acc, DictSweepEchelon()
    for v in inserted:
        oracle.insert_reduce(v)
    assert acc.rows == oracle.rows
    assert list(acc.rows) == list(oracle.rows)  # pivots in the same order
    for pivot, (ins_id, d, lead) in acc.pivot_source.items():
        assert (ins_id, Fraction(d, lead)) == oracle.pivot_source[pivot]
        assert ({k: Fraction(m, d) for k, m in acc.provenance[pivot].items()}
                == oracle.provenance[pivot])
    assert acc.pivot_source.keys() == oracle.pivot_source.keys()

    # residuals held over the first half of the insertions and re-reduced
    # after the second half, and fresh residuals, against the oracle's
    rng = random.Random(f"sweep-{name}-{degree}")
    dim = len(space.ambient)
    vecs = _random_vecs(rng, dim, 10) + [
        {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in v} for v in inserted[:5]]
    half = EchelonAccumulator(dim)
    for v in inserted[:len(inserted) // 2]:
        half.insert_reduce(v)
    held = [half.residual(v) for v in vecs]
    for v in inserted[len(inserted) // 2:]:
        half.insert_reduce(v)
    for v, r in zip(vecs, held):
        expected = oracle.residual(v)
        assert acc.residual(v) == expected
        half.rereduce(r)
        assert r == expected


def test_explicit_zero_entries_are_ignored():
    acc = EchelonAccumulator(3)
    assert acc.insert_reduce({0: 0, 1: 1}) is True
    assert acc.rows == {1: {1: 1}}
    assert acc.insert_reduce({0: 0}) is False
    assert acc.rank == 1
    assert acc.express_in_span({1: 0}) == ({}, None)
    assert acc.residual({0: 0, 2: Fraction(0)}) == {}


def _integral(vec):
    """vec times the lcm of its denominators, with int values."""
    d = math.lcm(*(v.denominator for v in vec.values()))
    return {k: int(v * d) for k, v in vec.items()}


def _combination(vecs, coeffs):
    """sum(c * vecs[i]) over coeffs, exact zeros dropped."""
    out = {}
    for i, c in coeffs.items():
        for k, v in vecs[i].items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


@st.composite
def _vector_sets(draw):
    """(dimension, sparse rational vectors, target); the target is either a
    combination of the vectors or arbitrary."""
    dim = draw(st.integers(1, 10))
    coeff = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 6))
    vector = st.dictionaries(st.integers(0, dim - 1), coeff, max_size=min(dim, 6))
    vecs = draw(st.lists(vector, min_size=1, max_size=12))
    if draw(st.booleans()):
        return dim, vecs, draw(vector)
    target = {}
    for v in vecs:
        c = draw(st.integers(-3, 3))
        for k, val in v.items():
            nv = target.get(k, 0) + c * val
            if nv:
                target[k] = nv
            elif k in target:
                del target[k]
    return dim, vecs, target


@settings(max_examples=200, deadline=None)
@given(_vector_sets())
# column 2 cancels when pivot 0 is eliminated and comes back with pivot 1;
# pivot 3 then has lead 2, so the work vector is scaled, column 2 once
@example((5, [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(-1)},
              {3: Fraction(2), 4: Fraction(1)},
              {0: Fraction(1), 1: Fraction(1), 2: Fraction(1), 3: Fraction(1)}],
          {0: Fraction(1), 1: Fraction(1), 2: Fraction(1), 3: Fraction(1)}))
def test_dense_sweep_matches_dict_sweep_oracle_on_random_vectors(case):
    dim, vecs, target = case
    # every other vector as ints, so the int and the Fraction entry paths
    # share one accumulator; scaling a vector keeps the span
    vecs = [_integral(v) if i % 2 else v for i, v in enumerate(vecs)]
    acc, oracle = EchelonAccumulator(dim), DictSweepEchelon()
    held = acc.residual(target)
    for n, v in enumerate(vecs, 1):
        assert acc.insert_reduce(v) == oracle.insert_reduce(v)
        expected = oracle.residual(target)
        assert acc.residual(target) == expected
        assert acc.residual(_integral(target)) == oracle.residual(_integral(target))
        acc.rereduce(held)
        assert held == expected
        coeffs, witness = acc.express_in_span(target)
        assert (coeffs is None) == (dense_express(vecs[:n], target, dim) is None)
        if coeffs is None:
            assert witness == min(expected)
        else:
            assert _combination(vecs, coeffs) == target
    assert acc.rows == oracle.rows
    for pivot, (ins_id, d, lead) in acc.pivot_source.items():
        assert (ins_id, Fraction(d, lead)) == oracle.pivot_source[pivot]
        assert ({k: Fraction(m, d) for k, m in acc.provenance[pivot].items()}
                == oracle.provenance[pivot])


@settings(max_examples=300, deadline=None)
@given(_vector_sets())
# a lead of 2 met by odd entries scaled from 1/2 and 1/4: both the lcm entry scaling
# and the non-unit elimination branch run
@example((3, [{0: Fraction(2), 1: Fraction(1)},
              {0: Fraction(1, 2), 1: Fraction(5), 2: Fraction(1, 3)}],
          {0: Fraction(1, 4), 1: Fraction(7, 4), 2: Fraction(1)}))
# column 2 cancels when pivot 0 is eliminated and comes back with pivot 1, so
# it sits on the heap twice and the second entry is stale
@example((4, [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(-1)},
              {2: Fraction(1), 3: Fraction(1)}, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}],
          {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}))
# a dependent insertion, and a target, that are 1/3 of the normalised row: the
# multiplier w/d = 2/6 is formed only by express_in_span
@example((2, [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1, 3), 1: Fraction(1, 6)}],
          {0: Fraction(1, 3), 1: Fraction(1, 6)}))
# a raw lead of 2 whose remainder has content 2: the stored row is (1, 2)
# and the pivot keeps (d, L) = (1, 2)
@example((2, [{0: Fraction(2), 1: Fraction(4)}], {0: Fraction(2), 1: Fraction(4)}))
# the newest pivot's lead divides its weight, the older pivot's lead 2 does
# not: the common denominator grows partway through the back-substitution
# and the coefficient already settled is rescaled with it
@example((3, [{0: Fraction(2), 1: Fraction(2)}, {1: Fraction(1), 2: Fraction(1)}],
          {0: Fraction(1), 2: Fraction(-1)}))
# a negative raw lead -2 after one elimination, and the target
# (v0 + v1) / 2, whose weight -1 on that pivot the lead does not divide
@example((3, [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1), 2: Fraction(2)}],
          {0: Fraction(1), 2: Fraction(1)}))
def test_deferred_provenance_matches_eager_oracle(case):
    dim, vecs, target = case
    acc = EchelonAccumulator(dim)
    oracle = EagerProvenanceEchelon()
    half = len(vecs) // 2
    for v in vecs[:half]:
        assert acc.insert_reduce(v) == oracle.insert(v)
    held = acc.residual(target)
    assert held == oracle.remainder(target)
    for v in vecs[half:]:
        assert acc.insert_reduce(v) == oracle.insert(v)
    assert {p: _normalised(r) for p, r in acc.rows.items()} == oracle.rows
    remainder = oracle.remainder(target)
    assert acc.residual(target) == remainder
    acc.rereduce(held)
    assert held == remainder
    assert all(type(v) is int for v in held.values() if v.denominator == 1)
    coeffs, witness = acc.express_in_span(target)
    assert coeffs == oracle.express(target)
    assert (coeffs is None) == (dense_express(vecs, target, dim) is None)
    assert (witness is None) == (coeffs is not None)


def test_ratio_is_exact_and_int_where_integral():
    third = _ratio(1, 3)
    assert type(third) is Fraction and third == Fraction(1, 3)
    assert _ratio(6, -4) == Fraction(-3, 2)
    assert _ratio(10**30 + 1, 10**30) == Fraction(10**30 + 1, 10**30)
    for n, d, q in ((8, 2, 4), (-9, 3, -3), (0, 7, 0), (10**40, 10**20, 10**20)):
        r = _ratio(n, d)
        assert type(r) is int and r == q
