"""Identity sets, T-ideal components, dimensions and membership certificates.

A variety stores fully linearized identities (valid in characteristic 0:
the multilinear consequences span every multihomogeneous component).  The
component of the T-ideal at a multidegree is spanned by the identities
with monomials substituted for their variables, embedded in a one-hole
monomial context; ComponentSpace streams that enumeration into an echelon
accumulator, stopping early when a membership target is reached or the
ambient space saturates.

Generators that cannot raise the rank are skipped by slot orbit, before
they are expanded.  The generators with one context and one set of
distinct slot words form a group, whose words are numbered in the order
the group first meets them.  In a group, generator (idx, subs) is the
image of its abstract polynomial, f_idx with variable i renamed to
y_p[i] where p[i] numbers subs[i], under one linear map: the words go in
for the y's and the result into the context.  A generator whose abstract
polynomial lies in the span of those already streamed in its group would
reduce to zero, so it is dropped.  Only dependent insertions vanish:
rows, pivots, provenance and certificates stay the same, and the
rank-raising insertions keep their order.

A space turns a streamed descriptor into its column vector through an
integer word table, built once from the words of the component's
sub-multidegrees: every such word has an id (the ambient words first, so
an ambient word's id is its column) and every word of degree >= 2 is the
image of its (left id, right id) pair.  Each identity is compiled once
by words.flatten into its distinct nodes over the slot positions, and
each context once into its path of (side, sibling id) steps from the
hole up, so a generator's vector takes pair lookups alone: each node
once, then each term's root through the context, with the terms summed
in the order expand_descriptor sums them.  Slot-orbit groups are keyed
by ids.
"""

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import lcm

from .config import DEFAULT_CONFIG, Config, ResourceLimitError
from .linalg import EchelonAccumulator
from .poly import (MultiPoly, add_terms, associator, commutator, format_poly,
                   multiply, parse_poly, parse_word, relabel_poly)
from .symmetrize import linearize
from .words import (HOLE, _words_for, enumerate_words, flatten, format_word,
                    md_key, multidegree_of, relabel, word_count)


class Variety(namedtuple("Variety", "name identities")):
    """A named set of multilinear identities; each uses variables x1..xk."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for f in self.identities:
            if not f.is_multilinear():
                raise ValueError("variety identities must be multilinear")
            (md,) = f.multidegrees()
            if [v for v, _ in md] != list(range(1, len(md) + 1)):
                raise ValueError(f"identity {format_poly(f)} must use exactly x1..xk")
        return self


VARIETIES = ("assoc", "alt", "flex", "ncj_cor1", "free", "custom")


def builtin_variety(name: str, identity_polys=None) -> Variety:
    """The variety of a name in VARIETIES.

    custom takes a list of multihomogeneous polynomials (see
    parse_identity_file) and linearizes them; no other name takes any.
    """
    if name not in VARIETIES:
        raise ValueError(f"unknown variety {name!r}; known: {', '.join(VARIETIES)}")
    if identity_polys is not None and name != "custom":
        raise ValueError(f"only the custom variety takes identities, not {name!r}")
    x1, x2, x3 = map(MultiPoly.variable, (1, 2, 3))
    if name == "assoc":
        return Variety("assoc", (associator(x1, x2, x3),))
    if name == "alt":
        return Variety("alt", (
            associator(x1, x2, x3) + associator(x1, x3, x2),
            associator(x1, x2, x3) + associator(x2, x1, x3),
        ))
    if name == "flex":
        return Variety("flex", (associator(x1, x2, x3) + associator(x3, x2, x1),))
    if name == "ncj_cor1":
        flex = associator(x1, x2, x3) + associator(x3, x2, x1)
        ncj = linearize(associator(multiply(x1, x1), x2, x1))
        cor1 = linearize(associator(commutator(x1, x2), x3, x3))
        return Variety("ncj_cor1", (flex, ncj, cor1))
    if name == "free":
        return Variety("free", ())
    if identity_polys is None:
        raise ValueError("custom variety needs identity polynomials")
    ids = []
    for p in identity_polys:
        if p.is_zero():
            continue
        if len(p.multidegrees()) != 1:
            raise ValueError(
                f"custom identity is not multihomogeneous: {format_poly(p)}")
        ids.append(linearize(p))
    return Variety("custom", tuple(ids))


# One consequence generator: identity identity_index with the word
# substitution[i] for its variable x(i+1), in context, a word with exactly
# one HOLE leaf (HOLE alone is no context).
GenDescriptor = namedtuple("GenDescriptor", "identity_index substitution context")


def _expansion(variety: Variety, desc: GenDescriptor):
    """The generator's (word, coefficient) pairs, one per identity term,
    in the identity's term order; words may repeat."""
    f = variety.identities[desc.identity_index]
    images = {i + 1: w for i, w in enumerate(desc.substitution)}
    ctx = desc.context
    return ((relabel(ctx, {HOLE: relabel(w, images)}), c) for w, c in f.terms.items())


def expand_descriptor(variety: Variety, desc: GenDescriptor) -> MultiPoly:
    """Rebuild the generator polynomial from its descriptor, word by word.

    ComponentSpace vectorises generators through its word table instead;
    this is the expander MembershipCertificate.recheck sums with, apart
    from the table and the echelon, and the benchmark's
    perfbench/reference.py is a separate one.
    """
    return MultiPoly.from_pairs(_expansion(variety, desc))


def _compositions(n: int, parts: int):
    """The tuples of parts non-negative ints summing to n, in lexicographic
    order: stars and bars, the bars at cuts."""
    for cuts in combinations_with_replacement(range(n + 1), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))


def _splits(d: dict, k: int):
    """(context multidegree, k nonzero slot multidegrees) summing to d,
    each as an md_key."""
    vars_ = sorted(d)
    per_var = [list(_compositions(d[v], k + 1)) for v in vars_]
    for combo in product(*per_var):
        slots = []
        for b in range(1, k + 1):
            md = tuple((v, parts[b]) for v, parts in zip(vars_, combo) if parts[b])
            if not md:
                break
            slots.append(md)
        else:
            yield tuple((v, parts[0]) for v, parts in zip(vars_, combo) if parts[0]), slots


def consequence_generators(variety: Variety, d: dict):
    """Stream the descriptors of generators spanning the T-ideal component.

    Deterministic order, no duplicates; expand_descriptor gives each
    generator's polynomial.
    """
    d = {v: e for v, e in d.items() if e}
    for idx, f in enumerate(variety.identities):
        k = len(f.variables())
        if sum(d.values()) < k:
            continue
        for ctx_key, slot_keys in _splits(d, k):
            contexts = _words_for(((HOLE, 1),) + ctx_key)  # HOLE sorts first
            slot_words = [_words_for(key) for key in slot_keys]
            for ctx in contexts:
                for subs in product(*slot_words):
                    yield GenDescriptor(idx, subs, ctx)


class _SlotOrbits:
    """Which slot patterns of one identity set are spanned by earlier ones.

    A pattern (idx, p) stands for identity idx with variable i+1 renamed to
    y_{p[i]+1}.  The state of a group is the frozenset of independent
    patterns streamed into it; whether a pattern is spanned depends on
    nothing but the state and the pattern, so each answer is computed once.
    """

    def __init__(self, identities: tuple):
        self.identities = identities
        self.steps = {}  # (state, pattern) -> next state, None if spanned

    def after(self, state: frozenset, pattern: tuple):
        """The state after streaming pattern, or None when it is spanned."""
        try:
            return self.steps[state, pattern]
        except KeyError:
            pass
        grown = state | {pattern}
        cols = {}  # abstract word -> column
        vecs = []
        for idx, p in grown:
            f = relabel_poly(self.identities[idx], {i + 1: j + 1 for i, j in enumerate(p)})
            vecs.append({cols.setdefault(w, len(cols)): c for w, c in f.terms.items()})
        acc = EchelonAccumulator(len(cols))
        for v in vecs:
            acc.insert_reduce(v)
        nxt = self.steps[state, pattern] = grown if acc.rank == len(grown) else None
        return nxt


@lru_cache(maxsize=32)
def _slot_orbits(identities: tuple) -> _SlotOrbits:
    """One memo per identity set, shared by all its components."""
    return _SlotOrbits(identities)


class _WordTable:
    """Integer ids for the words of a component's sub-multidegrees.

    The ambient words come first, in canonical order, so the id of an
    ambient word is its column.  pair maps left_id * size + right_id to
    the id of the word (left, right).
    """

    def __init__(self, identities: tuple, multidegree: dict):
        key = md_key(multidegree)
        ids = {w: i for i, w in enumerate(_words_for(key))}
        for exps in product(*(range(e + 1) for _, e in key)):
            sub = tuple((v, e) for (v, _), e in zip(key, exps) if e)
            if sub and sub != key:
                for w in _words_for(sub):
                    ids[w] = len(ids)
        self.ids = ids
        self.size = n = len(ids)
        self.pair = {ids[w[0]] * n + ids[w[1]]: i for w, i in ids.items()
                     if not isinstance(w, int)}
        # per identity: flatten's (nodes, roots) over its variables, and its
        # coefficients in term order
        self.compiled = [(*flatten(f.terms, len(f.variables()) + 1),
                          list(f.terms.values())) for f in identities]
        self._contexts = {}  # context word -> (number, path)

    def context(self, ctx) -> tuple:
        """(number, path) of a one-hole context: the number names it among
        the contexts seen; the path has one (multiplier, addend) step per
        node from the hole up, turning the id u of the filled subword into
        the pair key u * multiplier + addend."""
        try:
            return self._contexts[ctx]
        except KeyError:
            pass
        path = []
        node = ctx
        while node != HOLE:
            left, right = node
            if HOLE in multidegree_of(left):
                path.append((self.size, self.ids[right]))
                node = left
            else:
                path.append((1, self.ids[left] * self.size))
                node = right
        entry = self._contexts[ctx] = (len(self._contexts), tuple(reversed(path)))
        return entry

    def slot_ids(self, words) -> tuple:
        return tuple(map(self.ids.__getitem__, words))

    def vector(self, identity_index: int, slots: tuple, path: tuple) -> dict:
        """Column vector of identity identity_index with the words of ids
        slots in its variables, in the context of path."""
        pair, n = self.pair, self.size
        nodes, roots, coeffs = self.compiled[identity_index]
        ids = [None, *slots]  # position v >= 1 holds the id of variable v's word
        grow = ids.append
        for left, right in nodes:
            grow(pair[ids[left] * n + ids[right]])
        out = {}
        get = out.get
        for r, c in zip(roots, coeffs):
            w = ids[r]
            for mult, add in path:
                w = pair[w * mult + add]
            total = get(w, 0) + c
            if total:
                out[w] = total
            else:
                out.pop(w, None)
        return out


class MembershipCertificate(namedtuple("MembershipCertificate",
                                       "target variety_name multidegree entries")):
    """Exact witness: target = sum of coefficient * expanded descriptor.
    entries is a list of (GenDescriptor, coefficient)."""

    __slots__ = ()

    def to_json(self, variety: Variety) -> dict:
        texts = {i: format_poly(variety.identities[i])  # once per identity used
                 for i in {desc.identity_index for desc, _ in self.entries}}
        names = {}  # word -> text, so each distinct word is formatted once

        def name(w):
            text = names.get(w)
            if text is None:
                text = names[w] = format_word(w)
            return text

        return {
            "target": format_poly(self.target),
            "variety": self.variety_name,
            "multidegree": {f"x{v}": e for v, e in sorted(self.multidegree.items())},
            "generators": [
                {"identity_index": idx,
                 "identity": texts[idx],
                 "substitution": {f"x{i + 1}": name(w) for i, w in enumerate(subs)},
                 "context": name(ctx),
                 "coefficient": str(c)}
                for (idx, subs, ctx), c in self.entries
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "MembershipCertificate":
        entries = []
        for g in doc["generators"]:
            subs = g["substitution"]
            desc = GenDescriptor(
                g["identity_index"],
                tuple(parse_word(subs[f"x{i + 1}"]) for i in range(len(subs))),
                parse_word(g["context"], allow_hole=True))
            entries.append((desc, Fraction(g["coefficient"])))
        md = {int(k[1:]): v for k, v in doc["multidegree"].items()}
        return MembershipCertificate(parse_poly(doc["target"]), doc["variety"], md, entries)

    def write(self, path: str, variety: Variety):
        """Write to_json(variety) to path with one generator per line: the
        one writer of certificate files.  Each line is one json.dumps, so
        the file is never held whole."""
        doc = self.to_json(variety)
        head = json.dumps({**doc, "generators": []})  # generators is the last key
        with open(path, "w") as fh:
            fh.write(head.removesuffix("]}"))
            sep = "\n"
            for entry in doc["generators"]:
                fh.write(sep + json.dumps(entry))
                sep = ",\n"
            fh.write("\n]}\n")

    def recheck(self, variety: Variety) -> bool:
        """Re-expand without the solver and compare exactly.  Certificates may
        come from outside, so each descriptor must name an identity, give one
        word per identity variable and have a context with exactly one hole."""
        arity = [len(f.variables()) for f in variety.identities]
        for desc, _ in self.entries:
            if not (0 <= desc.identity_index < len(arity)
                    and len(desc.substitution) == arity[desc.identity_index]
                    and multidegree_of(desc.context).get(HOLE) == 1):
                return False
        # sum in integers: scale the coefficients, and the target, by the
        # lcm of the coefficient denominators
        den = lcm(*(c.denominator for _, c in self.entries))
        scaled = [(desc, c.numerator * (den // c.denominator))
                  for desc, c in self.entries]
        return add_terms({}, ((w, n * cw) for desc, n in scaled
                              for w, cw in _expansion(variety, desc))
                         ) == self.target.scale(den).terms


class ComponentSpace:
    """Echelon of one multihomogeneous T-ideal component, built incrementally."""

    def __init__(self, variety: Variety, multidegree: dict, config=DEFAULT_CONFIG):
        self.variety = variety
        self.multidegree = {v: e for v, e in multidegree.items() if e}
        self.config = config
        n = word_count(self.multidegree)
        if n > config.max_ambient_dimension:
            raise ResourceLimitError("max_ambient_dimension", n,
                                     config.max_ambient_dimension)
        self.ambient = enumerate_words(self.multidegree)
        self.acc = EchelonAccumulator(len(self.ambient))
        self._table = _WordTable(variety.identities, self.multidegree)
        self._stream = consequence_generators(variety, self.multidegree)
        self._descriptors = {}  # insertion id -> GenDescriptor
        self._orbits = _slot_orbits(variety.identities)
        # (context number, set of slot ids) -> (the ids in first-seen order, state)
        self._groups = {}
        self._streamed = 0
        self.exhausted = False
        self._residuals = {}  # MultiPoly -> its residual, once saturated

    def vec(self, p: MultiPoly) -> dict:
        """Column vector of a polynomial of this component."""
        ids, n = self._table.ids, len(self.ambient)
        out = {}
        for w, c in p.terms.items():
            i = ids.get(w)
            if i is None or i >= n:
                raise ValueError(
                    f"word {format_word(w)} is outside multidegree "
                    f"{self.multidegree}")
            out[i] = c
        return out

    def _insert_next(self) -> bool:
        """Stream one generator; returns False when the stream is exhausted.

        Every streamed generator counts against max_generators.  One whose
        slot pattern is spanned in its group (see the module docstring) is
        dropped before it is vectorised; the rest are vectorised through
        the word table and inserted, and the descriptors of those that
        raise the rank kept.
        """
        desc = next(self._stream, None)
        if desc is None:
            self._finish()
            return False
        self._streamed += 1
        if self._streamed > self.config.max_generators:
            raise ResourceLimitError("max_generators", self._streamed,
                                     self.config.max_generators)
        table = self._table
        number, path = table.context(desc.context)
        slots = table.slot_ids(desc.substitution)
        group = (number, frozenset(slots))
        firsts, state = self._groups.get(group) or (tuple(dict.fromkeys(slots)), frozenset())
        state = self._orbits.after(
            state, (desc.identity_index, tuple(map(firsts.index, slots))))
        if state is None:
            return True
        self._groups[group] = firsts, state
        vec = table.vector(desc.identity_index, slots, path)
        if self.acc.insert_reduce(vec):
            self._descriptors[self.acc.n_inserted - 1] = desc
            if self.acc.rank == len(self.ambient):
                self._finish()  # the rest of the stream cannot change any answer
        return True

    def _finish(self):
        """Mark the stream spent, or not worth reading on, and drop the
        group table."""
        self.exhausted = True
        self._groups = None

    def saturate(self):
        """Consume the whole generator stream (early exit on full rank)."""
        while not self.exhausted and self._insert_next():
            pass
        return self

    def dimension(self) -> int:
        """dim of the component of the relatively free algebra."""
        self.saturate()
        return len(self.ambient) - self.acc.rank

    def residual_of(self, p: MultiPoly) -> dict:
        """Remainder of p modulo the rows so far (a fresh dict).  Once the
        space is saturated the rows are final, so each distinct p is
        reduced once."""
        if not self.exhausted:
            return self.acc.residual(self.vec(p))
        residual = self._residuals.get(p)
        if residual is None:
            residual = self._residuals[p] = self.acc.residual(self.vec(p))
        return dict(residual)

    def quotient(self, polys) -> EchelonAccumulator:
        """Echelon of the polys' residuals modulo the saturated component.

        One insertion per poly, in order, so insertion id k stands for
        polys[k] in express_in_span of a residual.
        """
        self.saturate()
        acc = EchelonAccumulator(len(self.ambient))
        for p in polys:
            acc.insert_reduce(self.residual_of(p))
        return acc

    def membership(self, p: MultiPoly):
        """(certificate, None) for a member, else (None, witness_word), as
        express gives; streams generators lazily and stops as soon as the
        target falls into the accumulated span."""
        vec = self.vec(p)
        residual = self.acc.residual(vec)
        while residual and not self.exhausted:
            before = self.acc.rank
            if not self._insert_next():
                break
            if self.acc.rank > before and self.acc.last_pivot in residual:
                self.acc.rereduce(residual)
        if residual:
            return None, self.ambient[min(residual)]
        return self.express(p)

    def express(self, p: MultiPoly):
        """Certificate entries for p over the generators inserted so far."""
        coeffs, witness = self.acc.express_in_span(self.vec(p))
        if coeffs is None:
            return None, self.ambient[witness]
        entries = [(self._descriptors[i], c) for i, c in sorted(coeffs.items())]
        return MembershipCertificate(p, self.variety.name, self.multidegree,
                                     entries), None


@lru_cache(maxsize=32)  # verify --all-desk uses 16 components, a bench session at most 8
def _cached_space(variety: Variety, md: tuple, max_ambient_dimension: int,
                  max_generators: int) -> ComponentSpace:
    # a space reads nothing of its config but the limits
    limits = Config(max_ambient_dimension=max_ambient_dimension, max_generators=max_generators)
    return ComponentSpace(variety, dict(md), limits)


def component_space(variety: Variety, multidegree: dict,
                    config=DEFAULT_CONFIG) -> ComponentSpace:
    """Session cache: membership, dimension and decomposition checks at the
    same component share one echelon.  It keeps the 32 most recently used
    components."""
    return _cached_space(variety, md_key(multidegree), config.max_ambient_dimension,
                         config.max_generators)


clear_space_cache = _cached_space.cache_clear


def component_dimension(variety: Variety, multidegree: dict,
                        config=DEFAULT_CONFIG) -> int:
    return component_space(variety, multidegree, config).dimension()


# certificates: one MembershipCertificate per multidegree component;
# witness: the leading word of a failing component, else None.
MembershipResult = namedtuple("MembershipResult", "member certificates witness")


def is_member(p: MultiPoly, variety: Variety, config=DEFAULT_CONFIG) -> MembershipResult:
    """T-ideal membership; non-multihomogeneous input is split by multidegree
    and is a member iff every component is."""
    if p.is_zero():
        return MembershipResult(True, [], None)
    certs = []
    for md, comp in sorted(p.homogeneous_components().items()):
        space = component_space(variety, dict(md), config)
        cert, witness = space.membership(comp)
        if cert is None:
            return MembershipResult(False, [], witness)
        certs.append(cert)
    return MembershipResult(True, certs, None)
