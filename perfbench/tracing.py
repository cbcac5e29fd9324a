"""Spans around skewalg's public calls, installed from the benchmark's side.

install() wraps each public function or method named in TRACED and binds
the wrapper in every module namespace that holds the original, so calls
made inside the library (verify -> fm -> substitute, family ->
component_space, ...) are recorded too.  A span is (name, start, end,
parent); spans stay in memory and are written out after the run.  The
layer of a span is the skewalg module it belongs to, the first part of
its name.
"""

import importlib
import json
import sys
import time

LAYERS = ("linalg", "variety", "words", "poly", "symmetrize", "family", "verify")

TRACED = (  # (module, public name); the span is named <layer>.<name>
    ("linalg", "EchelonAccumulator.insert_reduce"),
    ("linalg", "EchelonAccumulator.residual"),
    ("linalg", "EchelonAccumulator.rereduce"),
    ("linalg", "EchelonAccumulator.express_in_span"),
    ("variety", "consequence_generators"),
    ("variety", "expand_descriptor"),
    ("variety", "component_space"),
    ("variety", "is_member"),
    ("variety", "ComponentSpace.vec"),
    ("variety", "ComponentSpace.saturate"),
    ("variety", "ComponentSpace.membership"),
    ("variety", "ComponentSpace.express"),
    ("variety", "ComponentSpace.residual_of"),
    ("variety", "MembershipCertificate.recheck"),
    ("variety", "MembershipCertificate.to_json"),
    ("words", "enumerate_words"),
    ("poly", "parse_poly"),
    ("poly", "substitute"),
    ("symmetrize", "skew"),
    ("symmetrize", "alternate"),
    ("symmetrize", "collapse"),
    ("family", "fm"),
    ("family", "solve_skew_decomposition"),
    ("verify", "verify"),
)

STREAM_NEXT = "variety.consequence_generators.next"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.stack = []
        self.acc_calls = {}       # EchelonAccumulator -> insert_reduce calls
        self.rank_gains = 0
        self.spaces = set()       # ComponentSpace objects component_space returned
        self.space_calls = 0
        self.space_hits = 0
        self.streamed = 0
        self.fm_built = {}        # m -> terms of fm(m)
        self.terms_out = 0
        self.cert_entries = 0

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(span) + "\n")


# -- counters read at the boundaries ------------------------------------------------

def _on_insert(tr, args, result):
    acc = args[0]
    tr.acc_calls[acc] = tr.acc_calls.get(acc, 0) + 1
    tr.rank_gains += bool(result)


def _on_space(tr, args, result):
    tr.space_calls += 1
    tr.space_hits += result in tr.spaces
    tr.spaces.add(result)


def _on_terms(tr, args, result):
    tr.terms_out += len(result)


def _on_fm(tr, args, result):
    tr.fm_built.setdefault(args[0], len(result))


def _on_to_json(tr, args, result):
    tr.cert_entries += len(args[0].entries)


AFTER = {
    "linalg.insert_reduce": _on_insert,
    "variety.component_space": _on_space,
    "symmetrize.skew": _on_terms,
    "symmetrize.alternate": _on_terms,
    "symmetrize.collapse": _on_terms,
    "family.fm": _on_fm,
    "variety.to_json": _on_to_json,
}


class _Stream:
    """A generator proxy: one span per next()."""

    def __init__(self, tracer, inner):
        self.tracer, self.inner = tracer, inner

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        if not tr.enabled:
            return next(self.inner)
        idx = tr.open(STREAM_NEXT)
        try:
            item = next(self.inner)
        finally:
            tr.close(idx)
        tr.streamed += 1
        return item


def _wrap(tracer, name, fn):
    after = AFTER.get(name)

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every TRACED name in place; the tracer starts disabled."""
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "skewalg" or n.startswith("skewalg.")]
    for layer, attr in TRACED:
        module = importlib.import_module(f"skewalg.{layer}")
        owner, _, name = attr.rpartition(".")
        span = f"{layer}.{name}"
        if owner:
            cls = getattr(module, owner)
            setattr(cls, name, _wrap(tracer, span, cls.__dict__[name]))
            continue
        original = getattr(module, name)
        if name == "consequence_generators":
            def wrapper(*args, _orig=original, **kwargs):
                return _Stream(tracer, _orig(*args, **kwargs))
        else:
            wrapper = _wrap(tracer, span, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)


# -- per-layer metrics --------------------------------------------------------------

def _coeff_bits(v) -> int:
    return max(int(v.numerator).bit_length(), int(v.denominator).bit_length())


def per_layer_metrics(tr: Tracer, solve_s: float) -> dict:
    """Busy time, self time and counters from the recorded spans."""
    n = len(tr.names)
    dur = [e - s for s, e in zip(tr.starts, tr.ends)]
    child = [0.0] * n
    for i, p in enumerate(tr.parents):
        if p >= 0:
            child[p] += dur[i]
    bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
    layer_of = [name.split(".", 1)[0] for name in tr.names]
    above = [0] * n  # layers present among a span's ancestors
    busy = dict.fromkeys(LAYERS, 0.0)
    self_layer = dict.fromkeys(LAYERS, 0.0)
    total, own = {}, {}
    top_level = expand_in_stream = 0.0
    for i in range(n):
        p, layer, name = tr.parents[i], layer_of[i], tr.names[i]
        if p >= 0:
            above[i] = above[p] | bit[layer_of[p]]
        else:
            top_level += dur[i]
        if not above[i] & bit[layer]:
            busy[layer] += dur[i]
        self_layer[layer] += dur[i] - child[i]
        total[name] = total.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + dur[i] - child[i]
        if name == "variety.expand_descriptor" and p >= 0 and tr.names[p] == STREAM_NEXT:
            expand_in_stream += dur[i]

    inserts = sum(tr.acc_calls.values())
    space_inserts = sum(tr.acc_calls.get(space.acc, 0) for space in tr.spaces)
    accs = list(tr.acc_calls)
    t = lambda name: total.get(name, 0.0)
    m = {
        "linalg.insert_s": t("linalg.insert_reduce"),
        "linalg.inserts": inserts,
        "linalg.rank_gain_ratio": tr.rank_gains / inserts if inserts else 0.0,
        "linalg.read_s": (t("linalg.residual") + t("linalg.rereduce")
                          + t("linalg.express_in_span")),
        "linalg.row_nnz": sum(len(r) for a in accs for r in a.rows.values()),
        "linalg.provenance_nnz": sum(len(r) for a in accs for r in a.provenance.values()),
        "linalg.max_coeff_bits": max((_coeff_bits(v) for a in accs
                                      for r in a.rows.values() for v in r.values()),
                                     default=0),
        "variety.expand_s": expand_in_stream,
        "variety.generators_streamed": tr.streamed,
        "variety.dedup_ratio": space_inserts / tr.streamed if tr.streamed else 0.0,
        "variety.vec_s": t("variety.vec"),
        "variety.cache_hit_ratio": (tr.space_hits / tr.space_calls
                                    if tr.space_calls else 0.0),
        "variety.recheck_s": t("variety.recheck"),
        "variety.to_json_s": t("variety.to_json"),
        "variety.cert_entries": tr.cert_entries,
        "words.enumerate_s": t("words.enumerate_words"),
        "poly.parse_s": t("poly.parse_poly"),
        "poly.substitute_s": t("poly.substitute"),
        "symmetrize.skew_s": t("symmetrize.skew"),
        "symmetrize.alternate_s": t("symmetrize.alternate"),
        "symmetrize.collapse_s": t("symmetrize.collapse"),
        "symmetrize.terms_out": tr.terms_out,
        "family.fm_s": own.get("family.fm", 0.0),
        "family.fm_terms": sum(tr.fm_built.values()),
        "family.decompose_s": own.get("family.solve_skew_decomposition", 0.0),
        "verify.self_s": own.get("verify.verify", 0.0),
    }
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.self_s"] = self_layer[layer]
    m["session.self_s"] = solve_s - top_level
    m["trace.spans"] = n
    m["trace.solve_s"] = solve_s
    return m
