"""Per-layer span tracer, installed from outside the package.

`Tracer.install` replaces each function in WRAPPED, in every trunksym
module namespace that holds it, with a wrapper that records a span:
calls and self time (span time minus the time of child spans).  src/ is
not edited; a traced run is a separate run from the timed one.

Not wrapped, so their time counts in the calling span's self time:

- Hot leaves.  A span costs about 1 us, so wrapping these would swamp the
  run.  Calls in one round, the most over the four workloads at seed 2:
  characters._dominant 1.47M, Partition.part 1.38M, Partition.__new__
  0.97M, partitions._check_l 0.85M, node_residue 0.82M,
  LaurentPoly.__init__ 0.46M, addable_nodes 0.24M, LaurentPoly.__mul__
  and __add__ 0.11M each, cells 0.10M; fock._node_power, add_node and
  removable_nodes 92k each; classify._fits_under 91k.
- Private steps of a wrapped public function: classify._assign (the
  exhaustive witness search, inside distinguished_decomposition),
  mullineux._mullineux_cached (inside mullineux), fock._f_single (inside
  f_apply), characters._orbit and MonomialChar.__add__ (inside products
  and conversions).
- is_regular and is_restricted, which call the wrapped regularity.

FockVector.subtract_scaled is counted but not timed (fock.reduction_rounds).
"""

from __future__ import annotations

import inspect
import os
import sys
import time

SUITE_NAMES = (
    "mullineux-involution",
    "llt-mullineux-crosscheck",
    "phi-bijection",
    "special-decomposition",
    "oracle-mull-length",
    "reciprocity-removal",
    "edge-structure",
    "characters",
    "core-residues",
)

# layer -> functions of trunksym.<layer> that get a span.
WRAPPED = {
    "partitions": ("restricted_decompose", "partitions_of", "regularity", "l_core"),
    "mullineux": ("mullineux", "l_edge", "add_l_edge", "remove_l_edge", "mullineux_components"),
    "classify": ("is_m_special", "distinguished_decomposition", "is_m_good", "enumerate_special"),
    "characters": ("truncated_tensor_char", "monomials_to_schur", "kostka",
                   "verify_graded_free_identity", "MonomialChar.__mul__"),
    "fock": ("decomposition_matrix", "ladder_monomial", "f_apply", "canonical_column"),
    "cache": ("cache_put", "cache_get", "load_or_compute"),
    "suites": ("run_suite",),
}
# one span per CLI call made by the benchmark: parse_args, handler and JSON dump
CLI_SPAN = "cli.query"
LAYERS = ("cli", "partitions", "mullineux", "classify", "characters", "fock", "cache", "suites")
# span -> (child span, counter): "roundtrips" counts the child spans opened
# inside it; the other counters count its spans that opened no child.
CHILD_COUNTERS = {
    "mullineux.add_l_edge": ("mullineux.remove_l_edge", "roundtrips"),
    "fock.decomposition_matrix": ("fock.canonical_column", "memo_hits"),
    "cache.load_or_compute": ("fock.decomposition_matrix", "cache_hits"),
}
# span keys whose names differ from the wrapped attribute
RENAMED = {"characters.MonomialChar.__mul__": "characters.monomial_mul"}


def _key(layer: str, name: str) -> str:
    full = f"{layer}.{name}"
    return RENAMED.get(full, full)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"trace_overhead_ratio": "ratio"}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units[f"{CLI_SPAN}.calls"] = "count"
    units[f"{CLI_SPAN}.self_s"] = "s"
    for layer, names in WRAPPED.items():
        for name in names:
            key = _key(layer, name)
            units[f"{key}.calls"] = "count"
            units[f"{key}.self_s"] = "s"
    units.update({
        "mullineux.roundtrips_per_stage": "ratio",
        "mullineux.repeat_ratio": "ratio",
        "classify.witness_discarded_ratio": "ratio",
        "fock.columns": "count",
        "fock.reduction_rounds": "count",
        "fock.memo_hits": "count",
        "cache.cache_put.bytes": "bytes",
        "cache.cache_get.bytes": "bytes",
        "cache.hit_ratio": "ratio",
        "cache.rejects": "count",
    })
    for suite in SUITE_NAMES:
        units[f"suites.{suite}.elapsed_s"] = "s"
        units[f"suites.{suite}.checks"] = "count"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.stack = [0.0]  # child time accumulated by each open span
        self.stats: dict[str, list] = {}  # span key -> [calls, self seconds]
        self.counts = dict.fromkeys(
            ("roundtrips", "repeats", "specials", "discarded", "memo_hits",
             "reduction_rounds", "put_bytes", "get_bytes", "cache_hits", "rejects"), 0)
        self.seen_mullineux: set = set()
        self.suites: dict[str, list] = {}
        # set by the caller around `special` queries whose witness is dropped
        self.witness_discarded = False

    # -- spans -------------------------------------------------------------

    def span(self, key: str, fn, post=None, pre=None):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack, perf = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            token = pre(args) if pre else None
            stack.append(0.0)
            t0 = perf()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - child
                if post:
                    post(args, result, exc, dt, token)

        return wrapper

    def generator_span(self, key: str, fn):
        """Like span, for generator functions: each resumption is timed."""
        stat = self.stats.setdefault(key, [0, 0.0])
        stack, perf = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stat[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dt = perf() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    stat[1] += dt - child
                yield item

        return wrapper

    def calls(self, key: str) -> int:
        return self.stats.setdefault(key, [0, 0.0])[0]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of WRAPPED wherever trunksym modules hold it."""
        mods = [m for name, m in sys.modules.items() if name == "trunksym" or name.startswith("trunksym.")]
        replace: dict[int, tuple] = {}
        for layer, names in WRAPPED.items():
            module = sys.modules[f"trunksym.{layer}"]
            for name in names:
                key = _key(layer, name)
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.span(key, getattr(cls, meth)))
                    continue
                fn = getattr(module, name)
                replace[id(fn)] = (fn, self._wrapper(key, fn, module))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        fock = sys.modules["trunksym.fock"]
        subtract = fock.FockVector.subtract_scaled

        def counted_subtract(*args, **kwargs):
            self.counts["reduction_rounds"] += 1
            return subtract(*args, **kwargs)

        fock.FockVector.subtract_scaled = counted_subtract

    def _wrapper(self, key: str, fn, module):
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            return self.generator_span(key, fn)
        if key == "mullineux.mullineux":
            def pre(args):
                label = tuple(args)
                if label in self.seen_mullineux:
                    counts["repeats"] += 1
                self.seen_mullineux.add(label)
            return self.span(key, fn, pre=pre)
        if key in CHILD_COUNTERS:
            child, counter = CHILD_COUNTERS[key]

            def post(args, result, exc, dt, before):
                opened = self.calls(child) - before
                if counter == "roundtrips":
                    counts[counter] += opened
                elif opened == 0 and exc is None:
                    counts[counter] += 1

            return self.span(key, fn, pre=lambda args: self.calls(child), post=post)
        if key == "classify.is_m_special":
            def post(args, result, exc, dt, token):
                if result is not None and result.special:
                    counts["specials"] += 1
                    counts["discarded"] += self.witness_discarded
            return self.span(key, fn, post=post)
        if key == "cache.cache_put":
            def post(args, result, exc, dt, token):
                if result is not None:
                    counts["put_bytes"] += os.path.getsize(result)
            return self.span(key, fn, post=post)
        if key == "cache.cache_get":
            def post(args, result, exc, dt, token):
                if isinstance(exc, module.CacheIntegrityError):
                    counts["rejects"] += 1
                path = module.cache_path(*args[:3])
                if path.exists():
                    counts["get_bytes"] += path.stat().st_size
            return self.span(key, fn, post=post)
        if key == "suites.run_suite":
            def post(args, result, exc, dt, token):
                if result is not None:
                    entry = self.suites.setdefault(args[0], [0.0, 0])
                    entry[0] += dt
                    entry[1] += result.checked
            return self.span(key, fn, post=post)
        return self.span(key, fn)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict.fromkeys(metric_units(), 0.0)
        del out["trace_overhead_ratio"]
        for key, (calls, self_s) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = self_s
            layer = key.split(".")[0]
            out[f"{layer}.self_s"] += self_s
        c = self.counts
        out["mullineux.roundtrips_per_stage"] = _ratio(c["roundtrips"], self.calls("mullineux.add_l_edge"))
        out["mullineux.repeat_ratio"] = _ratio(c["repeats"], self.calls("mullineux.mullineux"))
        out["classify.witness_discarded_ratio"] = _ratio(c["discarded"], c["specials"])
        out["fock.columns"] = self.calls("fock.canonical_column")
        out["fock.reduction_rounds"] = c["reduction_rounds"]
        out["fock.memo_hits"] = c["memo_hits"]
        out["cache.cache_put.bytes"] = c["put_bytes"]
        out["cache.cache_get.bytes"] = c["get_bytes"]
        out["cache.hit_ratio"] = _ratio(c["cache_hits"], self.calls("cache.load_or_compute"))
        out["cache.rejects"] = c["rejects"]
        for suite, (elapsed, checks) in self.suites.items():
            out[f"suites.{suite}.elapsed_s"] = elapsed
            out[f"suites.{suite}.checks"] = checks
        return out
