"""Per-layer spans and counters, taken by wrapping seqboost's public functions.

Nothing in the program changes.  ``install`` replaces each traced function in
every ``seqboost`` module namespace that binds it, and each traced method on
its class; ``uninstall`` puts the originals back.  Timed layers record a span
(name, start, end, parent span) for their outermost call only, so recursion
and re-entry are not counted twice; the hottest scalar calls are only counted.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

# Timed layers: inclusive seconds per unit are reported as "<name>_s", and
# calls as "<name>_calls" for those in CALL_COUNTS.
TIMED = (
    "corpus.load",
    "models.fit",
    "models.log_loss",
    "boost.propose",
    "distinguish.advantage",
    "exact.domain",
    "exact.enumerate",
    "exact.divergence",
    "exact.advantage_exact",
    "checks.suites",
    "serialize.dump",
    "serialize.load",
)
CALL_COUNTS = ("models.log_loss", "boost.propose", "distinguish.advantage")
COUNTS = (
    "corpus.tokens",
    "models.base_cond_calls",
    "boost.cond_calls",
    "boost.rounds",
    "distinguish.step_calls",
    "exact.enumerate_cond_calls",
    "checks.instances",
    "serialize.bytes",
)


class Tracer:
    def __init__(self):
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []
        self._open: list[int] = []
        self._active: Counter = Counter()
        self._in_reweighted = 0
        self._restore: list = []

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()
        self.spans = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if name in CALL_COUNTS:
                tracer.counts[name + "_calls"] += 1
            if tracer._active[name]:
                return fn(*args, **kwargs)
            tracer._active[name] += 1
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._open[-1] if tracer._open else -1
            tracer._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                tracer._active[name] -= 1
                tracer.spans[index] = (name, start, end, parent)
                tracer.seconds[name] += end - start
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _base_cond(self, fn):
        tracer, counts = self, self.counts

        def wrapper(model, prefix):
            counts["models.base_cond_calls"] += 1
            if tracer._in_reweighted:
                counts["boost.cond_misses"] += 1
            elif tracer._active["exact.enumerate"]:
                counts["exact.enumerate_cond_calls"] += 1
            return fn(model, prefix)

        return wrapper

    def _reweighted_cond(self, fn):
        tracer, counts = self, self.counts

        def wrapper(model, prefix):
            counts["boost.cond_calls"] += 1
            if tracer._active["exact.enumerate"] and not tracer._in_reweighted:
                counts["exact.enumerate_cond_calls"] += 1
            tracer._in_reweighted += 1
            try:
                return fn(model, prefix)
            finally:
                tracer._in_reweighted -= 1

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch_function(self, module, attr, make):
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "seqboost"]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._restore.append((cls, attr, original))

    def install(self, sb) -> None:
        counts = self.counts

        def tokens(corpus_and_vocab, args):
            counts["corpus.tokens"] += sum(s.true_length for s in corpus_and_vocab[0].sequences)

        def rounds(model_and_trace, args):
            trace = model_and_trace[1]
            counts["boost.rounds"] += len(trace.records) - (trace.termination == "indistinguishable")

        def instances(results, args):
            counts["checks.instances"] += sum(r.instances for r in results)

        def written(result, args):
            counts["serialize.bytes"] += os.path.getsize(args[1])

        t = self._timed
        self._patch_function(sb.corpus, "load_corpus", lambda f: t("corpus.load", f, tokens))
        self._patch_function(sb.models, "ngram_mle_fit", lambda f: t("models.fit", f))
        self._patch_function(sb.models, "log_loss", lambda f: t("models.log_loss", f))
        self._patch_function(sb.boost, "run_boost", lambda f: t("boost.run", f, rounds))
        self._patch_function(sb.distinguish, "generalized_advantage",
                             lambda f: t("distinguish.advantage", f))
        self._patch_function(sb.exact, "all_sequences", lambda f: t("exact.domain", f))
        self._patch_function(sb.exact, "enumerate_joint", lambda f: t("exact.enumerate", f))
        for name in ("kl_divergence", "cross_entropy", "total_variation"):
            self._patch_function(sb.exact, name, lambda f: t("exact.divergence", f))
        self._patch_function(sb.distinguish, "advantage_exact",
                             lambda f: t("exact.advantage_exact", f))
        self._patch_function(sb.checks, "default_suites", lambda f: t("checks.suites", f, instances))
        self._patch_function(sb.serialize, "save_model", lambda f: t("serialize.dump", f, written))
        self._patch_function(sb.serialize, "load_model", lambda f: t("serialize.load", f))
        self._patch_method(sb.StepDistinguisher, "__call__",
                           lambda f: self._counted("distinguish.step_calls", f))
        for cls in vars(sb.boost).values():
            if (isinstance(cls, type) and "propose" in cls.__dict__ and cls.__module__ == "seqboost.boost"
                    and not getattr(cls, "_is_protocol", False)):
                self._patch_method(cls, "propose", lambda f: t("boost.propose", f))
        for mod in (sb.models, sb.boost, sb.exact):
            for cls in vars(mod).values():
                if (isinstance(cls, type) and issubclass(cls, sb.SequentialModel)
                        and "next_token_dist" in cls.__dict__ and cls.__module__ == mod.__name__):
                    make = self._reweighted_cond if cls is sb.ReweightedModel else self._base_cond
                    self._patch_method(cls, "next_token_dist", make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results ----------------------------------------------------------

    def unit_metrics(self) -> dict[str, float]:
        """Per-layer values of the unit since the last reset."""
        out = {f"{name}_s": self.seconds[name] for name in TIMED}
        for name in CALL_COUNTS:
            out[name + "_calls"] = self.counts[name + "_calls"]
        for name in COUNTS:
            out[name] = self.counts[name]
        calls = self.counts["boost.cond_calls"]
        out["boost.cond_hit_ratio"] = 1.0 - self.counts["boost.cond_misses"] / calls if calls else 0.0
        return out

    def self_seconds(self) -> dict[str, float]:
        """Each layer's self time: its spans' durations minus their child spans'."""
        own = Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own)
