"""Per-layer counts and self times, measured from outside the package.

``Tracer.install`` replaces the public functions of each module with a
span wrapper, in every ``transfinite`` module namespace that imported
them (``compare`` lives in ``ordinal``, ``arithmetic`` and ``mains``).
``lub`` reaches ``compare`` through ``Ordinal.__lt__``, which looks the
name up in ``ordinal``, so that path is covered too.

Millions of ``compare`` calls are too many to keep one span each, so
spans are aggregated per name.  A stack of open spans carries each
span's child time, and a span's self time is its duration minus the time
of the spans it opened.  Samples taken inside a supremum run code of the
layer that asked for the supremum, so their time is charged to the
nearest open ``synthesis`` or ``reference`` span rather than to ``lub``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Tuple

import transfinite as tf

# (module, function, span name); the span name's first part is the layer.
TARGETS = (
    ("ordinal", "compare", "ordinal.compare"),
    ("ordinal", "fundamental_sequence", "ordinal.fundamental_sequence"),
    ("arithmetic", "add", "arithmetic.add"),
    ("arithmetic", "mul", "arithmetic.mul"),
    ("arithmetic", "pow_", "arithmetic.pow_"),
    ("lub", "sample_and_infer", "lub.sup"),
    ("lub", "classify_lub", "lub.classify"),
    ("lub", "infer_lub", "lub.infer"),
    ("synthesis", "synth", "synthesis.synth"),
    ("synthesis", "naive_ext", "synthesis.naive_ext"),
    ("mains", "candidate_lattice", "mains.candidate_lattice"),
    ("mains", "enumerate_main_numbers", "mains.enumerate"),
    ("mains", "is_main_number", "mains.is_main_number"),
    ("hyper", "hyper", "hyper.hyper"),
    ("hyper", "left_hyper", "hyper.left_hyper"),
    ("notation", "parse", "notation.parse"),
    ("notation", "eval_expr", "notation.eval_expr"),
    ("notation", "format_ordinal", "notation.format_ordinal"),
    ("reference", "reference_eval", "reference.reference_eval"),
    ("cli", "main", "cli.main"),
)

LEVELS = (1, 2, 3, 4)
RULES = tuple(rule.value for rule in tf.LubInference) + ("no-pattern",)
SUP_DEPTHS = 8  # the last bucket counts this depth and deeper


class Tracer:
    def __init__(self):
        # Each open span is [name, child seconds]; the root frame is a sentinel.
        self.stack: list = [["", 0.0]]
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self.sup_depth = 0
        self.memo = None
        self._saved: list = []

    # -- spans ---------------------------------------------------------------

    def span(self, fn: Callable, name, observe=None, counted: bool = True) -> Callable:
        """Wrap fn in a span; name may be a function of the call's args.

        observe(args, kwargs, result, error) runs when the call ends.
        """
        stack, calls = self.stack, self.calls
        self_s, total_s = self.self_s, self.total_s
        clock = time.perf_counter
        naming = name if callable(name) else (lambda args, _name=name: _name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = naming(args)
            if counted:
                calls[key] += 1
            frame = [key, 0.0]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                self_s[key] += elapsed - frame[1]
                total_s[key] += elapsed
                if observe is not None:
                    observe(args, kwargs, result, error)

        return wrapper

    def _compare(self, fn: Callable) -> Callable:
        # The hot path: a plain span plus the same-object count, inlined.
        stack, calls, count = self.stack, self.calls, self.count
        self_s, total_s = self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def compare(x, y):
            calls["ordinal.compare"] += 1
            if x is y:
                count["ordinal.compare.same"] += 1
            frame = ["ordinal.compare", 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(x, y)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                self_s["ordinal.compare"] += elapsed - frame[1]
                total_s["ordinal.compare"] += elapsed

        return compare

    def _sup(self, fn: Callable) -> Callable:
        spanned = self.span(fn, "lub.sup")

        @functools.wraps(fn)
        def sample_and_infer(eval_at, lam, budget):
            self.sup_depth += 1
            self.count[f"lub.sup_depth.{min(self.sup_depth, SUP_DEPTHS)}"] += 1
            owner = next((name for name, _ in reversed(self.stack)
                          if name.startswith(("synthesis.", "reference."))), "")

            def sample(gamma):
                self.count["lub.samples"] += 1
                return eval_at(gamma)

            try:
                return spanned(self.span(sample, owner, counted=False), lam, budget)
            finally:
                self.sup_depth -= 1

        return sample_and_infer

    def pause(self, seconds: float) -> None:
        """Charge time spent outside the package (a calibration slice) to
        the innermost open span as child time, so no self time holds it."""
        self.stack[-1][1] += seconds

    # -- outcomes ------------------------------------------------------------

    def _rule(self, args, kwargs, result, error):
        if error is None:
            rule = result[1].value
        elif isinstance(error, tf.NotRepresentable):
            rule = tf.LubInference.TOWER_GROWTH.value
        elif isinstance(error, tf.NoPatternError):
            rule = "no-pattern"
        else:
            return
        self.count[f"lub.rule.{rule}"] += 1

    def _synth_outcome(self, args, kwargs, result, error):
        if isinstance(error, tf.BudgetExceeded):
            self.count["synthesis.refused"] += 1
        elif isinstance(error, tf.NotRepresentable):
            self.count["synthesis.not_representable"] += 1

    def _hyper_outcome(self, args, kwargs, result, error):
        if isinstance(error, tf.BudgetExceeded):
            self.count["hyper.refused"] += 1

    def _mains_done(self, args, kwargs, result, error):
        # The memo enumerate_main_numbers shares across its synth calls
        # is read once the scan is over.
        if self.memo is not None:
            self.count["synthesis.memo_entries"] += len(self.memo)
            self.memo = None
        if result is not None:
            self.count["mains.candidates"] += result.candidates_scanned

    def _mains_synth(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def synth(*args, **kwargs):
            self.count["mains.synth_calls"] += 1
            self.memo = kwargs.get("memo", self.memo)
            return fn(*args, **kwargs)

        return synth

    # -- installation ----------------------------------------------------------

    def _wrappers(self) -> Dict[int, Tuple[Callable, Callable]]:
        """id(original) -> (original, wrapper)."""
        special = {
            "lub.sup": self._sup,
            "ordinal.compare": self._compare,
            "lub.classify": lambda fn: self.span(fn, "lub.classify", self._rule),
            "synthesis.synth": lambda fn: self.span(
                fn, lambda args: f"synthesis.synth.L{args[0]}", self._synth_outcome),
            "hyper.hyper": lambda fn: self.span(fn, "hyper.hyper", self._hyper_outcome),
            "hyper.left_hyper": lambda fn: self.span(
                fn, "hyper.left_hyper", self._hyper_outcome),
            "mains.enumerate": lambda fn: self.span(fn, "mains.enumerate", self._mains_done),
        }
        out = {}
        for module, attr, name in TARGETS:
            fn = getattr(sys.modules[f"transfinite.{module}"], attr)
            make = special.get(name, lambda f, _name=name: self.span(f, _name))
            out[id(fn)] = (fn, make(fn))
        return out

    def install(self) -> None:
        wrappers = self._wrappers()
        synth = sys.modules["transfinite.synthesis"].synth
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "transfinite" and not mod_name.startswith("transfinite."):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is None or pair[0] is not value:
                    continue
                wrapper = pair[1]
                if mod_name == "transfinite.mains" and value is synth:
                    wrapper = self._mains_synth(wrapper)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- metrics -----------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        calls, self_s, count = self.calls, self.self_s, self.count

        def layer_self(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        sups = calls["lub.sup"]
        classifies = calls["lub.classify"]
        out: Dict[str, Tuple[float, str]] = {
            "ordinal.compare.calls": (calls["ordinal.compare"], "count"),
            "ordinal.compare.same_frac": (
                ratio(count["ordinal.compare.same"], calls["ordinal.compare"]), "fraction"),
            "ordinal.compare.self_s": (self_s["ordinal.compare"], "s"),
            "ordinal.fundamental_sequence.calls": (calls["ordinal.fundamental_sequence"], "count"),
            "ordinal.fundamental_sequence.self_s": (self_s["ordinal.fundamental_sequence"], "s"),
        }
        for op in ("add", "mul", "pow_"):
            out[f"arithmetic.{op}.calls"] = (calls[f"arithmetic.{op}"], "count")
            out[f"arithmetic.{op}.self_s"] = (self_s[f"arithmetic.{op}"], "s")
        out.update({
            "lub.sup.calls": (sups, "count"),
            "lub.samples": (count["lub.samples"], "count"),
            "lub.samples_per_sup": (ratio(count["lub.samples"], sups), "ratio"),
            "lub.classify.calls": (classifies, "count"),
            "lub.classify_per_sup": (ratio(classifies, sups), "ratio"),
        })
        for rule in RULES:
            out[f"lub.rule.{rule}"] = (count[f"lub.rule.{rule}"], "count")
        for depth in range(1, SUP_DEPTHS + 1):
            out[f"lub.sup_depth.{depth}.calls"] = (count[f"lub.sup_depth.{depth}"], "count")
        out["lub.self_s"] = (layer_self("lub."), "s")
        for level in LEVELS:
            out[f"synthesis.synth.L{level}.calls"] = (calls[f"synthesis.synth.L{level}"], "count")
            out[f"synthesis.synth.L{level}.self_s"] = (self_s[f"synthesis.synth.L{level}"], "s")
        out.update({
            "synthesis.naive_ext.self_s": (self_s["synthesis.naive_ext"], "s"),
            "synthesis.memo_entries": (count["synthesis.memo_entries"], "count"),
            "synthesis.refused": (count["synthesis.refused"], "count"),
            "synthesis.not_representable": (count["synthesis.not_representable"], "count"),
            "mains.candidate_lattice.s": (self.total_s["mains.candidate_lattice"], "s"),
            "mains.synth_calls_per_candidate": (
                ratio(count["mains.synth_calls"], count["mains.candidates"]), "ratio"),
            "mains.self_s": (self_s["mains.enumerate"] + self_s["mains.is_main_number"], "s"),
            "hyper.calls": (calls["hyper.hyper"] + calls["hyper.left_hyper"], "count"),
            "hyper.self_s": (layer_self("hyper."), "s"),
            "hyper.refused": (count["hyper.refused"], "count"),
            "notation.parse.self_s": (self_s["notation.parse"], "s"),
            "notation.eval_expr.self_s": (self_s["notation.eval_expr"], "s"),
            "notation.format_ordinal.self_s": (self_s["notation.format_ordinal"], "s"),
            "reference.reference_eval.calls": (calls["reference.reference_eval"], "count"),
            "reference.reference_eval.self_s": (self_s["reference.reference_eval"], "s"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
        })
        unknown = {k for k in calls if k.startswith("synthesis.synth.L")} - {
            f"synthesis.synth.L{level}" for level in LEVELS}
        if unknown:
            raise ValueError(f"synth levels outside {LEVELS}: {sorted(unknown)}")
        return out


def untraced() -> bool:
    """True when no public function of the package is wrapped."""
    return not any(
        hasattr(getattr(sys.modules[f"transfinite.{module}"], attr), "__wrapped__")
        for module, attr, _ in TARGETS
    )
