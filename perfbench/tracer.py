"""Per-layer spans recorded from outside the program.

Each traced function is replaced by a wrapper on every name that resolves to
it: the defining module's attribute and each `from .x import f` binding in
the other algprog modules (calls through `module.f` attribute lookups then
hit the wrapper too).  A wrapper on the defining module alone would miss the
callers that imported the name.

Spans nest because everything runs on one thread; a span's self time is its
duration minus its child spans.  Size probes run outside every span, so their
cost shows only as tracing overhead.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from collections import Counter

#: the runner's clock: CPU time of the (only) thread
_clock = time.thread_time
_KEPT = re.compile(r"kept (\d+) of (\d+) factors")


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for c in poly.terms.values()),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, name_of=None, pre=None, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            enter = _clock()
            span = name_of(args, kwargs) if name_of else name
            state = pre(args, kwargs) if pre else None
            frame = [span, 0.0]
            self._stack.append(frame)
            self._open[span] += 1
            start = _clock()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = _clock()
                self._stack.pop()
                self._open[span] -= 1
                self.calls[span] += 1
                self.self_s[span] += (end - start) - frame[1]
                if done and post:
                    post(state, args, kwargs, result)
                if self._stack:  # the parent's self time excludes all of this
                    self._stack[-1][1] += _clock() - enter
            return result

        return wrapper

    def inside(self, span: str) -> bool:
        return self._open[span] > 0

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced functions of an imported algprog package."""
        modules = [
            m for n, m in sys.modules.items()
            if n == package.__name__ or n.startswith(package.__name__ + ".")
        ]
        for module_name, func_name, hooks in self._targets():
            defining = sys.modules[f"{package.__name__}.{module_name}"]
            original = getattr(defining, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, **hooks)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _targets(self):
        plain: dict = {}
        return [
            ("polycore", "gcd_in_main_var", plain),
            ("polycore", "square_free_part", plain),
            ("resultants", "resultant", {"post": self._resultant_size}),
            ("resultants", "resultant_with_constant", {"post": self._resultant_size}),
            ("defpoly", "defining_polynomial", plain),
            ("defpoly", "reduce_defining", {"pre": _log_length, "post": self._reduction}),
            ("defpoly", "probabilistic_zero_test", plain),
            ("radicals", "eval_numeric", {"name_of": self._eval_caller}),
            ("isolation", "critical_resultants", plain),
            ("isolation", "components", {"name_of": _strategy, "post": self._components}),
            ("isolation", "isolate", plain),
            ("isolation", "merge_components", {"pre": _warning_count, "post": self._merge}),
            ("isolation", "certificate_from_json", plain),
            ("verify", "root_selection", {"pre": self._root_selection}),
            ("verify", "sign_at_root", plain),
            ("verify", "isolate_real_roots", plain),
            ("verify", "selection_matches_f", plain),
            ("verify", "sample_in_component", plain),
            ("verify", "verify_certificate", plain),
            ("verify", "verify_defining", plain),
            ("program", "reformulate", plain),
            ("program", "check_substitution", plain),
            ("program", "baseline_reformulate", plain),
            ("program", "load_program", plain),
            ("program", "emit", plain),
            ("cli", "main", plain),
        ]

    # -- probes ------------------------------------------------------------

    def _resultant_size(self, _state, args, _kwargs, result) -> None:
        p, q, v = args[:3]
        self.maxima["resultants.sylvester_dim_max"] = max(
            self.maxima["resultants.sylvester_dim_max"], p.degree_in(v) + q.degree_in(v)
        )
        self.counts["resultants.out_terms"] += len(result.terms)
        self.maxima["resultants.out_coeff_bits_max"] = max(
            self.maxima["resultants.out_coeff_bits_max"], _coeff_bits(result)
        )

    def _reduction(self, state, args, kwargs, _result) -> None:
        log, before = state
        for entry in (log or [])[before:]:
            if "square-free only" in entry:
                self.counts["defpoly.reduce.fallbacks"] += 1
            kept = _KEPT.search(entry)
            if kept:
                self.counts["defpoly.reduce.kept_factors"] += int(kept.group(1))
                self.counts["defpoly.reduce.candidate_factors"] += int(kept.group(2))

    def _eval_caller(self, _args, _kwargs) -> str:
        if self.inside("defpoly.probabilistic_zero_test"):
            self.counts["radicals.eval_numeric.in_zero_test"] += 1
        caller = sys._getframe(2).f_globals.get("__name__", "").rpartition(".")[2]
        return f"radicals.eval_numeric.from_{caller}"

    def _components(self, _state, args, kwargs, result) -> None:
        self.counts[f"{_strategy(args, kwargs)}.count"] += len(result)

    def _merge(self, before, args, _kwargs, result) -> None:
        if any("merge aborted" in w for w in result.warnings[before:]):
            self.counts["isolation.merge.aborts"] += 1

    def _root_selection(self, _args, _kwargs) -> None:
        if self.inside("verify.verify_certificate"):
            self.counts["verify.root_selection.in_verdicts"] += 1

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, by the names BENCHMARK.json lists."""
        out: dict[str, float] = {}
        for span in self.calls:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        evals = [s for s in self.calls if s.startswith("radicals.eval_numeric.from_")]
        out["radicals.eval_numeric.calls"] = sum(self.calls[s] for s in evals)
        out["radicals.eval_numeric.self_s"] = sum(self.self_s[s] for s in evals)
        out.update(self.maxima)
        out["resultants.out_terms"] = self.counts["resultants.out_terms"]
        reduces = self.calls["defpoly.reduce_defining"]
        out["defpoly.reduce.fallback_share"] = _share(self.counts["defpoly.reduce.fallbacks"], reduces)
        out["defpoly.reduce.kept_factor_share"] = _share(
            self.counts["defpoly.reduce.kept_factors"],
            self.counts["defpoly.reduce.candidate_factors"],
        )
        out["radicals.eval_numeric.per_zero_test"] = _share(
            self.counts["radicals.eval_numeric.in_zero_test"],
            self.calls["defpoly.probabilistic_zero_test"],
        )
        for strategy in ("univariate", "grid", "domain"):
            key = f"isolation.components.{strategy}.count"
            out[key] = self.counts[key]
        out["isolation.merge.abort_share"] = _share(
            self.counts["isolation.merge.aborts"], self.calls["isolation.merge_components"]
        )
        out["verify.root_selection_per_verdict"] = _share(
            self.counts["verify.root_selection.in_verdicts"],
            self.calls["verify.verify_certificate"],
        )
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _strategy(args, kwargs) -> str:
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
    return f"isolation.components.{strategy}"


def _log_length(args, kwargs):
    log = args[5] if len(args) > 5 else kwargs.get("log")
    return log, len(log) if log is not None else 0


def _warning_count(args, kwargs) -> int:
    return len(args[0].warnings)
