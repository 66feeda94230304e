"""Per-layer counts and self times, from wrappers around the package's API.

``install`` replaces the public functions and methods the per-layer
metrics name with timing wrappers, in every module of the package that
bound them, so the package source stays as it is.  Each wrapped call is a
span; a span's self time is its duration minus the durations of the
wrapped calls it made.  The wrappers cost one to two microseconds per
call, which lands in the caller's self time, so compare self times only
between traced runs.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections.abc import MutableMapping

# (module, owner, attribute, span name); owner None means a module function.
WRAPPED = (
    ("laurent", "LaurentA", "__mul__", "laurent.mul"),
    ("laurent", "LaurentAZ", "__mul__", "laurent.mul"),
    ("laurent", "LaurentA", "__add__", "laurent.add"),
    ("laurent", "LaurentAZ", "__add__", "laurent.add"),
    ("laurent", "LaurentA", "__pow__", "laurent.pow"),
    ("laurent", "LaurentAZ", "__pow__", "laurent.pow"),
    ("laurent", "LaurentAZ", "substitute_z", "laurent.substitute_z"),
    ("laurent", None, "format_poly", "laurent.format_poly"),
    ("diagram", "Diagram", "__init__", "diagram.construct"),
    ("diagram", "Diagram", "switch", "diagram.switch"),
    ("diagram", "Diagram", "smooth", "diagram.smooth"),
    ("diagram", "Diagram", "canonical_code", "diagram.canonical_code"),
    ("diagram", "Diagram", "writhe", "diagram.writhe"),
    ("diagram", "Diagram", "linking_number", "diagram.linking_number"),
    ("diagram", None, "parse_pd", "diagram.parse_pd"),
    ("kauffman", None, "lambda_poly", "kauffman.lambda_poly"),
    ("transfer", None, "g_tau", "transfer.g_tau"),
    ("transfer", None, "check_skein_identity", "transfer.check_skein_identity"),
    ("lmt", None, "lmt_rhs", "lmt.lmt_rhs"),
    ("lmt", None, "check_reversal_writhe", "lmt.check_reversal_writhe"),
    ("lmt", None, "verify_all", "lmt.verify_all"),
    ("braid", None, "braid_closure", "braid.closure"),
)

# Per-layer metrics: name -> (unit, how to read it from one pass's Tracer).
_CALLS = lambda span: lambda t: t.calls.get(span, 0)  # noqa: E731
_SELF = lambda span: lambda t: t.self_s.get(span, 0.0)  # noqa: E731
_COUNT = lambda key: lambda t: t.counts.get(key, 0)  # noqa: E731
PER_LAYER = {
    "laurent.mul_calls": ("count", _CALLS("laurent.mul")),
    "laurent.mul_s": ("s", _SELF("laurent.mul")),
    "laurent.add_calls": ("count", _CALLS("laurent.add")),
    "laurent.add_s": ("s", _SELF("laurent.add")),
    "laurent.pow_calls": ("count", _CALLS("laurent.pow")),
    "laurent.substitute_z_calls": ("count", _CALLS("laurent.substitute_z")),
    "laurent.substitute_z_s": ("s", _SELF("laurent.substitute_z")),
    "laurent.max_terms": ("count", _COUNT("laurent.max_terms")),
    "diagram.construct_calls": ("count", _CALLS("diagram.construct")),
    "diagram.construct_s": ("s", _SELF("diagram.construct")),
    "diagram.switch_calls": ("count", _CALLS("diagram.switch")),
    "diagram.smooth_calls": ("count", _CALLS("diagram.smooth")),
    "diagram.smooth_s": ("s", _SELF("diagram.smooth")),
    "diagram.canonical_code_calls": ("count", _CALLS("diagram.canonical_code")),
    "diagram.canonical_code_s": ("s", _SELF("diagram.canonical_code")),
    "diagram.parse_pd_s": ("s", _SELF("diagram.parse_pd")),
    "diagram.writhe_calls": ("count", _CALLS("diagram.writhe")),
    "diagram.writhe_s": ("s", _SELF("diagram.writhe")),
    "diagram.linking_number_calls": ("count", _CALLS("diagram.linking_number")),
    "diagram.linking_number_s": ("s", _SELF("diagram.linking_number")),
    "kauffman.lambda_poly_calls": ("count", _CALLS("kauffman.lambda_poly")),
    "kauffman.lambda_poly_s": ("s", _SELF("kauffman.lambda_poly")),
    "kauffman.memo_lookups": ("count", _COUNT("kauffman.memo_lookups")),
    "kauffman.memo_hits": ("count", _COUNT("kauffman.memo_hits")),
    "kauffman.memo_hit_ratio": (
        "ratio",
        lambda t: t.counts.get("kauffman.memo_hits", 0)
        / max(1, t.counts.get("kauffman.memo_lookups", 0)),
    ),
    "kauffman.skein_nodes": ("count", _COUNT("kauffman.memo_stores")),
    "kauffman.memo_entries_peak": ("count", _COUNT("kauffman.memo_entries_peak")),
    "transfer.g_tau_calls": ("count", _CALLS("transfer.g_tau")),
    "transfer.g_tau_s": ("s", _SELF("transfer.g_tau")),
    "transfer.orientations_summed": ("count", _COUNT("transfer.orientations_summed")),
    "transfer.check_skein_identity_s": ("s", _SELF("transfer.check_skein_identity")),
    "lmt.lmt_rhs_calls": ("count", _CALLS("lmt.lmt_rhs")),
    "lmt.lmt_rhs_s": ("s", _SELF("lmt.lmt_rhs")),
    "lmt.sublinks_summed": ("count", _COUNT("lmt.sublinks_summed")),
    "lmt.reversal_checks": ("count", _CALLS("lmt.check_reversal_writhe")),
    "lmt.check_reversal_writhe_s": ("s", _SELF("lmt.check_reversal_writhe")),
    "lmt.verify_all_s": ("s", _SELF("lmt.verify_all")),
    "braid.closure_calls": ("count", _CALLS("braid.closure")),
    "braid.closure_s": ("s", _SELF("braid.closure")),
    "cli.output_bytes": ("bytes", _COUNT("cli.output_bytes")),
    "cli.format_s": (
        "s",
        lambda t: t.self_s.get("laurent.format_poly", 0.0) + t.self_s.get("cli.write", 0.0),
    ),
}


class Tracer:
    """Calls, self times and counters of the wrapped spans of one pass.

    While ``span_depth`` is positive, spans up to that nesting depth are
    also kept as (name, start, end, parent index) for the trace file, up
    to ``max_spans`` of them.
    """

    max_spans = 20000

    def __init__(self):
        self.span_depth = 0
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        # CountingMemo proxies by id of the caller's memo dict.
        self.memos: dict[int, "CountingMemo"] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result, args) runs once the span has closed."""
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if len(stack) < self.span_depth and len(spans) < self.max_spans:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1] if stack else -1])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if frame[1] >= 0:
                    spans[frame[1]][1:3] = [t0, t0 + dt]
            if after is not None:
                after(result, args)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        return {name: read(self) for name, (_, read) in PER_LAYER.items()}


class CountingMemo(MutableMapping):
    """A skein memo that counts lookups, hits and stores, writing through.

    Writing through to the caller's dict keeps a memo shared between calls
    (as ``verify_all`` shares one) shared.
    """

    def __init__(self, store: dict, tracer: Tracer):
        self.store = store
        self.tracer = tracer

    # get, `in` and setdefault all go through __getitem__.
    def __getitem__(self, key):
        self.tracer.count("kauffman.memo_lookups")
        value = self.store[key]
        self.tracer.count("kauffman.memo_hits")
        return value

    def __setitem__(self, key, value):
        self.tracer.count("kauffman.memo_stores")
        self.store[key] = value
        self.tracer.peak("kauffman.memo_entries_peak", len(self.store))

    def __delitem__(self, key):
        del self.store[key]

    def __iter__(self):
        return iter(self.store)

    def __len__(self):
        return len(self.store)


PACKAGE = "lmtkauffman"


def _rebind(original, replacement) -> None:
    """Point every module-level name in the package bound to original at replacement."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every entry of WRAPPED in the imported package."""
    def lambda_poly_with_counting_memo(original):
        def call(d, *, memo=None, **kwargs):
            if memo is None and os.environ.get("LMT_NO_MEMO") != "1":
                memo = {}
            if memo is not None:
                # The proxy holds the dict, so its id stays unique while mapped.
                proxy = tracer.memos.get(id(memo))
                if proxy is None:
                    proxy = tracer.memos[id(memo)] = CountingMemo(memo, tracer)
                memo = proxy
            return original(d, memo=memo, **kwargs)

        return functools.wraps(original)(call)

    def terms_peak(result, args):
        terms = getattr(result, "terms", None)
        if terms is not None:
            tracer.peak("laurent.max_terms", len(terms))

    def summed(key):
        return lambda result, args: tracer.count(key, 1 << args[0].num_components)

    after = {
        "laurent.mul": terms_peak,
        "laurent.add": terms_peak,
        "laurent.pow": terms_peak,
        "laurent.substitute_z": terms_peak,
        "transfer.g_tau": summed("transfer.orientations_summed"),
        "lmt.lmt_rhs": summed("lmt.sublinks_summed"),
    }
    for modname, owner, attr, name in WRAPPED:
        module = sys.modules[f"{PACKAGE}.{modname}"]
        holder = module if owner is None else getattr(module, owner)
        original = vars(holder)[attr]
        inner = original
        if name == "kauffman.lambda_poly":
            inner = lambda_poly_with_counting_memo(original)
        wrapped = tracer.wrap(name, inner, after.get(name))
        if owner is None:
            _rebind(original, wrapped)
        else:
            # Operator aliases such as __rmul__ = __mul__ share the wrapper.
            for alias, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, alias, wrapped)
