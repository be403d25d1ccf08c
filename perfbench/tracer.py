"""Run-time spans around the layers of eudoxos, installed from outside.

``Tracer.install`` replaces every module-level function of each eudoxos
layer module, and every binding of that function in the other eudoxos
modules and the package namespace, with a wrapper that records a span
(name, start, end, parent) and charges the span's self time to the layer.
``RealEnclosure.at``, the refine callables given to ``RealEnclosure``,
``DigitStream.digit`` and ``Polygon.__init__`` get spans too, and the
oracles returned by ``ratios._side_fn`` are wrapped as cut queries.
``uninstall`` restores every original object, so untraced code runs with
no wrapper at all.  The library source is never edited.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = (
    "intervals",
    "archimedes",
    "enclosures",
    "kinds",
    "ratios",
    "positional",
    "polygons",
    "regions",
    "angles",
    "cli",
)


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.span_count = 0
        self.op = 0
        self.category = ""
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # at_hits, refines, unresolved, ...
        self.by_category: Counter = Counter()  # (category, counter) -> n
        self._cut_queries_at_begin = 0
        self._patches: list[tuple] = []
        self.active = False

    # -- spans ----------------------------------------------------------------

    def span(self, fn, layer: str, name: str, after=None):
        """Wrap fn so that each call records one span charged to layer."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        cap = self.span_cap
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            tracer.span_count += 1
            sid = tracer.span_count
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < cap:
                    spans.append((tracer.op, sid, parent, name, t0, t1))
            if after is not None:
                result = after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self, op: int, category: str) -> None:
        self.op = op
        self.category = category
        self._cut_queries_at_begin = self.counts["cut_queries"]

    def end_op(self) -> None:
        self.by_category[(self.category, "ops")] += 1
        self.by_category[(self.category, "cut_queries")] += (
            self.counts["cut_queries"] - self._cut_queries_at_begin
        )

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        self.active = True
        package = importlib.import_module("eudoxos")
        modules = {name: importlib.import_module(f"eudoxos.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    after = self._after_hooks(layer, attr)
                    wrapped[id(obj)] = self.span(obj, layer, f"{layer}.{attr}", after)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

        enc_cls = modules["enclosures"].RealEnclosure
        self._patch(enc_cls, "__init__", self._init_hook(enc_cls.__init__))
        self._patch(enc_cls, "at", self.span(self._at_hook(enc_cls.at), "enclosures", "enclosures.at"))
        stream_cls = modules["positional"].DigitStream
        self._patch(stream_cls, "digit", self.span(stream_cls.digit, "positional", "positional.digit"))
        poly_cls = modules["polygons"].Polygon
        self._patch(poly_cls, "__init__", self.span(poly_cls.__init__, "polygons", "polygons.Polygon"))

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _after_hooks(self, layer: str, attr: str):
        counts = self.counts
        if (layer, attr) == ("kinds", "compare"):
            def after(result):
                if result.name == "INDISTINGUISHABLE":
                    counts["unresolved"] += 1
                return result
            return after
        if (layer, attr) == ("ratios", "_side_fn"):
            def after(oracle):
                inner = self.span(oracle, "ratios", "ratios.cut_query")

                def counted(m, n):
                    counts["cut_queries"] += 1
                    return inner(m, n)
                return counted
            return after
        return None

    def _at_hook(self, at):
        counts = self.counts

        def at_counted(enc, depth):
            cache = getattr(enc, "_cache", None)
            before = len(cache) if cache is not None else -1
            result = at(enc, depth)
            if cache is not None and len(cache) == before:
                counts["at_hits"] += 1
            return result
        return at_counted

    def _init_hook(self, init):
        counts = self.counts
        tracer = self

        def init_counted(enc, refine, exact=None, name=""):
            target = getattr(refine, "__wrapped__", refine)
            module = getattr(target, "__module__", "") or ""
            layer = module.rsplit(".", 1)[-1] if module.startswith("eudoxos.") else "bench"
            inner = tracer.span(refine, layer, "enclosures.refine")

            def refine_counted(depth):
                # Enclosures outlive a traced round (module caches keep
                # some); once uninstalled, their refines run untraced.
                if not tracer.active:
                    return refine(depth)
                counts["refines"] += 1
                counts[f"refines:{name}"] += 1
                return inner(depth)
            init(enc, refine_counted, exact, name)
        return init_counted

    # -- output -------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "by_category": {f"{c}|{k}": v for (c, k), v in self.by_category.items()},
            "span_count": self.span_count,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "a") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps(
                    {"op": op, "id": sid, "parent": parent, "name": name,
                     "start": t0, "end": t1}) + "\n")


def merge(total: dict, part: dict) -> dict:
    """Sum two snapshots (used to fold CLI subprocess traces together)."""
    out = {"span_count": total.get("span_count", 0) + part.get("span_count", 0)}
    for key in ("self_s", "calls", "counts", "by_category"):
        acc = dict(total.get(key, {}))
        for k, v in part.get(key, {}).items():
            acc[k] = acc.get(k, 0) + v
        out[key] = acc
    return out
