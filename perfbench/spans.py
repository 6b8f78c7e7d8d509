"""In-memory spans around calls into fdjam, recorded from outside the package.

A traced run rebinds public functions of fdjam modules to wrappers that
record a span (name, start, end, parent) per call and a few counters.  The
package itself is not changed: every module attribute that holds the
original function object is swapped for the wrapper and restored after the
pass.  A function that a later refactor removes is skipped, so its metrics
read as zero calls instead of crashing the run.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterator


class Tracer:
    """Spans in parallel arrays plus named counters; nothing is written until dump()."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, label: Callable[..., str] | None = None) -> Callable:
        """fn wrapped in a span; label(*args, **kwargs) appends a suffix to the name.

        The body binds everything it touches to locals: it runs once per
        grid cell in the per-cell sweeps, so its cost is the tracing overhead.
        """
        fixed = self._intern(name) if label is None else -1
        intern, stack, clock = self._intern, self._stack, time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            name_id.append(fixed if label is None else intern(f"{name}.{label(*args, **kwargs)}"))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def merge(self, spans: list[list], counters: dict[str, float]) -> None:
        """Append spans recorded in another process ([name, start, end, parent] rows)."""
        base = len(self.start)
        for name, start, end, parent in spans:
            self.name_id.append(self._intern(name))
            self.parent.append(parent + base if parent >= 0 else -1)
            self.start.append(start)
            self.end.append(end)
        for key, value in counters.items():
            self.counters[key] += value

    def rows(self) -> list[list]:
        return [
            [self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self.start))
        ]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (total minus direct children)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            rec = out.setdefault(self.names[self.name_id[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span as name, start, end, parent (tab separated, gzip)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n")


def _arg(fn: Callable, name: str, args: tuple, kwargs: dict, default: Any = None) -> Any:
    """Argument `name` of a call to fn, or default when the signature no longer has it."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return default
    bound.apply_defaults()
    return bound.arguments.get(name, default)


def field_kind(mode: str, quantity: str, fading: bool, pj_per_cell: str) -> str:
    """The benchmark's short name for one build_field configuration."""
    if pj_per_cell == "opt":
        return "opt_coll"
    short = "pair" if mode == "pairwise" else "coll"
    if quantity == "prob-zero":
        return f"pz_{short}"
    return f"fading_{short}" if fading else f"static_{short}"


def _fdjam_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "fdjam" or n.startswith("fdjam."))]


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebind the traced fdjam functions everywhere they are bound; returns the undo."""
    patches: list[tuple[Any, str, Any]] = []
    modules = _fdjam_modules()

    def patch(modname: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        mod = sys.modules.get(modname)
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            return
        new = make(orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    patches.append((m, key, orig))
                    setattr(m, key, new)

    t = tracer
    for modname, attr in (
        ("fdjam.geometry", "gain_fields"),
        ("fdjam.colluding", "opt_jam"),
        ("fdjam.colluding_fading", "secrecy_sample"),
        ("fdjam.pairwise_fading", "secrecy_sample_pair"),
        ("fdjam.fields", "build_optjam_grid"),
        ("fdjam.montecarlo", "sample_matrix"),
    ):
        patch(modname, attr, lambda f, n=f"{modname[6:]}.{attr}": t.wrap(n, f))

    patch(
        "fdjam.fields",
        "build_field",
        lambda f: t.wrap(
            "fields.build_field",
            f,
            lambda *a, **k: field_kind(
                _arg(f, "mode", a, k, ""),
                _arg(f, "quantity", a, k, ""),
                bool(_arg(f, "fading", a, k, False)),
                _arg(f, "pj_per_cell", a, k, ""),
            ),
        ),
    )
    patch("fdjam.fields", "build_region_grid", lambda f: t.wrap("fields.build_region_grid", f))
    patch(
        "fdjam.verify",
        "run_suite",
        lambda f: t.wrap("verify.run_suite", f, lambda *a, **k: str(_arg(f, "name", a, k, "unknown"))),
    )

    def writer(kind: str) -> Callable[[Callable], Callable]:
        def make(f: Callable) -> Callable:
            inner = t.wrap(f"fields.{kind}", f)

            def traced(*args: Any, **kwargs: Any) -> Any:
                out = inner(*args, **kwargs)
                path = _arg(f, "path", args, kwargs)
                if path is not None and os.path.exists(path):
                    t.counters[f"fields.{kind}.bytes"] += os.path.getsize(path)
                return out

            return traced

        return make

    patch("fdjam.fields", "write_csv", writer("write_csv"))
    patch("fdjam.fields", "write_json", writer("write_json"))

    def cond_pair(f: Callable) -> Callable:
        inner = t.wrap("pairwise_fading.cond_prob_zero_pair_array", f)

        def traced(*args: Any, **kwargs: Any) -> Any:
            a_t = _arg(f, "a_t", args, kwargs)
            t.counters["pairwise_fading.cond_prob_zero_pair_array.elems"] += 0 if a_t is None else getattr(a_t, "size", 1)
            return inner(*args, **kwargs)

        return traced

    patch("fdjam.pairwise_fading", "cond_prob_zero_pair_array", cond_pair)

    def draws(f: Callable) -> Callable:
        def counted(*args: Any, **kwargs: Any) -> Iterator:
            for chunk in f(*args, **kwargs):
                t.counters["montecarlo.draw_rows"] += len(chunk)
                yield chunk

        return counted

    patch("fdjam.montecarlo", "exp_chunks", draws)

    def estimate(f: Callable) -> Callable:
        inner = t.wrap("montecarlo.estimate", f)

        def traced(*args: Any, **kwargs: Any) -> Any:
            cfg = _arg(f, "config", args, kwargs)
            t.counters["montecarlo.estimate.samples"] += getattr(cfg, "n_samples", 0)
            fn = _arg(f, "f", args, kwargs)
            if callable(fn):
                bound = inspect.signature(f).bind(*args, **kwargs)
                bound.arguments["f"] = t.wrap("montecarlo.estimate.f", fn)
                return inner(*bound.args, **bound.kwargs)
            return inner(*args, **kwargs)

        return traced

    patch("fdjam.montecarlo", "estimate", estimate)

    def policy(f: Callable) -> Callable:
        def kind(*args: Any, **kwargs: Any) -> str:
            value = getattr(getattr(_arg(f, "policy", args, kwargs), "kind", None), "value", "unknown")
            return {"semi-dynamic": "semi", "general-dynamic": "general", "full-dynamic": "full"}.get(value, value)

        inner = t.wrap("pairwise_fading.policy_prob_zero", f, kind)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if kind(*args, **kwargs) not in ("constant", "semi"):
                return inner(*args, **kwargs)
            before = t.counters["montecarlo.draw_rows"]
            out = inner(*args, **kwargs)
            t.counters["montecarlo.rung_draw_rows"] += t.counters["montecarlo.draw_rows"] - before
            t.counters["montecarlo.rung_requested"] += getattr(_arg(f, "mc", args, kwargs), "n_samples", 0)
            return out

        return traced

    patch("fdjam.pairwise_fading", "policy_prob_zero", policy)

    def undo() -> None:
        for mod, key, orig in reversed(patches):
            setattr(mod, key, orig)

    return undo
