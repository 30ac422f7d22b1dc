"""Span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's side of each layer boundary: a
calling module's name for another layer (``cli.simulate``,
``simulate.sampler``, ``analytic.integrate``, ``density._log_bessel_vec``,
...) is replaced by a wrapper that opens a span, calls the original and
closes the span. Nothing under ``src/`` changes, and the program only sees
the wrappers in a process that installed them.

A span is ``(layer, name, parent, start, end, entry)``. ``entry`` marks a
call into a layer's public API, as opposed to a callback such as a
quadrature integrand, so that ``<layer>.calls`` counts API calls only. A
span's self time is its duration minus the durations of its children;
summed over all spans that equals the summed duration of the root spans,
so the un-spanned remainder of a process is its wall time minus that sum.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "simulate", "sampler", "streams", "analytic", "density", "quadrature", "specfun")


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, layer: str, name: str, fn, count=None, entry: bool = True):
        """Return ``fn`` wrapped in a span of ``layer``.

        ``count(counts, args, kwargs)`` runs before the call and updates the
        layer's counters from the arguments.
        """
        spans = self.spans
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(counts, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{layer}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, name, parent, start, end, entry)

        return traced

    def proxy(self, layer: str, module: types.ModuleType, counters: dict | None = None):
        """A stand-in for ``module`` whose public functions are wrapped.

        Classes, constants and private names pass through unchanged, so
        ``isinstance`` checks and constants read through the stand-in work.
        """
        counters = counters or {}
        ns = types.SimpleNamespace()
        for name, value in vars(module).items():
            if (
                isinstance(value, types.FunctionType)
                and not name.startswith("_")
                and value.__module__ == module.__name__
            ):
                value = self.wrap(layer, name, value, counters.get(name))
            setattr(ns, name, value)
        return ns

    def summary(self, wall_s: float) -> dict:
        """Per-layer self time, API calls, inclusive time per function, counters."""
        n = len(self.spans)
        child_time = [0.0] * n
        for layer, name, parent, start, end, entry in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        functions: dict = defaultdict(lambda: [0, 0.0])
        rooted = 0.0
        for i, (layer, name, parent, start, end, entry) in enumerate(self.spans):
            duration = end - start
            layers[layer]["self_s"] += duration - child_time[i]
            if entry:
                layers[layer]["calls"] += 1
                fn = functions[f"{layer}.{name}"]
                fn[0] += 1
                fn[1] += duration
            if parent < 0:
                rooted += duration
        return {
            "wall_s": wall_s,
            "unspanned_s": wall_s - rooted,
            "layers": layers,
            "functions": {key: {"calls": c, "total_s": t} for key, (c, t) in functions.items()},
            "counts": dict(self.counts),
        }

    def dump_spans(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tname\tparent\tstart\tend\tentry\n")
            for layer, name, parent, start, end, entry in self.spans:
                fh.write(f"{layer}\t{name}\t{parent}\t{start!r}\t{end!r}\t{int(entry)}\n")


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_draws(per_coord_bytes: int, count_position: int | None):
    def count(counts, args, kwargs):
        k = _arg(args, kwargs, 0, "k")
        draws = 1 if count_position is None else _arg(args, kwargs, count_position, "count")
        counts["sampler.coords"] += draws * k
        counts["sampler.bytes_computed"] += per_coord_bytes * draws * k

    return count


def _count_reps(position: int):
    def count(counts, args, kwargs):
        counts["simulate.reps"] += _arg(args, kwargs, position, "reps")

    return count


def _count_one(key: str):
    def count(counts, args, kwargs):
        counts[key] += 1

    return count


def _count_bessel(counts, args, kwargs):
    # called as _log_bessel_vec(order, x) with a scalar order and an array x
    counts["specfun.bessel_calls"] += getattr(args[1], "size", 1)


def count_pool_starts(counts: Counter, simulate) -> None:
    """Count ``ProcessPoolExecutor`` constructions made by ``simulate``."""
    pool = simulate.ProcessPoolExecutor

    def counted(*args, **kwargs):
        counts["simulate.pool_starts"] += 1
        return pool(*args, **kwargs)

    simulate.ProcessPoolExecutor = counted


def install(tracer: Tracer, mm: dict) -> None:
    """Wrap every cross-layer name the package looks up.

    ``mm`` maps module names (``cli``, ``simulate``, ...) to the imported
    modules. Bytes per coordinate: a clone batch materialises two
    ``count x k`` float64 normal arrays, a ball batch one.
    """
    cli, simulate, sampler, streams = mm["cli"], mm["simulate"], mm["sampler"], mm["streams"]
    analytic, density = mm["analytic"], mm["density"]

    cli.analytic = tracer.proxy("analytic", analytic)
    cli.simulate = tracer.proxy(
        "simulate",
        simulate,
        {
            "estimate_d_ip": _count_reps(2),
            "estimate_d_ai": _count_reps(3),
            "estimate_group_win_rate": _count_reps(3),
            "evaluate_seq_policy": _count_reps(3),
        },
    )
    simulate.sampler = tracer.proxy(
        "sampler",
        sampler,
        {
            "draw_clone_batch": _count_draws(16, 1),
            "sample_unit_ball_batch": _count_draws(8, 1),
            "sample_gaussian_vector": _count_draws(8, None),
        },
    )
    key_cls = streams.StreamKey
    simulate.StreamKey = tracer.wrap("streams", "StreamKey", key_cls)
    key_cls.child = tracer.wrap("streams", "child", key_cls.child)
    key_cls.generator = tracer.wrap(
        "streams", "generator", key_cls.generator, _count_one("streams.keys")
    )
    count_pool_starts(tracer.counts, simulate)

    gamma = _count_one("specfun.gamma_calls")
    analytic.specfun = tracer.proxy(
        "specfun", mm["specfun"], {"ln_gamma": gamma, "log_reg_lower_inc_gamma": gamma}
    )
    density._log_bessel_vec = tracer.wrap(
        "specfun", "log_bessel_i", density._log_bessel_vec, _count_bessel
    )
    for caller, module in (("analytic", analytic), ("density", density)):
        module.integrate = _traced_integrate(tracer, caller, module.integrate)


def _traced_integrate(tracer: Tracer, caller: str, integrate):
    # the integrand runs caller code, so its span belongs to the caller's layer
    span = tracer.wrap("quadrature", "integrate", integrate)
    evals = _count_one("quadrature.integrand_evals")

    @functools.wraps(integrate)
    def traced(f, a, b, **kwargs):
        return span(tracer.wrap(caller, "integrand", f, evals, entry=False), a, b, **kwargs)

    return traced
