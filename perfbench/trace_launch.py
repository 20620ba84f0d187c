"""Run one wzwkit CLI query with a span around each traced public function.

Usage (with the package's src directory on PYTHONPATH):

    python perfbench/trace_launch.py SPANS_OUT QUERY_ID CLI_ARG...

Every module-level binding of each function in TRACED is replaced by one
wrapper, so aliases such as ``cli.modular_data``, ``cache.modular_data_from_doc``
or ``twining.kac_peterson_S`` are traced too.  Spans carry an id, a parent id
and the query id; they are kept in memory and written to SPANS_OUT as JSON
when the query ends, together with counts taken from return values and from
the cache directory.  Standard output and the exit code are the CLI's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter
from pathlib import Path

TRACED: dict[str, tuple[str, ...]] = {
    "affine": ("integrable_weights", "weyl_group", "kac_peterson_S", "verlinde_fusion",
               "conjugation_from_S", "modular_data", "modular_data_to_doc",
               "modular_data_from_doc"),
    "cache": ("cache_lookup", "cache_store"),
    "cli": ("run",),
    "picard": ("find_simple_currents", "charge_table", "verify_quadratic"),
    "schellekens": ("classify_algebras", "partition_function", "verify_modular_invariance"),
    "boundary": ("orbit_decomposition", "count_boundary_conditions", "epsilon_form"),
    "bimodule": ("build_bimodule_ring", "build_pointed_bimodule_ring", "bimodule_picard",
                 "kramers_wannier_candidates"),
    "twining": ("twining_S", "extract_phi", "verify_conjecture"),
    "acceptance": ("run_acceptance",),
}

CACHE_COUNTS = ("cache.hits", "cache.misses", "cache.corrupt", "cache.bytes_read",
                "cache.bytes_written")


def _nonzero(arr) -> int:
    return int((arr != 0).sum())


# Size counts taken from the value a traced function returns.
SIZES = {
    "affine.integrable_weights": ("affine.objects", len),
    "affine.weyl_group": ("affine.weyl_elements", len),
    "affine.verlinde_fusion": ("affine.fusion_nnz", _nonzero),
    "picard.find_simple_currents": ("picard.order", len),
    "schellekens.classify_algebras": ("schellekens.algebras", len),
    "bimodule.build_bimodule_ring": ("bimodule.ring_rank", len),
    "bimodule.build_pointed_bimodule_ring": ("bimodule.ring_rank", len),
    "twining.verify_conjecture": ("twining.conjecture_checks", lambda rep: len(rep.checks)),
}
SIZE_COUNTS = tuple(dict.fromkeys(metric for metric, _ in SIZES.values()))


class Tracer:
    """Spans and counts of one query, kept in memory until the query ends."""

    def __init__(self, query_id: str):
        self.query_id = query_id
        self.spans: list[list] = []  # [id, parent id, query id, name, start, end]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        if observe is None and name in SIZES:
            observe = _sized(*SIZES[name])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None,
                    self.query_id, name, time.perf_counter(), None]
            self.spans.append(span)
            self._open.append(span[0])
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(self.counts, fn, args, kwargs)
            finally:
                span[5] = time.perf_counter()
                self._open.pop()

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"query": self.query_id, "spans": self.spans,
                                    "counts": dict(self.counts)}))


def _sized(metric: str, size):
    def observe(counts, fn, args, kwargs):
        result = fn(*args, **kwargs)
        counts[metric] += size(result)
        return result
    return observe


def _observe_lookup(counts, fn, args, kwargs):
    from wzwkit.cache import cache_key

    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    path = Path(a["cache_dir"]) / cache_key(a["series"], a["rank"], a["level"])
    size = path.stat().st_size if path.is_file() else None
    result = fn(*args, **kwargs)
    if result is not None:
        counts["cache.hits"] += 1
        counts["cache.bytes_read"] += size
    elif size is not None:
        counts["cache.corrupt"] += 1
    else:
        counts["cache.misses"] += 1
    return result


def _observe_store(counts, fn, args, kwargs):
    path = fn(*args, **kwargs)
    counts["cache.bytes_written"] += Path(path).stat().st_size
    return path


_OBSERVERS = {"cache.cache_lookup": _observe_lookup, "cache.cache_store": _observe_store}


def install(tracer: Tracer) -> None:
    """Import every wzwkit module and rebind each traced function everywhere."""
    import wzwkit

    for info in pkgutil.iter_modules(wzwkit.__path__):
        importlib.import_module(f"wzwkit.{info.name}")
    modules = [m for n, m in sorted(sys.modules.items()) if n == "wzwkit" or n.startswith("wzwkit.")]
    for module_name, names in TRACED.items():
        home = sys.modules[f"wzwkit.{module_name}"]
        for name in names:
            original = getattr(home, name)
            wrapper = tracer.wrap(f"{module_name}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_out, query_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer(query_id)
    install(tracer)
    from wzwkit import cli

    try:
        return cli.run(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
