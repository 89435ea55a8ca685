"""One traced CLI job: ``python traced_job.py SPANS_PATH [equisyz flags...]``.

Wraps functions of the program by module attribute, runs ``equisyz.cli``'s
``main`` exactly as ``python -m equisyz.cli`` would, and writes the spans,
counters and cache statistics to SPANS_PATH as JSON when the job ends.
The report on stdout is the untraced one, byte for byte; nothing is
written to stdout or stderr by the tracing.

A span is [name, start, end, parent index]; spans are kept in memory and
written once.  A target missing from the program is listed as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute path); span name is "<module tail>.<path>".
# The cli names are the ones run_job and main call through cli's globals.
TARGETS = (
    ("equisyz.cli", "parse_arrangement"),
    ("equisyz.cli", "run_job"),
    ("equisyz.cli", "render_report"),
    ("equisyz.cli", "polymatroid_of"),
    ("equisyz.cli", "p_polynomial"),
    ("equisyz.cli", "hilbert_product"),
    ("equisyz.cli", "betti_from_series"),
    ("equisyz.cli", "regularity"),
    ("equisyz.cli", "transpose_table"),
    ("equisyz.cli", "_intersection_series"),
    ("equisyz.cli", "_oracle_section"),
    ("equisyz.cli", "character_to_schur"),
    ("equisyz.cli", "product_ideal_character"),
    ("equisyz.cli", "wedge_ideal_character"),
    ("equisyz.cli", "intersection_ideal_character"),
    ("equisyz.arrangements", "intersect"),
    ("equisyz.schur", "SchurSeries.__mul__"),
    ("equisyz.oracle", "_Echelon.__init__"),
    ("equisyz.oracle", "_Echelon.add"),
    ("equisyz.oracle", "from_weight_multiplicities"),
)

# functools.cache tables whose misses count distinct evaluations.
CACHES = (
    ("equisyz.schur", "_pair_product"),
    ("equisyz.partitions", "lr_coefficient"),
    ("equisyz.partitions", "kostka_number"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if name == "oracle._Echelon.add" and result:
                counts["rows_kept"] = counts.get("rows_kept", 0) + 1
            elif name == "cli.hilbert_product":
                counts["hilbert_terms"] = counts.get("hilbert_terms", 0) + len(result.coeffs)
            return result

        return traced

    def install(self):
        for module_name, path in TARGETS:
            name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            except (ImportError, AttributeError):
                self.absent.append(name)

    def cache_misses(self) -> dict:
        out = {}
        for module_name, attr in CACHES:
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            try:
                fn = getattr(importlib.import_module(module_name), attr)
                out[name] = fn.cache_info().misses
            except (ImportError, AttributeError):
                self.absent.append(name)
        return out

    def dump(self, path: str):
        doc = {
            "spans": self.spans,
            "counts": self.counts,
            "caches": self.cache_misses(),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from equisyz import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
