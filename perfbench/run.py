"""Cold-process benchmark of the equisyz CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the root of a source checkout; the program is imported from
``src/``.  Each job is a fresh ``python -m equisyz.cli`` process on a
document generated from the seed, so every job pays the cold cost a CLI
user pays and no ``functools.cache`` table survives from one job to the
next (see NOTES.md).  One client, closed loop: the next job starts when
the previous one has exited.

With ``--trace 0`` the run reports end-to-end metrics; with ``--trace 1``
it alternates untraced and traced jobs (``traced_job.py``) and reports
per-layer metrics.  Outputs are checked after the timed loop
(``checks.py``); a job whose output is wrong counts in ``failed``.  The
last line of stdout is one JSON object; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 100
SETUP_SPAWNS = 4


@dataclass(frozen=True)
class Workload:
    m: int
    dims: tuple[int, ...]
    pool: int
    flags: tuple[str, ...]
    batch: int  # documents per run

    @property
    def ideal(self) -> str:
        return "intersection" if "intersection" in self.flags else "product"

    def flag(self, name: str) -> int:
        return int(self.flags[self.flags.index(name) + 1])


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "product-wide": Workload(
        m=4,
        dims=(0, 1, 2, 3, 0, 1, 2, 3, 2),
        pool=5,
        flags=("--max-degree", "9", "--side", "both"),
        batch=6,
    ),
    "product-deep": Workload(
        m=4,
        dims=(0, 1, 2, 3),
        pool=5,
        flags=("--max-degree", "14", "--side", "both"),
        batch=6,
    ),
    "oracle-verify": Workload(
        m=3,
        dims=(0, 1, 2),
        pool=4,
        flags=("--max-degree", "4", "--side", "both", "--oracle-check", "4", "--dim-v", "4"),
        batch=7,
    ),
    "intersection": Workload(
        m=3,
        dims=(1, 2, 2, 2),
        pool=4,
        flags=("--max-degree", "4", "--ideal", "intersection", "--dim-v", "4"),
        batch=14,
    ),
}

END_TO_END = {
    "batch_s": "s",
    "job_s.p50": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# metric -> (how, span or counter name, unit).  Times are self times except
# cli.run_job_s, which is the total.
PER_LAYER = {
    "arrangements.hilbert_s": ("self", "cli.hilbert_product", "s"),
    "arrangements.p_s": ("self", "cli.p_polynomial", "s"),
    "arrangements.hilbert_terms": ("count", "hilbert_terms", "count"),
    "linalg.intersect_calls": ("calls", "arrangements.intersect", "count"),
    "linalg.intersect_s": ("self", "arrangements.intersect", "s"),
    "schur.mul_calls": ("calls", "schur.SchurSeries.__mul__", "count"),
    "schur.mul_s": ("self", "schur.SchurSeries.__mul__", "s"),
    "schur.pair_products": ("cache", "schur._pair_product", "count"),
    "partitions.lr_evals": ("cache", "partitions.lr_coefficient", "count"),
    "betti.betti_s": ("self", "cli.betti_from_series", "s"),
    "betti.transpose_s": ("self", "cli.transpose_table", "s"),
    "oracle.product_s": ("self", "cli.product_ideal_character", "s"),
    "oracle.wedge_s": ("self", "cli.wedge_ideal_character", "s"),
    "oracle.echelon_s": ("self", "oracle._Echelon.add", "s"),
    "oracle.rows_offered": ("calls", "oracle._Echelon.add", "count"),
    "oracle.rows_kept": ("count", "rows_kept", "count"),
    "oracle.weight_spaces": ("calls", "oracle._Echelon.__init__", "count"),
    "oracle.intersection_s": ("self", "cli.intersection_ideal_character", "s"),
    "schur.from_weights_s": ("self", "oracle.from_weight_multiplicities", "s"),
    "schur.from_weights_calls": ("calls", "oracle.from_weight_multiplicities", "count"),
    "partitions.kostka_evals": ("cache", "partitions.kostka_number", "count"),
    "cli.parse_s": ("self", "cli.parse_arrangement", "s"),
    "cli.render_s": ("self", "cli.render_report", "s"),
    "cli.run_job_s": ("total", "cli.run_job", "s"),
}
DERIVED = {
    "oracle.useful_row_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


@dataclass
class Job:
    doc: int
    wall: float
    cpu: float
    rss_kb: int
    code: int
    stdout: bytes
    stderr: str
    spans: str | None = None


class Runner:
    """Spawns jobs inside one scratch directory of the checkout."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "EQUISYZ_CAPS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.count = 0

    def spawn(self, argv: list[str], doc: int = -1) -> Job:
        self.count += 1
        out_path = self.workdir / f"{self.count}.out"
        err_path = self.workdir / f"{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Job(
            doc,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss,
            proc.returncode,
            out_path.read_bytes(),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def cli_job(self, doc: int, path: Path, workload: Workload) -> Job:
        argv = [sys.executable, "-m", "equisyz.cli", "--input", str(path), *workload.flags]
        return self.spawn(argv, doc)

    def traced_job(self, doc: int, path: Path, workload: Workload) -> Job:
        spans = self.workdir / f"{self.count + 1}.spans"
        argv = [
            sys.executable, str(HERE / "traced_job.py"), str(spans),
            "--input", str(path), *workload.flags,
        ]
        job = self.spawn(argv, doc)
        job.spans = spans.read_text(encoding="utf-8") if spans.exists() else None
        return job

    def setup_sample(self, paths: list[Path]) -> float:
        """Wall of a fresh interpreter that imports the CLI and parses the
        documents: the fixed cost every job pays before run_job."""
        code = (
            "import json, sys\n"
            "from equisyz.cli import parse_arrangement\n"
            "for p in sys.argv[1:]:\n"
            "    with open(p) as fh:\n"
            "        parse_arrangement(json.load(fh))\n"
        )
        return self.spawn([sys.executable, "-c", code, *map(str, paths)]).wall


def documents(name: str, workload: Workload, seed: int) -> list[dict]:
    """The batch: patterns fixed per workload, signs drawn from the seed."""
    import gen

    shapes = random.Random(f"{name}/patterns")
    signs = random.Random(f"{name}/{seed}")
    patterns = [
        gen.Pattern(shapes, workload.m, workload.dims, workload.pool)
        for _ in range(workload.batch)
    ]
    return [pattern.arrangement(signs) for pattern in patterns]


def misses_of(job: Job, doc: dict, workload: Workload, memo: dict) -> list[str]:
    """Check one job's output; identical outputs of one document are checked once."""
    import checks

    key = (job.doc, job.code, hashlib.sha256(job.stdout).hexdigest(), "Traceback" in job.stderr)
    if key not in memo:
        stdout = job.stdout.decode("utf-8")
        if workload.ideal == "product":
            memo[key] = checks.product_misses(
                doc, workload.flag("--max-degree"), job.code, stdout, job.stderr
            )
        else:
            ref_key = ("reference", job.doc)
            if ref_key not in memo:
                memo[ref_key] = checks.reference_intersection(
                    doc, workload.flag("--dim-v"), workload.flag("--max-degree")
                )
            memo[key] = checks.intersection_misses(
                memo[ref_key], doc, workload.flag("--max-degree"), job.code, stdout, job.stderr
            )
    return memo[key]


def doc_medians(jobs: list[Job], value) -> list[float]:
    """Per document, the median of ``value`` over that document's jobs.

    A document that ran more often than the others then weighs no more in
    a sum or a median than they do."""
    by_doc: dict[int, list[float]] = {}
    for job in jobs:
        by_doc.setdefault(job.doc, []).append(value(job))
    return [statistics.median(v) for v in by_doc.values()]


def layer_values(spans_text: str) -> tuple[dict, list[str]]:
    """Per-layer values of one traced job, and the names that were absent."""
    data = json.loads(spans_text)
    spans = data["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + end - start - child_time[idx]
    sources = {
        "self": self_time,
        "total": total,
        "calls": calls,
        "count": data["counts"],
        "cache": data["caches"],
    }
    values = {
        metric: sources[how].get(source, 0.0 if unit == "s" else 0)
        for metric, (how, source, unit) in PER_LAYER.items()
    }
    values["run_job_self"] = self_time.get("cli.run_job", 0.0)
    return values, data["absent"]


def trace_metrics(pairs: list[tuple[Job, Job]]) -> tuple[dict, set[str]]:
    per_doc: dict[int, list[dict]] = {}
    absent: set[str] = set()
    for _, traced in pairs:
        if traced.spans is None:
            continue
        values, missing = layer_values(traced.spans)
        absent.update(missing)
        per_doc.setdefault(traced.doc, []).append(values)
    keys = list(PER_LAYER) + ["run_job_self"]
    summed = {
        k: sum(statistics.median(v[k] for v in runs) for runs in per_doc.values())
        for k in keys
    }
    out = {m: summed[m] for m in PER_LAYER}
    offered = out["oracle.rows_offered"]
    out["oracle.useful_row_ratio"] = out["oracle.rows_kept"] / offered if offered else 0.0
    run_job = out["cli.run_job_s"]
    out["trace.coverage"] = 1 - summed["run_job_self"] / run_job if run_job else 0.0
    untraced = sum(doc_medians([u for u, _ in pairs], lambda j: j.wall))
    traced = sum(doc_medians([t for _, t in pairs], lambda j: j.wall))
    out["trace.overhead"] = traced / untraced - 1
    return out, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        docs = documents(name, workload, seed)
        paths = []
        for i, doc in enumerate(docs):
            path = workdir / f"doc{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(path)
        runner = Runner(workdir)

        # Set-up samples are spread over the run, one after every job, so a
        # burst of load from other tenants moves few of them.
        runner.setup_sample(paths)  # compiles bytecode; not counted
        setup_walls = [] if trace else [runner.setup_sample(paths) for _ in range(SETUP_SPAWNS)]
        loop_began = perf_counter()
        jobs: list[Job] = []
        pairs: list[tuple[Job, Job]] = []
        deadline = perf_counter() + seconds
        i = 0
        while i < len(docs) or perf_counter() < deadline:
            doc = i % len(docs)
            if trace:
                pair = (
                    runner.cli_job(doc, paths[doc], workload),
                    runner.traced_job(doc, paths[doc], workload),
                )
                pairs.append(pair)
                jobs.extend(pair)
            else:
                jobs.append(runner.cli_job(doc, paths[doc], workload))
                setup_walls.append(runner.setup_sample(paths))
            i += 1

        checks_began = perf_counter()
        memo: dict = {}
        failures: dict[int, list[str]] = {}
        failed = 0
        for job in jobs:
            misses = misses_of(job, docs[job.doc], workload, memo)
            if misses:
                failed += 1
                failures.setdefault(job.doc, misses)
        mismatched = sum(1 for u, t in pairs if (u.code, u.stdout) != (t.code, t.stdout))
        result = {
            "correct": mismatched == 0,
            "attempted": len(jobs),
            "failed": failed,
        }
        lines = [
            f"{name} seed {seed}: {len(jobs)} jobs on {len(docs)} documents, "
            f"{failed} failed, failed_frac {failed / len(jobs):.4f}",
            f"  phases: jobs {checks_began - loop_began:.1f} s, "
            f"checks {perf_counter() - checks_began:.1f} s",
        ]
        for doc, misses in sorted(failures.items()):
            lines.append(f"  document {doc}: " + "; ".join(misses[:3]))
        if mismatched:
            lines.append(f"  {mismatched} traced reports differ from the untraced ones")

        if trace:
            values, absent = trace_metrics(pairs)
            units = {m: u for m, (_, _, u) in PER_LAYER.items()} | DERIVED
            if absent:
                lines.append("  absent from the program: " + ", ".join(sorted(absent)))
            run_job = values["cli.run_job_s"]
            timed = [
                (v, m) for m, v in values.items() if units[m] == "s" and m != "cli.run_job_s"
            ]
            if run_job:
                top = ", ".join(f"{m} {v / run_job:.0%}" for v, m in sorted(timed)[::-1][:3])
                lines.append(f"  largest self times, share of run_job: {top}")
        else:
            walls = doc_medians(jobs, lambda j: j.wall)
            values = {
                "batch_s": sum(walls),
                "job_s.p50": statistics.median(walls),
                "cpu_s": sum(doc_medians(jobs, lambda j: j.cpu)),
                "peak_rss_mb": max(j.rss_kb for j in jobs) / 1024,
                "setup_s": statistics.median(setup_walls),
            }
            units = END_TO_END
        for metric, value in values.items():
            lines.append(f"  {metric:28s} {value:12.4f} {units[metric]}")
        result["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
        return {"lines": lines, "result": result}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "equisyz" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'equisyz'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    # SIGTERM unwinds like Ctrl-C, so the running job is killed and reaped
    # and the scratch directory removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(out["lines"]), flush=True)
        results[name] = out["result"]
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
