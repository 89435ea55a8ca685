"""Batch front end.

Reads a JSON arrangement description, runs the pipeline (polymatroid ->
Hilbert series -> Betti table -> transpose -> regularity), optionally
verifies against the brute-force oracle, and writes a deterministic report
as JSON, Markdown or LaTeX.  Each oracle works out its own dim V, the least
that shows its whole series; an oracle check lists the weights of each
degree it writes at --dim-v, or at its degree without one.

Input schema::

    {"ambient_dim": m, "subspaces": [[vec, ...], ...]}

where each subspace is a list of spanning vectors (an empty list is the
zero subspace) and entries are integers or "p/q" strings.  The parse checks
the document's shape and caps; ``Subspace`` reads the entries.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 size cap.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections import namedtuple
from itertools import combinations
from math import gcd

from .arrangements import (
    Arrangement,
    check_ambient_dim,
    check_ground_set,
    check_truncation,
    hilbert_product,
    p_polynomial,
    polymatroid_of,
)
from .betti import (
    GenerationDegreeError,
    LinearityError,
    betti_from_series,
    regularity,
    transpose_table,
)
from .errors import DEFAULT_CAPS, OracleCaps, SizeCapError, check_sizes
from .linalg import Subspace
from .partitions import orbit
from .schur import SchurSeries, format_terms

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3

CAPS_ENV_VAR = "EQUISYZ_CAPS"

# The oracle's entry points are bound in this module's globals when a job
# first needs them, so a product job without --oracle-check never imports
# equisyz.oracle.  run_job and _oracle_section call them through these
# globals, where a caller may have replaced them.
_ORACLE_NAMES = (
    "character_to_schur",
    "intersection_ideal_character",
    "product_ideal_character",
    "wedge_ideal_character",
)


def _import_oracle():
    """Import equisyz.oracle and bind its entry points here, keeping any
    binding already made."""
    from . import oracle

    names = globals()
    for name in _ORACLE_NAMES:
        names.setdefault(name, getattr(oracle, name))
    return oracle


def __getattr__(name):
    if name in _ORACLE_NAMES:
        _import_oracle()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InputError(Exception):
    """Malformed document, configuration or flag combination."""


def parse_arrangement(document) -> Arrangement:
    """Validate an arrangement document and build the Arrangement."""
    if not isinstance(document, dict):
        raise InputError("arrangement document must be a JSON object")
    try:
        m = document["ambient_dim"]
        raw_subspaces = document["subspaces"]
    except KeyError as exc:
        raise InputError(f"arrangement document is missing key {exc}") from exc
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InputError("ambient_dim must be a positive integer")
    check_ambient_dim(m)
    if not isinstance(raw_subspaces, list):
        raise InputError("subspaces must be a list of vector lists")
    check_ground_set(len(raw_subspaces))
    subspaces = []
    for idx, vectors in enumerate(raw_subspaces):
        if not isinstance(vectors, list):
            raise InputError(f"subspace {idx} must be a list of vectors")
        for vec in vectors:
            if not isinstance(vec, list) or len(vec) != m:
                raise InputError(
                    f"subspace {idx}: vector {vec!r} does not have length {m}"
                )
        # with m and every length checked, Subspace refuses only an entry
        try:
            subspaces.append(Subspace(m, vectors))
        except ValueError as exc:
            raise InputError(f"{exc} (use integers or 'p/q' strings)") from exc
        except SizeCapError as exc:
            raise SizeCapError(f"subspace {idx}: {exc}") from exc
    return Arrangement(m, tuple(subspaces))


def caps_from_env(environ=None) -> OracleCaps:
    """Read size caps from EQUISYZ_CAPS, e.g. ``m=6,d=6``: m caps the
    ambient dimension and d the degree, which bounds dim V too."""
    environ = os.environ if environ is None else environ
    raw = environ.get(CAPS_ENV_VAR)
    if not raw:
        return DEFAULT_CAPS
    fields = {"m": "ambient_dim", "d": "degree"}
    updates = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        key = key.strip()
        value = value.strip()
        # isdigit alone admits digits such as "²" that int() rejects, and
        # int() also rejects more digits than the interpreter converts
        try:
            if key not in fields or not (value.isascii() and value.isdigit()):
                raise ValueError(value)
            updates[fields[key]] = int(value)
        except ValueError as exc:
            raise InputError(
                f"cannot parse {CAPS_ENV_VAR}={raw!r}; expected the keys m and d, like m=6,d=6"
            ) from exc
    return OracleCaps(**updates)


# ideal: product | intersection; side: symmetric | exterior | both;
# oracle_degree 0 disables oracle checks, whose report lists weights at
# dim V = dim_v, or at dim V = oracle_degree if dim_v is 0, both at most
# the degree cap; each oracle eliminates at its own dim V, so dim_v may
# lie below oracle_degree
JobConfig = namedtuple(
    "JobConfig",
    "arrangement max_degree ideal side oracle_degree dim_v caps",
    defaults=("product", "both", 0, 0, DEFAULT_CAPS),
)


def _subspace_doc(sub: Subspace) -> list[list[str]]:
    """The RREF of ``sub``, each entry written in lowest terms as
    ``str(Fraction)`` writes it, read off the integer echelon."""
    doc = []
    for row in sub.echelon:
        piv = next(filter(None, row))
        entries = []
        for c in row:
            g = gcd(c, piv)
            entries.append(str(c // g) if g == piv else f"{c // g}/{piv // g}")
        doc.append(entries)
    return doc


def _weights_doc(table: dict) -> list[list]:
    """Every weight of a dominant table, sorted: S_n permutes weight spaces."""
    every = {p: dim for w, dim in table.items() for p in orbit(w)}
    return [[list(w), dim] for w, dim in sorted(every.items())]


def _check_config(cfg: JobConfig):
    if not isinstance(cfg.arrangement, Arrangement):
        raise InputError(f"JobConfig.arrangement must be an Arrangement, got {cfg.arrangement!r}")
    for field in ("max_degree", "oracle_degree", "dim_v"):
        if type(getattr(cfg, field)) is not int:
            raise InputError(f"JobConfig.{field} must be an int, got {getattr(cfg, field)!r}")
    if not isinstance(cfg.caps, OracleCaps):
        raise InputError(f"JobConfig.caps must be an OracleCaps, got {cfg.caps!r}")
    t = len(cfg.arrangement.subspaces)
    if cfg.ideal not in ("product", "intersection"):
        raise InputError(f"unknown ideal kind {cfg.ideal!r}")
    if cfg.side not in ("symmetric", "exterior", "both"):
        raise InputError(f"unknown side {cfg.side!r}")
    if cfg.max_degree < t:
        raise InputError(
            f"truncation below generation degree: max degree {cfg.max_degree} < t = {t}"
        )
    # the formula side refuses it too, but an intersection job's oracle runs first
    check_truncation(cfg.max_degree)
    if any(s.dim == cfg.arrangement.ambient_dim for s in cfg.arrangement.subspaces):
        raise InputError(
            "arrangement contains the whole ambient space; its vanishing ideal is zero"
        )
    if cfg.oracle_degree < 0:
        raise InputError(
            f"--oracle-check degree must be nonnegative (0 disables), got {cfg.oracle_degree}"
        )
    if cfg.dim_v < 0:
        raise InputError(f"--dim-v must be nonnegative (0 derives it), got {cfg.dim_v}")
    if cfg.oracle_degree > cfg.max_degree:
        raise InputError("--oracle-check degree cannot exceed --max-degree")
    # the oracle's caps, refused before the formula side runs; no oracle
    # runs at a dim V above its degree, nor does the report list weights at one
    if cfg.ideal == "intersection":
        check_sizes(cfg.arrangement, cfg.max_degree, cfg.caps)
    if cfg.oracle_degree > 0:
        check_sizes(cfg.arrangement, cfg.oracle_degree, cfg.caps)
        if cfg.dim_v > cfg.caps.degree:
            raise SizeCapError(
                f"dim V = {cfg.dim_v} exceeds the oracle's degree cap d = {cfg.caps.degree}"
            )
    if cfg.ideal == "product" and 0 < cfg.oracle_degree < t:
        raise InputError(
            f"oracle check below generation degree: --oracle-check {cfg.oracle_degree} < t = {t}"
        )


def _intersection_series(cfg: JobConfig) -> SchurSeries:
    """The intersection ideal's series to degree D, from the oracle."""
    _import_oracle()
    return intersection_ideal_character(cfg.arrangement, cfg.max_degree, caps=cfg.caps)


def _oracle_section(cfg: JobConfig, hseries: SchurSeries, validations: dict) -> dict:
    oracle = _import_oracle()
    arr = cfg.arrangement
    n = cfg.dim_v or cfg.oracle_degree  # the dim V the report lists weights at
    d_max = cfg.oracle_degree
    t = len(arr.subspaces)
    section = {"dim_v": n, "max_degree": d_max, "degrees": []}
    intersection = cfg.ideal == "intersection"

    # The wedge ideal is the transpose of the *product* ideal, so both the
    # product and the wedge verdicts compare against the product formula,
    # whatever kind of series the job itself is about.
    product_formula = hilbert_product(arr, max(t, d_max)) if intersection else hseries

    product = product_ideal_character(arr, d_max, caps=cfg.caps)
    want_wedge = cfg.side in ("exterior", "both")
    wedge = wedge_ideal_character(arr, d_max, caps=cfg.caps) if want_wedge else None
    all_product_ok = True
    all_wedge_ok = True
    all_contained = True
    dlow = 1 if intersection else t
    for d in range(dlow, d_max + 1):
        entry = {"degree": d}
        oracle_schur = character_to_schur(product, d)
        formula = product_formula.graded_part(d)
        pw = oracle.dominant_weights(product, n, d)
        entry["product_weights"] = _weights_doc(pw)
        entry["product_schur"] = oracle_schur.to_pairs()
        entry["formula_schur"] = formula.to_pairs()
        ok = oracle_schur == formula
        entry["product_matches_formula"] = ok
        all_product_ok &= ok
        if want_wedge:
            wedge_schur = character_to_schur(wedge, d)
            entry["wedge_weights"] = _weights_doc(oracle.dominant_weights(wedge, n, d))
            entry["wedge_schur"] = wedge_schur.to_pairs()
            expected = formula.omega()
            entry["wedge_expected"] = expected.to_pairs()
            ok = wedge_schur == expected
            entry["wedge_matches_transpose"] = ok
            all_wedge_ok &= ok
        if intersection:  # the job's series is the oracle's
            iw = oracle.dominant_weights(hseries, n, d)
            # both tables are S_n-symmetric, so their dominant weights decide
            contained = all(iw.get(w, 0) >= dim for w, dim in pw.items())
            entry["intersection_weights"] = _weights_doc(iw)
            entry["product_contained_in_intersection"] = contained
            all_contained &= contained
        section["degrees"].append(entry)

    validations["oracle_product_match"] = all_product_ok
    if want_wedge:
        validations["oracle_wedge_match"] = all_wedge_ok
    if intersection:
        validations["oracle_containment"] = all_contained
    return section


def run_job(cfg: JobConfig) -> dict:
    """Run the full pipeline and return a deterministic report dictionary."""
    _check_config(cfg)
    arr = cfg.arrangement
    m = arr.ambient_dim
    t = len(arr.subspaces)
    D = cfg.max_degree

    pm = polymatroid_of(arr)
    p_series = p_polynomial(pm, (1 << t) - 1, D)

    if cfg.ideal == "product":
        hseries = hilbert_product(arr, D)
        generation_degree = t
    else:
        hseries = _intersection_series(cfg)
        generation_degree = hseries.min_degree()
        if generation_degree is None:
            raise InputError(
                f"intersection ideal is zero up to degree {D}; nothing to resolve"
            )

    report = {
        "schema": "equisyz-report/2",
        "input": {
            "ambient_dim": m,
            "subspaces": [_subspace_doc(s) for s in arr.subspaces],
            "ideal": cfg.ideal,
            "side": cfg.side,
            "max_degree": D,
        },
        "polymatroid": {"ground_size": t, "ranks": list(pm.ranks)},
        "p_polynomial": p_series.to_pairs(),
        "hilbert_series": {"truncation_degree": D, "terms": hseries.to_pairs()},
        "generation_degree": generation_degree,
    }

    validations: dict = {}
    tables: dict = {}
    regs: dict = {}
    try:
        table = betti_from_series(hseries, m, generation_degree)
    except (LinearityError, GenerationDegreeError) as exc:
        validations["linear_resolution"] = False
        report["linearity_error"] = str(exc)
    else:
        validations["linear_resolution"] = True
        if cfg.side in ("symmetric", "both"):
            tables["symmetric"] = table.to_dict()
            regs["symmetric"] = regularity(table)
        if cfg.side in ("exterior", "both"):
            exterior = transpose_table(table)
            tables["exterior"] = exterior.to_dict()
            regs["exterior"] = regularity(exterior)
    report["betti"] = tables
    report["regularity"] = regs

    if cfg.oracle_degree > 0:
        report["oracle"] = _oracle_section(cfg, hseries, validations)
    else:
        report["oracle"] = None

    report["validations"] = validations
    report["status"] = "ok" if all(validations.values()) else "validation_failed"
    return report


# -- rendering ----------------------------------------------------------------


def render_json(report: dict) -> str:
    """The report as one line of JSON with sorted keys, plus a newline,
    written by the standard library's C encoder."""
    return json.dumps(report, sort_keys=True) + "\n"


def _betti_tables(report: dict):
    """(side, table, regularity) for each side that has a Betti table."""
    for side in ("symmetric", "exterior"):
        table = report["betti"].get(side)
        if table:
            yield side, table, report["regularity"].get(side)


def render_markdown(report: dict) -> str:
    lines = ["# equisyz report", ""]
    inp = report["input"]
    lines.append(f"- ambient dimension: {inp['ambient_dim']}")
    lines.append(f"- subspaces: {len(inp['subspaces'])}")
    lines.append(f"- ideal: {inp['ideal']}, side: {inp['side']}, D = {inp['max_degree']}")
    lines.append(f"- status: **{report['status']}**")
    lines.append("")
    lines.append("## Polymatroid ranks")
    lines.append("")
    lines.append("| subset | rank |")
    lines.append("|---|---|")
    t, ranks = report["polymatroid"]["ground_size"], report["polymatroid"]["ranks"]
    for k in range(t + 1):  # by size, then lexicographically
        for subset in combinations(range(t), k):
            label = "{" + ",".join(map(str, subset)) + "}"
            lines.append(f"| {label} | {ranks[sum(1 << i for i in subset)]} |")
    lines.append("")
    lines.append("## Correction polynomial P")
    lines.append("")
    lines.append(f"`{format_terms(report['p_polynomial'])}`")
    lines.append("")
    lines.append("## Equivariant Hilbert series")
    lines.append("")
    lines.append(f"`{format_terms(report['hilbert_series']['terms'])}`")
    lines.append("")
    if report.get("linearity_error"):
        lines.append(f"**Linearity validation failed:** {report['linearity_error']}")
        lines.append("")
    for side, table, reg in _betti_tables(report):
        lines.append(
            f"## Betti table ({side} side), generated in degree {table['t']}, "
            f"regularity {reg}"
        )
        lines.append("")
        lines.append("| i | degree | decomposition |")
        lines.append("|---|---|---|")
        for col in table["columns"]:
            lines.append(
                f"| {col['i']} | {col['degree']} | {format_terms(col['terms'])} |"
            )
        lines.append("")
    oracle = report.get("oracle")
    if oracle:
        lines.append(
            f"## Oracle verification (dim V = {oracle['dim_v']}, "
            f"degrees up to {oracle['max_degree']})"
        )
        lines.append("")
        for entry in oracle["degrees"]:
            lines.append(f"### Degree {entry['degree']}")
            lines.append("")
            lines.append(f"- product character: `{format_terms(entry['product_schur'])}`")
            lines.append(f"- matches formula: {entry['product_matches_formula']}")
            if "wedge_schur" in entry:
                lines.append(f"- wedge character: `{format_terms(entry['wedge_schur'])}`")
                lines.append(f"- matches transposed formula: {entry['wedge_matches_transpose']}")
            if "product_contained_in_intersection" in entry:
                lines.append(
                    f"- product contained in intersection: "
                    f"{entry['product_contained_in_intersection']}"
                )
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_latex(report: dict) -> str:
    inp = report["input"]
    status = report["status"].replace("_", "\\_")  # a bare _ is a LaTeX error in text
    lines = [
        "% equisyz report",
        "\\section*{Arrangement report}",
        "\\begin{itemize}",
        f"\\item ambient dimension ${inp['ambient_dim']}$, "
        f"{len(inp['subspaces'])} subspaces, ideal: {inp['ideal']}",
        f"\\item truncation degree ${inp['max_degree']}$, status: {status}",
        "\\end{itemize}",
        "",
        "\\subsection*{Equivariant Hilbert series}",
        f"$${format_terms(report['hilbert_series']['terms'], 'latex')}$$",
        "",
    ]
    for side, table, reg in _betti_tables(report):
        lines.append(
            f"\\subsection*{{Betti table ({side}), $t = {table['t']}$, "
            f"regularity ${reg}$}}"
        )
        lines.append("\\begin{tabular}{rrl}")
        lines.append("$i$ & degree & decomposition \\\\ \\hline")
        for col in table["columns"]:
            lines.append(
                f"{col['i']} & {col['degree']} & ${format_terms(col['terms'], 'latex')}$ \\\\"
            )
        lines.append("\\end{tabular}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


RENDERERS = {"json": render_json, "markdown": render_markdown, "latex": render_latex}


def render_report(report: dict, output_format: str) -> str:
    return RENDERERS[output_format](report)


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equisyz",
        description=(
            "Equivariant Hilbert series, Betti tables and regularity for "
            "ideals of subspace arrangements, on both the symmetric and the "
            "exterior side."
        ),
        epilog=(
            "The oracle's caps on the ambient dimension m and the degree d "
            f"can be raised with {CAPS_ENV_VAR}, e.g. {CAPS_ENV_VAR}=m=6,d=6."
        ),
    )
    parser.add_argument("--input", required=True, help="path to the arrangement JSON")
    parser.add_argument("--max-degree", type=int, required=True, help="truncation degree D")
    parser.add_argument(
        "--ideal", choices=("product", "intersection"), default="product"
    )
    parser.add_argument(
        "--side", choices=("symmetric", "exterior", "both"), default="both"
    )
    parser.add_argument(
        "--oracle-check",
        type=int,
        default=0,
        metavar="D_MAX",
        help="verify against the brute-force oracle up to this degree (0 disables)",
    )
    parser.add_argument(
        "--dim-v", type=int, default=0, help="dim V of --oracle-check's weights (default: D_MAX)"
    )
    parser.add_argument(
        "--format", choices=("json", "markdown", "latex"), default="json"
    )
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    parser.add_argument("--verbose", action="store_true", help="log oracle sizes to stderr")
    return parser


def _check_writable(path: str):
    """Fail before the job if ``path`` cannot be opened for writing: it is a
    directory, or its directory is missing or not writable.  Creates
    nothing; an error that only ``open`` finds is still reported after."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise InputError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        import logging  # only here: a quiet job never pays for importing it

        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    try:
        caps = caps_from_env()
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
        # ValueError also for bytes that are not UTF-8, RecursionError for
        # arrays or objects nested deeper than the decoder recurses
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{args.input} is not valid JSON: {exc}") from exc
        arrangement = parse_arrangement(document)
        cfg = JobConfig(
            arrangement=arrangement,
            max_degree=args.max_degree,
            ideal=args.ideal,
            side=args.side,
            oracle_degree=args.oracle_check,
            dim_v=args.dim_v,
            caps=caps,
        )
        if args.output:
            _check_writable(args.output)
        report = run_job(cfg)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    text = render_report(report, args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"input error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    if report["status"] != "ok":
        print("validation failed; see report", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
