"""Golden reports: ``cli.main`` must reproduce each stored report byte for byte.

Each case names an input document in ``tests/golden/`` (``<case>.json``,
unless ``DOCUMENTS`` names another), the exit code of one job, its flags
and, in ``ENVIRONMENTS``, any environment variables it runs under; its
expected reports are ``<case>.out.json``, ``<case>.out.md`` and
``<case>.out.tex`` next to it.  After a deliberate change to the report
format, regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

from equisyz.cli import EXIT_OK, EXIT_VALIDATION, main

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (expected exit code, flags)
CASES = {
    "five_subspaces": (EXIT_OK, ["--max-degree", "7"]),
    "lines_in_plane": (EXIT_OK, ["--max-degree", "6", "--side", "exterior"]),
    "plane_and_line": (
        EXIT_OK, ["--max-degree", "4", "--oracle-check", "3", "--dim-v", "3"],
    ),
    "three_axes": (
        EXIT_OK, ["--max-degree", "3", "--ideal", "intersection", "--dim-v", "3"],
    ),
    "three_axes_oracle": (EXIT_OK, [
        "--max-degree", "3", "--ideal", "intersection", "--oracle-check", "3",
        "--dim-v", "3",
    ]),
    # an intersection job checked at n = 5, above both the oracle's read at
    # n = min(D, m) = 3 and the check degree 3: the intersection weights the
    # report lists at n = 5 are derived from the series degree by degree
    "three_axes_n5": (EXIT_OK, [
        "--max-degree", "4", "--ideal", "intersection", "--oracle-check", "3",
        "--dim-v", "5", "--side", "both",
    ]),
    # n = 4 > m = 3 and D = 4 > t = 3: the oracles' support fill and their
    # spanning from the previous degree both run
    "two_planes_and_line": (EXIT_OK, [
        "--max-degree", "4", "--side", "both", "--oracle-check", "4", "--dim-v", "4",
    ]),
    # the product and wedge oracles checked at n = 5, above the n each works
    # out, min(D, m) = 3 for the product and D = 4 for the wedge: the report
    # derives its weights at n = 5 from their series
    "two_planes_and_line_n5": (EXIT_OK, [
        "--max-degree", "4", "--side", "both", "--oracle-check", "4", "--dim-v", "5",
    ]),
    # an intersection job checked at n = 4 > m = 3: its series is the
    # oracle's, read at n = min(D, m) = 3, and the intersection weights the
    # report lists at n = 4 are derived from it by Kostka numbers
    "line_and_three_planes": (EXIT_OK, [
        "--max-degree", "4", "--ideal", "intersection", "--dim-v", "4",
        "--oracle-check", "4", "--side", "both",
    ]),
    # a line and three planes of Q^3 with no common line: the intersection
    # ideal is not generated in one degree, so the sign check fails and the
    # job writes its report with the linearity error and exits 1
    "no_common_line": (
        EXIT_VALIDATION,
        ["--max-degree", "4", "--ideal", "intersection", "--dim-v", "4"],
    ),
    # shaped like the product-wide benchmark documents: t = 9 in Q^4 with two
    # zero subspaces, so rk B > |B| and ranks saturate at m = 4
    "product_wide": (EXIT_OK, ["--max-degree", "9", "--side", "both"]),
    # three hyperplanes of Q^7: H takes m = 7 passes of sigma over four rank
    # buckets
    "three_hyperplanes": (EXIT_OK, ["--max-degree", "8"]),
    # a line in Q^8 at D = 12: eight passes of sigma and eight of sigma^-1
    # over every degree up to 12, and twelve Betti columns on both sides
    "line_in_q8": (EXIT_OK, ["--max-degree", "12", "--side", "both"]),
    # the intersection case past the default caps, at n = D = 5: the Kostka
    # fill of the 4- and 5-part weights and the orbits of 5-part weights
    # reach the report
    "line_and_three_planes_n5": (EXIT_OK, [
        "--max-degree", "5", "--ideal", "intersection", "--dim-v", "5",
        "--oracle-check", "5", "--side", "both",
    ]),
    # the second seed-1 document of the intersection benchmark at D = 8,
    # past the default caps: the series is read at dim V = min(D, m) = 3,
    # whatever --dim-v says
    "intersection_seed1_n8": (EXIT_OK, [
        "--ideal", "intersection", "--max-degree", "8", "--dim-v", "8",
    ]),
    # the product and wedge oracles past the default caps, at n = D = 5 = t + 2:
    # the wedge spans degree 5 from renamed stored bases of degree 4
    "two_planes_and_line_d5": (EXIT_OK, [
        "--max-degree", "5", "--side", "both", "--oracle-check", "5", "--dim-v", "5",
    ]),
    # the product and wedge oracles at n = D = 6 = t + 3, past the default
    # caps: three steps of the maximal ideal on packed monomials, each
    # product's pivot led by its form's free column
    "two_planes_and_line_n6": (EXIT_OK, [
        "--max-degree", "6", "--side", "both", "--oracle-check", "6", "--dim-v", "6",
    ]),
    # a line, the origin, a plane and a line of Q^3: the product and wedge
    # oracles multiply in one linear ideal per degree, and the second is the
    # maximal ideal
    "origin_between_lines": (EXIT_OK, [
        "--max-degree", "4", "--side", "both", "--oracle-check", "4", "--dim-v", "4",
    ]),
    # four subspaces of Q^4 spanned redundantly: more vectors than their
    # dimension, zero vectors, dependent rows, "p/q" entries and pivots that
    # arrive in decreasing column order; the last is the origin, spanned by
    # zero vectors alone.  The report's bases are their RREFs, and the oracle
    # takes its linear forms from their normal rows.
    "redundant_spanning": (EXIT_OK, [
        "--max-degree", "6", "--side", "both", "--oracle-check", "4", "--dim-v", "4",
    ]),
}

DOCUMENTS = {
    "three_axes_oracle": "three_axes",
    "three_axes_n5": "three_axes",
    "line_and_three_planes_n5": "line_and_three_planes",
    "intersection_seed1_n8": "intersection_seed1",
    "two_planes_and_line_d5": "two_planes_and_line",
    "two_planes_and_line_n5": "two_planes_and_line",
    "two_planes_and_line_n6": "two_planes_and_line",
}

# --dim-v 5 needs a degree cap of 5, which bounds the report's dim V too
ENVIRONMENTS = {
    "three_axes_n5": {"EQUISYZ_CAPS": "m=4,d=5"},
    "line_and_three_planes_n5": {"EQUISYZ_CAPS": "m=3,d=5"},
    "intersection_seed1_n8": {"EQUISYZ_CAPS": "m=6,d=8"},
    "two_planes_and_line_d5": {"EQUISYZ_CAPS": "m=6,d=8"},
    "two_planes_and_line_n5": {"EQUISYZ_CAPS": "m=4,d=5"},
    "two_planes_and_line_n6": {"EQUISYZ_CAPS": "m=6,d=12"},
}

FORMATS = {"json": "json", "markdown": "md", "latex": "tex"}


def _run(case: str, fmt: str, out: Path) -> int:
    doc = DOCUMENTS.get(case, case)
    argv = ["--input", str(GOLDEN / f"{doc}.json"), *CASES[case][1]]
    return main(argv + ["--format", fmt, "--output", str(out)])


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, fmt, tmp_path, monkeypatch):
    for name, value in ENVIRONMENTS.get(case, {}).items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "report"
    assert _run(case, fmt, out) == CASES[case][0]
    expected = GOLDEN / f"{case}.out.{FORMATS[fmt]}"
    assert out.read_bytes() == expected.read_bytes()


def test_latex_goldens_have_no_underscore_in_text_mode():
    """A bare _ outside $...$ stops LaTeX with "Missing $ inserted"."""
    for path in sorted(GOLDEN.glob("*.out.tex")):
        text = re.sub(r"\$\$.*?\$\$|\$.*?\$", "", path.read_text(), flags=re.S)
        assert not re.search(r"(?<!\\)_", text), path.name


if __name__ == "__main__":
    for case in CASES:
        with mock.patch.dict(os.environ, ENVIRONMENTS.get(case, {})):
            for fmt, ext in FORMATS.items():
                code = _run(case, fmt, GOLDEN / f"{case}.out.{ext}")
                print(f"{case} {fmt}: exit {code}", file=sys.stderr)
