import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import equisyz
from equisyz import cli, linalg, oracle
from equisyz.arrangements import (
    MAX_AMBIENT_DIM,
    MAX_DEGREE,
    MAX_GROUND_SET,
    Arrangement,
    polymatroid_of,
)
from equisyz.cli import (
    EXIT_CAP,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VALIDATION,
    InputError,
    JobConfig,
    caps_from_env,
    main,
    parse_arrangement,
    render_json,
    render_report,
    run_job,
)
from equisyz.errors import SizeCapError
from equisyz.linalg import (
    MAX_SUBSPACE_DIGITS,
    Subspace,
    read_rational,
    row_reduce,
    scaled_numerators,
)
from equisyz.oracle import OracleCaps
from equisyz.schur import SchurSeries

from helpers import pooled_arrangements

AXES2 = {"ambient_dim": 2, "subspaces": [[[1, 0]], [[0, 1]]]}
ORIGIN2 = {"ambient_dim": 1, "subspaces": [[], []]}
AXES3 = {"ambient_dim": 3, "subspaces": [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]]}


# -- parsing ------------------------------------------------------------------


def test_parse_two_axes():
    arr = parse_arrangement(AXES2)
    assert arr.ambient_dim == 2
    assert [s.dim for s in arr.subspaces] == [1, 1]


def test_parse_origin_copies():
    arr = parse_arrangement(ORIGIN2)
    assert arr.ambient_dim == 1
    assert [s.dim for s in arr.subspaces] == [0, 0]


def test_parse_fraction_entries():
    arr = parse_arrangement({"ambient_dim": 2, "subspaces": [[["1/2", 1]]]})
    assert arr.subspaces[0].dim == 1


def test_parse_rejects_wrong_vector_length():
    with pytest.raises(InputError):
        parse_arrangement({"ambient_dim": 2, "subspaces": [[[1, 0, 0]]]})


def test_parse_rejects_non_rational_entries():
    with pytest.raises(InputError):
        parse_arrangement({"ambient_dim": 1, "subspaces": [[[0.5]]]})
    with pytest.raises(InputError):
        parse_arrangement({"ambient_dim": 1, "subspaces": [[["x"]]]})
    # Fraction reads these; the document format has no decimals or exponents.
    # int() refuses more digits than the interpreter converts (4300 by default)
    for entry in ("0.5", "1e10000000", "1/0", " 1", "1_000", True, None,
                  "9" * 5000, "1/" + "9" * 5000):
        with pytest.raises(InputError) as info:
            parse_arrangement({"ambient_dim": 2, "subspaces": [[[entry, 1]]]})
        assert str(info.value) == (
            f"entry {entry!r} is not a rational number (use integers or 'p/q' strings)"
        )


@st.composite
def document_vectors(draw):
    """m and vectors of Q^m as a document writes them: ints, and "p/q"
    strings with signs, leading zeros and terms not in lowest form."""
    m = draw(st.integers(min_value=1, max_value=4))

    def entry():
        num = draw(st.integers(min_value=-30, max_value=30))
        if draw(st.booleans()):
            return num
        factor = draw(st.integers(min_value=1, max_value=4))
        den = draw(st.integers(min_value=1, max_value=12)) * factor
        sign = draw(st.sampled_from(["", "+", "-"])) if num >= 0 else "-"
        zeros = "0" * draw(st.integers(min_value=0, max_value=2))
        tail = f"/{zeros}{den}" if den > 1 or draw(st.booleans()) else ""
        return f"{sign}{zeros}{abs(num) * factor}{tail}"

    count = draw(st.integers(min_value=0, max_value=2 * m))
    return m, [[entry() for _ in range(m)] for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(document_vectors())
def test_parse_writes_the_fraction_rref_of_its_vectors(case):
    """The parse reads each vector into integers; the report's subspace
    strings are then ``str(Fraction)`` of the reference RREF of the same
    vectors, and the Subspace of the integer rows is the Subspace of the
    Fraction vectors."""
    m, vectors = case
    rows = [scaled_numerators(map(read_rational, vec)) for vec in vectors]
    assert all(type(c) is int for row in rows for c in row)
    parsed = parse_arrangement({"ambient_dim": m, "subspaces": [vectors]}).subspaces[0]
    assert parsed == Subspace(m, rows)
    rref, rank = row_reduce(vectors)
    assert cli._subspace_doc(parsed) == [[str(x) for x in row] for row in rref[:rank]]
    assert parsed == Subspace(m, [[Fraction(x) for x in vec] for vec in vectors])


def test_parse_rejects_bad_schema():
    with pytest.raises(InputError):
        parse_arrangement([1, 2])
    with pytest.raises(InputError):
        parse_arrangement({"ambient_dim": 2})
    with pytest.raises(InputError):
        parse_arrangement({"ambient_dim": 0, "subspaces": []})


def test_parsed_copies_are_one_value():
    """Arrangements compare and hash by value, so two parses of one document
    share one cached polymatroid."""
    a = parse_arrangement(AXES3)
    b = parse_arrangement(json.loads(json.dumps(AXES3)))
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert polymatroid_of(a) is polymatroid_of(b)
    assert a != parse_arrangement(AXES2)


def test_parse_respects_ground_set_cap():
    doc = {"ambient_dim": 1, "subspaces": [[]] * 17}
    with pytest.raises(SizeCapError):
        parse_arrangement(doc)


# -- caps from the environment ---------------------------------------------------


def test_caps_from_env_default():
    assert caps_from_env({}) == OracleCaps()


def test_caps_from_env_parses_entries():
    caps = caps_from_env({"EQUISYZ_CAPS": "m=6, d=5"})
    assert caps == OracleCaps(ambient_dim=6, degree=5)
    assert hash(caps) == hash(OracleCaps(6, 5))
    assert caps != OracleCaps(6, 4)
    assert caps_from_env({"EQUISYZ_CAPS": "d=6"}) == OracleCaps(4, 6)


def test_caps_from_env_rejects_garbage():
    # "²" passes str.isdigit but not int(), and int() refuses more digits
    # than the interpreter's conversion limit (4300 by default); n and t
    # are no caps: the degree cap bounds both
    for raw in ("zz=1", "m=²", "m=" + "9" * 5000, "n=5", "m=6,t=6"):
        with pytest.raises(InputError, match="cannot parse EQUISYZ_CAPS=.*; expected the keys m and d"):
            caps_from_env({"EQUISYZ_CAPS": raw})


# -- jobs ----------------------------------------------------------------------


def test_product_job_two_axes():
    cfg = JobConfig(parse_arrangement(AXES2), max_degree=4, oracle_degree=2, dim_v=2)
    report = run_job(cfg)
    assert report["status"] == "ok"
    assert report["regularity"] == {"symmetric": 2, "exterior": 2}
    sym = report["betti"]["symmetric"]["columns"]
    assert sym[2]["terms"] == [[[2, 2], 1], [[2, 1, 1], 3], [[1, 1, 1, 1], 3]]
    ext = report["betti"]["exterior"]["columns"]
    assert ext[2]["terms"] == [[[4], 3], [[3, 1], 3], [[2, 2], 1]]
    assert report["validations"] == {
        "linear_resolution": True,
        "oracle_product_match": True,
        "oracle_wedge_match": True,
    }


def test_job_rejects_truncation_below_t():
    cfg = JobConfig(parse_arrangement(AXES3), max_degree=2)
    with pytest.raises(InputError, match="truncation below generation degree"):
        run_job(cfg)


def test_job_rejects_full_space_member():
    doc = {"ambient_dim": 1, "subspaces": [[[1]]]}
    cfg = JobConfig(parse_arrangement(doc), max_degree=2)
    with pytest.raises(InputError):
        run_job(cfg)


@pytest.mark.parametrize("ideal, field, value", [
    ("product", "dim_v", "x"),
    ("product", "oracle_degree", "2"),
    ("product", "dim_v", 2.5),
    ("product", "max_degree", True),
    ("intersection", "caps", None),
    ("product", "arrangement", None),
], ids=["dim_v-str", "oracle_degree-str", "dim_v-float", "max_degree-bool", "caps-none",
        "arrangement-none"])
def test_job_config_field_of_the_wrong_type_is_input_error(monkeypatch, ideal, field, value):
    """A library caller's JobConfig field of the wrong type is named in an
    InputError before any work starts, not a TypeError or AttributeError
    from deep inside, nor another check's message."""
    started = []
    monkeypatch.setattr(cli, "polymatroid_of", started.append)
    cfg = JobConfig(parse_arrangement(AXES2), max_degree=3, ideal=ideal, oracle_degree=2)
    with pytest.raises(InputError) as info:
        run_job(cfg._replace(**{field: value}))
    kind = {"caps": "an OracleCaps", "arrangement": "an Arrangement"}.get(field, "an int")
    assert str(info.value) == f"JobConfig.{field} must be {kind}, got {value!r}"
    assert started == []


@pytest.mark.parametrize("caps, field, value", [
    (OracleCaps(degree="5"), "degree", "'5'"),
    (OracleCaps(-1, 4), "ambient_dim", "-1"),
    (OracleCaps(True, 4), "ambient_dim", "True"),
    (OracleCaps(4, 3.5), "degree", "3.5"),
], ids=["degree-str", "ambient_dim-negative", "ambient_dim-bool", "degree-float"])
def test_an_oracle_cap_that_is_no_nonnegative_int_is_refused(monkeypatch, caps, field, value):
    """A str cap raised a TypeError from the comparison, -1 and True refused
    every oracle job as a size past the cap, and 3.5 let the oracle run."""
    started = []
    monkeypatch.setattr(cli, "polymatroid_of", started.append)
    monkeypatch.setattr(oracle, "_Echelon", lambda: started.append("echelon"))
    arr = parse_arrangement({"ambient_dim": 3, "subspaces": [[[1, 0, 0]], [[0, 1, 0]]]})
    message = f"^OracleCaps.{field} must be nonnegative and an int, got {value}$"
    with pytest.raises(ValueError, match=message):
        run_job(JobConfig(arr, 3, oracle_degree=2, caps=caps))
    with pytest.raises(ValueError, match=message):
        oracle.product_ideal_character(arr, 3, caps)
    assert started == []


def test_oracle_job_without_dim_v_checks_at_its_degree():
    """With no --dim-v, the oracle check runs at dim V = --oracle-check."""
    cfg = JobConfig(parse_arrangement(AXES2), max_degree=3, oracle_degree=2)
    report = run_job(cfg)
    assert report["status"] == "ok"
    assert report["oracle"]["dim_v"] == 2
    assert report == run_job(cfg._replace(dim_v=2))


def test_intersection_job_three_axes():
    cfg = JobConfig(
        parse_arrangement(AXES3),
        max_degree=4,
        ideal="intersection",
        oracle_degree=4,
        dim_v=4,
    )
    report = run_job(cfg)
    assert report["status"] == "ok"
    assert report["generation_degree"] == 2
    assert report["regularity"]["symmetric"] == 2
    assert report["regularity"]["exterior"] == 2
    # H^e = sigma^3 - 3 sigma + 2 in degrees 2..4
    assert report["hilbert_series"]["terms"][:2] == [[[2], 3], [[1, 1], 3]]
    assert report["validations"]["oracle_containment"] is True


def test_intersection_job_computes_its_character_once(monkeypatch):
    """The series and the oracle section share one intersection character,
    made to degree D whatever --dim-v is; the section reads its degrees up
    to --oracle-check at dim V = --dim-v."""
    calls = []
    real = cli.intersection_ideal_character

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "intersection_ideal_character", counted)
    cfg = JobConfig(
        parse_arrangement(AXES3),
        max_degree=3,
        ideal="intersection",
        oracle_degree=2,
        dim_v=4,
    )
    report = run_job(cfg)
    assert [args[1:] for args in calls] == [(3,)]
    assert report["oracle"]["dim_v"] == 4
    assert [e["degree"] for e in report["oracle"]["degrees"]] == [1, 2]
    assert report["validations"]["oracle_containment"] is True


def test_intersection_job_reads_its_series_at_dim_v_d():
    """The intersection series does not depend on dim V, so its oracle
    eliminates at dim V = min(D, m), whatever --dim-v says when there is
    no oracle check."""
    cfg = JobConfig(parse_arrangement(AXES3), max_degree=4, ideal="intersection")
    report = run_job(cfg)
    assert report["status"] == "ok"
    for dim_v in (2, 4):
        assert run_job(cfg._replace(dim_v=dim_v)) == report


def test_nonlinear_intersection_reported_not_swallowed():
    # two axes of K^3: the intersection ideal mixes degree 1 and 2 generators
    doc = {"ambient_dim": 3, "subspaces": [[[1, 0, 0]], [[0, 1, 0]]]}
    cfg = JobConfig(
        parse_arrangement(doc), max_degree=3, ideal="intersection", dim_v=3
    )
    report = run_job(cfg)
    assert report["status"] == "validation_failed"
    assert report["validations"]["linear_resolution"] is False
    assert "linear" in report["linearity_error"]
    assert report["betti"] == {}


def test_reports_are_deterministic():
    cfg = JobConfig(parse_arrangement(AXES2), max_degree=4, oracle_degree=2, dim_v=2)
    a = render_report(run_job(cfg), "json")
    b = render_report(run_job(cfg), "json")
    assert a == b
    md = render_report(run_job(cfg), "markdown")
    assert md == render_report(run_job(cfg), "markdown")


def test_json_report_is_one_sorted_line_with_ranks_by_mask():
    """equisyz-report/2: the standard encoder's one line with sorted keys,
    and the polymatroid's ranks one list indexed by mask, bit i for
    subspace i: a line, a plane through it and the origin of Q^3."""
    doc = {"ambient_dim": 3, "subspaces": [[[1, 0, 0]], [[1, 0, 0], [0, 1, 0]], []]}
    report = run_job(JobConfig(parse_arrangement(doc), max_degree=3))
    text = render_json(report)
    assert text == json.dumps(report, sort_keys=True) + "\n"
    assert text.count("\n") == 1
    assert report["schema"] == "equisyz-report/2"
    ranks = [0, 2, 1, 2, 3, 3, 3, 3]
    assert json.loads(text)["polymatroid"] == {"ground_size": 3, "ranks": ranks}


def test_renderers_cover_all_formats():
    cfg = JobConfig(parse_arrangement(AXES2), max_degree=3)
    report = run_job(cfg)
    assert json.loads(render_report(report, "json"))["status"] == "ok"
    assert "Betti table" in render_report(report, "markdown")
    assert "\\begin{tabular}" in render_report(report, "latex")


# -- identities (a) and (b) through the whole job ---------------------------------


def _without_subspaces(report: dict) -> dict:
    return {**report, "input": {**report["input"], "subspaces": None}}


def _moved_by(g, arr: Arrangement) -> Arrangement:
    """g applied to the spanning vectors of every subspace."""
    m = arr.ambient_dim
    return Arrangement(m, tuple(
        Subspace(m, [[sum(a * x for a, x in zip(row, v)) for row in g] for v in s.echelon])
        for s in arr.subspaces
    ))


@st.composite
def product_jobs(draw):
    """A pooled arrangement of at most four proper subspaces of Q^m, m <= 4,
    and a truncation degree from t to 5."""
    m = draw(st.integers(1, 4))
    arr = draw(pooled_arrangements(m=m, dims=tuple(range(m)), min_t=1, max_t=4))
    return arr, draw(st.integers(len(arr.subspaces), 5))


@settings(max_examples=100, deadline=None)
@given(job=product_jobs(), data=st.data())
def test_moving_every_subspace_by_one_g_keeps_the_report(job, data):
    """(a) GL(W) through run_job: the report of g.A is that of A in every
    field but the input's subspaces, both Betti tables included."""
    arr, D = job
    m = arr.ambient_dim
    row = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
    g = data.draw(st.lists(row, min_size=m, max_size=m), label="g")
    assume(Subspace(m, g).dim == m)
    report = run_job(JobConfig(arr, D))
    moved = run_job(JobConfig(_moved_by(g, arr), D))
    assert _without_subspaces(moved) == _without_subspaces(report)


@settings(max_examples=100, deadline=None)
@given(job=product_jobs(), data=st.data())
def test_reordering_the_subspaces_permutes_the_ranks_and_keeps_the_report(job, data):
    """(b) Order through run_job: subspace i of the reordered arrangement is
    subspace order[i] of A, so its rank at a mask is A's at the mask with
    each bit i moved to order[i]; every other field but the subspaces is
    equal."""
    arr, D = job
    t = len(arr.subspaces)
    order = data.draw(st.permutations(range(t)), label="order")
    shuffled = Arrangement(arr.ambient_dim, tuple(arr.subspaces[i] for i in order))
    report, moved = run_job(JobConfig(arr, D)), run_job(JobConfig(shuffled, D))
    ranks = report["polymatroid"]["ranks"]
    assert moved["polymatroid"]["ranks"] == [
        ranks[sum(1 << order[i] for i in range(t) if mask >> i & 1)] for mask in range(1 << t)
    ]
    assert moved["input"]["subspaces"] == [report["input"]["subspaces"][i] for i in order]
    for r in (report, moved):
        r["polymatroid"]["ranks"] = None
    assert _without_subspaces(moved) == _without_subspaces(report)


def test_three_axes_moved_by_one_g_keep_the_intersection_report():
    """(a) on an intersection job, whose series the oracle computes."""
    arr = parse_arrangement(AXES3)
    g = [[1, 1, 0], [0, 1, 1], [1, 0, 2]]  # det 3
    report = run_job(JobConfig(arr, 3, ideal="intersection"))
    moved = run_job(JobConfig(_moved_by(g, arr), 3, ideal="intersection"))
    assert report["status"] == "ok"
    assert moved["input"]["subspaces"] != report["input"]["subspaces"]
    assert _without_subspaces(moved) == _without_subspaces(report)


# -- entry point ----------------------------------------------------------------


def write_doc(tmp_path, doc, name="arr.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_main_success_and_byte_identical_output(tmp_path):
    src = write_doc(tmp_path, AXES2)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["--input", src, "--max-degree", "4", "--oracle-check", "2", "--dim-v", "2"]
    assert main(argv + ["--output", str(out1)]) == EXIT_OK
    assert main(argv + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["status"] == "ok"


def test_main_verbose_leaves_the_report_alone(tmp_path):
    src = write_doc(tmp_path, AXES3)
    quiet = tmp_path / "quiet.json"
    loud = tmp_path / "loud.json"
    argv = ["--input", src, "--max-degree", "4", "--oracle-check", "4", "--dim-v", "4"]
    assert main(argv + ["--output", str(quiet)]) == EXIT_OK
    assert main(argv + ["--verbose", "--output", str(loud)]) == EXIT_OK
    assert quiet.read_bytes() == loud.read_bytes()


def python(*args):
    """A fresh interpreter that imports this checkout's ``src``."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, path])))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_the_package_root_exports_the_quickstart_and_loads_no_oracle():
    """``equisyz`` exports the README quickstart's functions and the types
    and errors they take, return or raise, and importing it in a fresh
    interpreter loads neither the oracle nor the CLI."""
    assert sorted(equisyz.__all__) == [
        "Arrangement", "BettiTable", "GenerationDegreeError", "LinearityError",
        "SchurSeries", "SizeCapError", "Subspace", "betti_from_series",
        "hilbert_product", "regularity", "sigma", "transpose_table",
    ]
    for name in equisyz.__all__:
        assert getattr(equisyz, name) is not None
    run = python("-c", "import sys, equisyz; print(*sorted(sys.modules))")
    loaded = set(run.stdout.split())
    assert (run.returncode, run.stderr) == (0, "")
    assert "equisyz" in loaded
    assert not loaded & {"equisyz.oracle", "equisyz.cli"}


def test_start_up_imports_and_verbose_logging(tmp_path):
    """``import equisyz.cli`` loads none of dataclasses, inspect and logging
    beyond a bare interpreter's modules; ``--verbose`` loads logging, writes
    one equisyz.oracle line per oracle and degree, and leaves the report alone."""
    listing = "import sys; print(*sorted(sys.modules))"
    bare = set(python("-c", listing).stdout.split())
    loaded = set(python("-c", "import equisyz.cli; " + listing).stdout.split())
    assert "equisyz.cli" in loaded
    assert not (loaded - bare) & {"dataclasses", "inspect", "logging"}

    doc = write_doc(tmp_path, AXES2)
    argv = ["-m", "equisyz.cli", "--input", doc, "--max-degree", "4",
            "--oracle-check", "2", "--dim-v", "2"]
    quiet = python(*argv)
    loud = python(*argv, "--verbose")
    assert (quiet.returncode, loud.returncode) == (EXIT_OK, EXIT_OK)
    assert quiet.stderr == ""
    assert loud.stdout == quiet.stdout
    records = [line.split(":", 2) for line in loud.stderr.splitlines()]
    assert [(level, name) for level, name, _ in records] == [("INFO", "equisyz.oracle")] * 6
    assert [message.split(":")[0] for _, _, message in records] == [
        f"{oracle} oracle degree {d}" for oracle in ("product", "wedge") for d in range(3)
    ]


def test_a_job_imports_only_what_it_runs(tmp_path):
    """A product job's ``main`` loads neither the oracle nor ``fractions`` nor
    ``decimal``; an intersection job loads the oracle but not ``fractions``."""
    axes = [[["1/2", 0, 0]], [[0, "-2/3", 0]], [[0, 0, 3]]]
    src = write_doc(tmp_path, {"ambient_dim": 3, "subspaces": axes})
    out = str(tmp_path / "report.json")
    script = (
        "import sys\n"
        "from equisyz.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *sorted(sys.modules))\n"
    )

    def loaded(*flags):
        run = python("-c", script, "--input", src, "--max-degree", "4", "--output", out, *flags)
        code, *modules = run.stdout.split()
        assert (code, run.stderr) == (str(EXIT_OK), "")
        return set(modules)

    product = loaded()
    assert "equisyz.cli" in product
    assert not product & {"equisyz.oracle", "fractions", "decimal"}
    intersection = loaded("--ideal", "intersection")
    assert "equisyz.oracle" in intersection
    assert "fractions" not in intersection


def test_a_job_reads_each_entry_once(tmp_path, monkeypatch):
    """``Subspace`` is the one reader: a product job reads every entry of its
    document once, in document order, a dependent vector included.  The
    parse, ``Subspace`` and the kernel each read every entry before."""
    subspaces = [
        [["1/2", 0, 0, 0]],
        [[0, "-2/3", 0, 1], [1, 1, "4/6", 0]],
        [[0, 0, 3, 0], [1, 0, 0, 0], ["-5/2", 0, 1, 0], [0, 1, 0, 0]],
        [],
    ]
    src = write_doc(tmp_path, {"ambient_dim": 4, "subspaces": subspaces})
    read = []

    def counted(value):
        read.append(value)
        return read_rational(value)

    monkeypatch.setattr(linalg, "read_rational", counted)
    out = str(tmp_path / "report.json")
    assert main(["--input", src, "--max-degree", "4", "--output", out]) == EXIT_OK
    assert read == [x for vectors in subspaces for vec in vectors for x in vec]


def test_main_missing_file_is_input_error(tmp_path):
    assert main(["--input", str(tmp_path / "nope.json"), "--max-degree", "3"]) == EXIT_INPUT


def test_main_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    for content in (b"{not json", b"\xff{}"):
        path.write_bytes(content)
        assert main(["--input", str(path), "--max-degree", "3"]) == EXIT_INPUT


def test_main_deeply_nested_json_is_input_error(tmp_path, capsys):
    """The decoder raises RecursionError, not ValueError, past its depth."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main(["--input", str(path), "--max-degree", "3"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path} is not valid JSON: ")
    assert "Traceback" not in err


def test_main_decimal_entry_is_input_error(tmp_path, capsys):
    """A decimal string exits 2 with the entry named and no traceback."""
    src = write_doc(tmp_path, {"ambient_dim": 2, "subspaces": [[["0.5", 1]]]})
    assert main(["--input", src, "--max-degree", "1"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: entry '0.5' is not a rational number (use integers or 'p/q' strings)\n"
    )


@pytest.mark.parametrize("target", ["missing/dir/r.json", "."])
def test_main_unwritable_output_is_input_error(tmp_path, capsys, target):
    """A missing directory, or a directory in place of a file, exits 2."""
    src = write_doc(tmp_path, AXES2)
    out = tmp_path / target
    assert main(["--input", src, "--max-degree", "3", "--output", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"input error: cannot write {out}: " in err
    assert "Traceback" not in err


def test_main_unwritable_output_fails_before_the_job(tmp_path, capsys, monkeypatch):
    """An oracle job whose --output directory is missing exits 2 without
    running the job, and creates nothing."""
    ran = []
    monkeypatch.setattr(cli, "run_job", lambda cfg: ran.append(cfg))
    src = write_doc(tmp_path, AXES2)
    out = tmp_path / "nonexistent" / "dir" / "r.json"
    argv = ["--input", src, "--max-degree", "3", "--oracle-check", "2", "--dim-v", "2"]
    assert main(argv + ["--output", str(out)]) == EXIT_INPUT
    assert ran == []
    assert not (tmp_path / "nonexistent").exists()
    err = capsys.readouterr().err
    assert f"input error: cannot write {out}: [Errno 2] No such file or directory" in err


def test_main_low_truncation_is_input_error(tmp_path):
    src = write_doc(tmp_path, AXES3)
    assert main(["--input", src, "--max-degree", "2"]) == EXIT_INPUT


def test_main_negative_oracle_check_is_input_error(tmp_path, capsys):
    src = write_doc(tmp_path, AXES2)
    argv = ["--input", src, "--max-degree", "3", "--oracle-check", "-2", "--dim-v", "2"]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--oracle-check degree must be nonnegative" in err
    assert "Traceback" not in err


def test_main_negative_dim_v_is_input_error(tmp_path, capsys):
    src = write_doc(tmp_path, AXES2)
    assert main(["--input", src, "--max-degree", "3", "--dim-v", "-5"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--dim-v must be nonnegative" in err
    assert "Traceback" not in err


def test_main_product_oracle_check_below_t_is_input_error(capsys):
    """A product job's oracle check compares degrees t and up, so one below
    t = 3 compared nothing yet reported both matches; it exits 2 and names
    t.  At t it runs, and an intersection job's check below t compares
    degrees 1 and 2; that job exits 1 for its series, which has no linear
    resolution."""
    src = str(Path(__file__).resolve().parent / "golden" / "two_planes_and_line.json")
    argv = ["--input", src, "--max-degree", "4", "--oracle-check"]
    assert main(argv + ["2"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: oracle check below generation degree: --oracle-check 2 < t = 3\n"
    )
    assert main(argv + ["3"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert [e["degree"] for e in report["oracle"]["degrees"]] == [3]
    assert main(argv + ["2", "--ideal", "intersection"]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert [e["degree"] for e in report["oracle"]["degrees"]] == [1, 2]


def test_main_value_error_below_run_job_is_validation_failure(
    tmp_path, capsys, monkeypatch
):
    def broken(series, d):
        raise ValueError("weight table is no character")

    monkeypatch.setattr(cli, "character_to_schur", broken)
    src = write_doc(tmp_path, AXES2)
    argv = ["--input", src, "--max-degree", "3", "--oracle-check", "2", "--dim-v", "2"]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation failed: weight table is no character" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("doc, ideal, expected", [
    (AXES3, "intersection", [(3, 1), (3, 2)]),  # degrees 1..oracle_degree
    (AXES2, "product", [(3, 2)]),  # degrees t..oracle_degree
], ids=["intersection", "product"])
def test_the_report_derives_weights_only_for_the_degrees_it_writes(
    monkeypatch, doc, ideal, expected
):
    """Only the oracle section of the report reads weights, and it derives
    the table of each degree it writes at the check's dim V: none without
    --oracle-check, and none above its degree, though the job's series
    runs to degree 3."""
    real = oracle.dominant_weights
    asked = []

    def recorded(series, n, d):
        asked.append((n, d))
        return real(series, n, d)

    monkeypatch.setattr(oracle, "dominant_weights", recorded)
    cfg = JobConfig(arrangement=parse_arrangement(doc), max_degree=3, ideal=ideal, dim_v=3)
    run_job(cfg)
    assert asked == []
    report = run_job(cfg._replace(oracle_degree=2))
    assert sorted(set(asked)) == expected
    assert [e["degree"] for e in report["oracle"]["degrees"]] == [d for _, d in expected]


def test_intersection_below_the_product_fails_containment(monkeypatch):
    """At degree 3 the intersection of the three axes of Q^3 equals their
    product.  One dimension less at the dominant weight (1,1,1) takes the
    s[1,1,1] term out of the series, which stays a character with a linear
    resolution, and only the containment verdict turns false."""
    real = cli.intersection_ideal_character

    def lowered(arr, d_max, caps):
        return real(arr, d_max, caps=caps) - SchurSeries({(1, 1, 1): 1}, degree=d_max)

    monkeypatch.setattr(cli, "intersection_ideal_character", lowered)
    cfg = JobConfig(
        arrangement=parse_arrangement(AXES3), max_degree=3, ideal="intersection",
        oracle_degree=3, dim_v=3,
    )
    report = run_job(cfg)
    verdicts = [e["product_contained_in_intersection"] for e in report["oracle"]["degrees"]]
    assert verdicts == [True, True, False]
    assert report["validations"] == {
        "linear_resolution": True,
        "oracle_containment": False,
        "oracle_product_match": True,
        "oracle_wedge_match": True,
    }
    assert report["status"] == "validation_failed"


def test_main_intersection_job_in_degree_zero(tmp_path, capsys):
    """t = 0 and D = 0: the series is read at dim V = 1, not 0, and the
    report is the one --dim-v 1 gives."""
    src = write_doc(tmp_path, {"ambient_dim": 1, "subspaces": []})
    argv = ["--input", src, "--max-degree", "0", "--ideal", "intersection"]
    outputs = []
    for flags in ([], ["--dim-v", "1"]):
        assert main(argv + flags) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0].out)["hilbert_series"]["terms"] == [[[], 1]]


def test_main_intersection_job_ignores_dim_v_past_the_cap(tmp_path, capsys, monkeypatch):
    """Without --oracle-check an intersection job reads no --dim-v, so one
    past the degree cap exits 0; with --oracle-check it exits 3, before the
    polymatroid is built, and the message names the value and the cap."""
    src = write_doc(tmp_path, AXES3)
    argv = ["--input", src, "--max-degree", "3", "--ideal", "intersection"]
    assert main(argv) == EXIT_OK
    plain = capsys.readouterr()
    assert main(argv + ["--dim-v", "5"]) == EXIT_OK
    assert capsys.readouterr() == plain
    started = []
    monkeypatch.setattr(cli, "polymatroid_of", started.append)
    assert main(argv + ["--dim-v", "5", "--oracle-check", "3"]) == EXIT_CAP
    assert started == []
    assert capsys.readouterr().err == (
        "size cap: dim V = 5 exceeds the oracle's degree cap d = 4\n"
    )


def test_main_lists_weights_at_a_dim_v_below_the_oracle_degree(capsys):
    """Each oracle eliminates at its own dim V and every verdict compares
    Schur series, so --dim-v below --oracle-check only lists the weights at
    that n: the job exits 0 with every validation true.  Without --dim-v it
    lists them at the check degree n = 4 and writes the golden report of
    --dim-v 4."""
    golden = Path(__file__).resolve().parent / "golden"
    argv = ["--input", str(golden / "two_planes_and_line.json"), "--max-degree", "4",
            "--side", "both", "--oracle-check", "4"]
    assert main(argv + ["--dim-v", "2"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["validations"] == {
        "linear_resolution": True, "oracle_product_match": True, "oracle_wedge_match": True,
    }
    section = report["oracle"]
    assert section["dim_v"] == 2
    weights = [w for entry in section["degrees"]
               for key in ("product_weights", "wedge_weights") for w, _ in entry[key]]
    assert weights and {len(w) for w in weights} == {2}
    assert main(argv) == EXIT_OK
    derived = capsys.readouterr().out
    assert derived == (golden / "two_planes_and_line.out.json").read_text()
    full = json.loads(derived)["oracle"]["degrees"]
    for entry, wide in zip(section["degrees"], full):
        assert entry["product_schur"] == wide["product_schur"]
        assert entry["wedge_schur"] == wide["wedge_schur"]


@pytest.mark.parametrize("case, doc, flags", [
    ("two_planes_and_line_n6", "two_planes_and_line", [
        "--max-degree", "6", "--oracle-check", "6", "--side", "both",
    ]),
    ("intersection_seed1_n8", "intersection_seed1", ["--max-degree", "8", "--ideal", "intersection"]),
], ids=["product", "intersection"])
def test_main_raising_the_degree_cap_alone_runs_the_job(capsys, monkeypatch, case, doc, flags):
    """No oracle runs at a dim V above its degree, so EQUISYZ_CAPS=d=D
    alone runs a job at degree D: the product and wedge oracles at D = 6,
    with dim V = 6 derived for the report, and an intersection job at
    D = 8, each giving its golden report."""
    golden = Path(__file__).resolve().parent / "golden"
    monkeypatch.setenv("EQUISYZ_CAPS", f"d={flags[1]}")
    assert main(["--input", str(golden / f"{doc}.json"), *flags]) == EXIT_OK
    assert capsys.readouterr().out == (golden / f"{case}.out.json").read_text()


def _line_of_digits(digits: int) -> list:
    """A line of Q^32 whose entries have ``digits`` digits, numerators and
    denominators summed (30 zeros over 1 take 60): its RREF entry p*q has
    digits - 62."""
    q = int("7" * ((digits - 62) // 2))
    p = int("9" * (digits - 62 - len(str(q))))
    return [f"1/{q}", str(p)] + [0] * 30


def test_main_subspace_digit_cap(tmp_path, capsys, monkeypatch):
    """A subspace whose entries pass MAX_SUBSPACE_DIGITS in all exits 3
    with the cap named, before any elimination; at the cap the job runs and
    writes an RREF entry of 4188 digits.  29 vectors of Q^32 with 200-digit
    entries once ran 5 s and exited 1 with Python's own text, as the RREF
    they make passes the 4300 digits an int converts to str."""
    import random

    m = MAX_AMBIENT_DIM
    rng = random.Random(12)
    wide = [[str(rng.randrange(10 ** 199, 10 ** 200)) for _ in range(m)] for _ in range(29)]
    at_cap = _line_of_digits(MAX_SUBSPACE_DIGITS)
    src = write_doc(tmp_path, {"ambient_dim": m, "subspaces": [[at_cap]]})
    assert main(["--input", src, "--max-degree", "1"]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out)["input"]["subspaces"][0]
    assert max(len(x) for x in row) == MAX_SUBSPACE_DIGITS - 62
    eliminated = []
    monkeypatch.setattr(linalg, "_echelon", lambda *args: eliminated.append(args))
    for vectors, digits in (([_line_of_digits(MAX_SUBSPACE_DIGITS + 1)], 4251), (wide, 186528)):
        src = write_doc(tmp_path, {"ambient_dim": m, "subspaces": [[[1] + [0] * 31], vectors]})
        assert main(["--input", src, "--max-degree", "2"]) == EXIT_CAP
        assert capsys.readouterr().err == (
            f"size cap: subspace 1: entries of {digits} digits exceed the cap of "
            f"{MAX_SUBSPACE_DIGITS} digits per subspace\n"
        )
    assert len(eliminated) == 2  # the first subspace's, twice
    with pytest.raises(SizeCapError, match="entries of 186528 digits exceed the cap"):
        Subspace(m, wide)


def test_main_size_cap_exit(tmp_path, monkeypatch):
    src = write_doc(tmp_path, {"ambient_dim": 5, "subspaces": [[[1, 0, 0, 0, 0]]]})
    argv = ["--input", src, "--max-degree", "2", "--oracle-check", "1", "--dim-v", "1"]
    assert main(argv) == EXIT_CAP
    monkeypatch.setenv("EQUISYZ_CAPS", "m=5")
    out = tmp_path / "r.json"
    assert main(argv + ["--output", str(out)]) == EXIT_OK


def test_main_degree_past_the_cap_exits_at_once(tmp_path, capsys, monkeypatch):
    """One degree past MAX_DEGREE exits 3 before any work starts."""
    started = []
    monkeypatch.setattr(cli, "polymatroid_of", started.append)
    src = write_doc(tmp_path, AXES2)
    assert main(["--input", src, "--max-degree", str(MAX_DEGREE + 1)]) == EXIT_CAP
    assert started == []
    assert f"exceeds the truncation cap {MAX_DEGREE}" in capsys.readouterr().err


@pytest.mark.parametrize("caps, flags, message", [
    ("", ["--ideal", "intersection", "--dim-v", "13"], "ambient dimension m = 32"),
    ("", ["--oracle-check", "2", "--dim-v", "2"], "ambient dimension m = 32"),
    ("m=32", ["--ideal", "intersection", "--dim-v", "13", "--oracle-check", "2"],
     "maximum degree = 13"),
])
def test_main_oracle_cap_exits_before_the_formula_side(
    tmp_path, capsys, monkeypatch, caps, flags, message
):
    """13 lines in Q^32 past an oracle cap exit 3 before the polymatroid is
    built; an intersection job's oracle runs to --max-degree."""
    monkeypatch.setenv("EQUISYZ_CAPS", caps)
    started = []
    monkeypatch.setattr(cli, "polymatroid_of", started.append)
    m = MAX_AMBIENT_DIM
    lines = [[[int(j == i) for j in range(m)]] for i in range(13)]
    src = write_doc(tmp_path, {"ambient_dim": m, "subspaces": lines})
    assert main(["--input", src, "--max-degree", "13", *flags]) == EXIT_CAP
    assert started == []
    assert f"{message} exceeds the oracle cap" in capsys.readouterr().err


def test_main_ambient_dim_past_the_cap_exits_before_parsing(tmp_path, capsys, monkeypatch):
    """One dimension past MAX_AMBIENT_DIM exits 3 before any subspace is
    built, so before any entry is read."""
    line = {"ambient_dim": MAX_AMBIENT_DIM, "subspaces": [[[1] * MAX_AMBIENT_DIM]]}
    assert parse_arrangement(line).ambient_dim == MAX_AMBIENT_DIM
    parsed = []
    monkeypatch.setattr(cli, "Subspace", lambda *args: parsed.append(args))
    m = MAX_AMBIENT_DIM + 1
    src = write_doc(tmp_path, {"ambient_dim": m, "subspaces": [[["x"] * m]]})
    assert main(["--input", src, "--max-degree", "1"]) == EXIT_CAP
    assert parsed == []
    assert f"ambient dimension {m} exceeds the cap {MAX_AMBIENT_DIM}" in capsys.readouterr().err


def test_run_job_refuses_an_ambient_dim_past_the_cap():
    """A library caller's arrangement past MAX_AMBIENT_DIM is refused when
    it is built, with the parse's message, so no job can be configured."""
    m = 2 * MAX_AMBIENT_DIM
    line = Subspace(m, [[1] + [0] * (m - 1)])
    with pytest.raises(SizeCapError) as exc:
        Arrangement(m, (line,))
    assert str(exc.value) == f"ambient dimension {m} exceeds the cap {MAX_AMBIENT_DIM}"


def test_main_subspace_count_past_the_cap_exits_before_parsing(tmp_path, capsys, monkeypatch):
    """One subspace past MAX_GROUND_SET exits 3 before any subspace is
    built, so before any entry is read."""
    origins = {"ambient_dim": 1, "subspaces": [[]] * MAX_GROUND_SET}
    assert len(parse_arrangement(origins).subspaces) == MAX_GROUND_SET
    parsed = []
    monkeypatch.setattr(cli, "Subspace", lambda *args: parsed.append(args))
    t = MAX_GROUND_SET + 1
    src = write_doc(tmp_path, {"ambient_dim": 1, "subspaces": [[["x"]]] * t})
    assert main(["--input", src, "--max-degree", str(t)]) == EXIT_CAP
    assert parsed == []
    assert f"{t} subspaces; the subset recursion is capped at {MAX_GROUND_SET}" in (
        capsys.readouterr().err
    )


def test_main_validation_failure_exit(tmp_path):
    doc = {"ambient_dim": 3, "subspaces": [[[1, 0, 0]], [[0, 1, 0]]]}
    src = write_doc(tmp_path, doc)
    out = tmp_path / "r.json"
    code = main(
        [
            "--input", src,
            "--max-degree", "3",
            "--ideal", "intersection",
            "--dim-v", "3",
            "--output", str(out),
        ]
    )
    assert code == EXIT_VALIDATION
    report = json.loads(out.read_text())
    assert report["status"] == "validation_failed"
