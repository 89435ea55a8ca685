import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisyz import cli, linalg
from equisyz.arrangements import MAX_AMBIENT_DIM, MAX_DEGREE, MAX_GROUND_SET, polymatroid_of
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
from equisyz.linalg import Subspace, read_rational, row_reduce, scaled_numerators
from equisyz.oracle import OracleCaps

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
    caps = caps_from_env({"EQUISYZ_CAPS": "m=6, n=5,d=6,t=5"})
    assert caps == OracleCaps(ambient_dim=6, dim_v=5, degree=6, subspaces=5)
    assert hash(caps) == hash(OracleCaps(6, 5, 6, 5))
    assert caps != OracleCaps(6, 5, 6, 4)


def test_caps_from_env_rejects_garbage():
    # "²" passes str.isdigit but not int(), and int() refuses more digits
    # than the interpreter's conversion limit (4300 by default)
    for raw in ("zz=1", "m=²", "m=" + "9" * 5000):
        with pytest.raises(InputError, match="cannot parse EQUISYZ_CAPS"):
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
    made at dim V = D whatever --dim-v is; the section reads its degrees up
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
    assert [args[1:3] for args in calls] == [(3, 3)]
    assert report["oracle"]["dim_v"] == 4
    assert [e["degree"] for e in report["oracle"]["degrees"]] == [1, 2]
    assert report["validations"]["oracle_containment"] is True


def test_intersection_job_reads_its_series_at_dim_v_d():
    """The intersection series does not depend on dim V, so a job reads it
    at dim V = D, whatever --dim-v says when there is no oracle check."""
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


def test_renderers_cover_all_formats():
    cfg = JobConfig(parse_arrangement(AXES2), max_degree=3)
    report = run_job(cfg)
    assert json.loads(render_report(report, "json"))["status"] == "ok"
    assert "Betti table" in render_report(report, "markdown")
    assert "\\begin{tabular}" in render_report(report, "latex")


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_json_writer_matches_json_dumps_on_every_report(monkeypatch, tmp_path):
    """Every golden job and every seed 1-3 benchmark document: the report
    that main builds is written exactly as json.dumps writes it."""
    import test_golden

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run as bench

    jobs = [
        (
            test_golden.GOLDEN / f"{test_golden.DOCUMENTS.get(case, case)}.json",
            flags,
            test_golden.ENVIRONMENTS.get(case, {}),
        )
        for case, (_, flags) in test_golden.CASES.items()
    ]
    for name, workload in bench.WORKLOADS.items():
        for seed in (1, 2, 3):
            for i, doc in enumerate(bench.documents(name, workload, seed)):
                path = write_doc(tmp_path, doc, f"{name}-{seed}-{i}.json")
                jobs.append((path, workload.flags, {}))
    reports = []
    monkeypatch.setattr(cli, "run_job", lambda cfg: reports.append(run_job(cfg)) or reports[-1])
    for path, flags, env in jobs:
        with monkeypatch.context() as job_env:
            for var, value in env.items():
                job_env.setenv(var, value)
            main(["--input", str(path), *flags, "--output", str(tmp_path / "report")])
    assert len(reports) == len(jobs) == len(test_golden.CASES) + 99
    for report in reports:
        assert render_json(report) == _dumps(report)


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=-(10**18))
    | st.text()
)
# lists shaped like Schur terms and rank rows, and near misses to them: a
# bool, None or str for an int, a tuple for a list, a third item or key
_ALMOST_INT = st.integers(min_value=-3, max_value=12) | st.sampled_from([True, False, None, "1"])
_ALMOST_INTS = st.lists(st.integers(min_value=0, max_value=9), max_size=3) | st.lists(
    _ALMOST_INT, max_size=3
) | st.tuples(st.integers())
_ROW_SHAPED = st.lists(
    st.lists(_ALMOST_INTS | _ALMOST_INT, min_size=1, max_size=3)
    | st.fixed_dictionaries({"rank": _ALMOST_INT, "subset": _ALMOST_INTS})
    | st.dictionaries(st.sampled_from(["rank", "subset", "x"]), _ALMOST_INTS | _ALMOST_INT),
    min_size=1,
    max_size=4,
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _ROW_SHAPED,
    lambda inner: st.lists(inner)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps_on_nested_values(value):
    # non-ASCII and control characters, empty containers, large negative
    # ints, bools beside ints, and lists the row templates nearly fit
    assert render_json(value) == _dumps(value)


@pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": [set()]}, b"x"])
def test_json_writer_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        render_json(value)


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


def test_main_value_error_below_run_job_is_validation_failure(
    tmp_path, capsys, monkeypatch
):
    def broken(char, d):
        raise ValueError("weight table is no character")

    monkeypatch.setattr(cli, "character_to_schur", broken)
    src = write_doc(tmp_path, AXES2)
    argv = ["--input", src, "--max-degree", "3", "--oracle-check", "2", "--dim-v", "2"]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation failed: weight table is no character" in captured.err
    assert "Traceback" not in captured.err


def test_an_intersection_job_without_oracle_check_derives_no_weights(monkeypatch):
    """Only the oracle section of the report reads weights, so the character
    that gives an intersection job its series keeps its Schur coefficients
    and derives no weight table unless asked."""
    real = cli.intersection_ideal_character
    built = []

    def recorded(arr, n, d_max, caps):
        built.append(real(arr, n, d_max, caps=caps))
        return built[-1]

    monkeypatch.setattr(cli, "intersection_ideal_character", recorded)
    cfg = JobConfig(
        arrangement=parse_arrangement(AXES3), max_degree=3, ideal="intersection", dim_v=3
    )
    run_job(cfg)
    (char,) = built
    assert "weights" not in vars(char)
    assert char.weights[3] and "weights" in vars(char)


def test_intersection_below_the_product_fails_containment(monkeypatch):
    """At degree 3 the intersection of the three axes of Q^3 equals their
    product.  One dimension less at the dominant weight (1,1,1) takes the
    s[1,1,1] term out of the series, which stays a character with a linear
    resolution, and only the containment verdict turns false."""
    real = cli.intersection_ideal_character

    def lowered(arr, n, d_max, caps):
        char = real(arr, n, d_max, caps=caps)
        char.coeffs[3][(1, 1, 1)] -= 1
        return char

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


def test_main_intersection_job_ignores_dim_v_past_the_cap(tmp_path, capsys):
    """Without --oracle-check an intersection job reads no --dim-v, so one
    past the n cap exits 0; with --oracle-check it exits 3."""
    src = write_doc(tmp_path, AXES3)
    argv = ["--input", src, "--max-degree", "3", "--ideal", "intersection"]
    assert main(argv) == EXIT_OK
    plain = capsys.readouterr()
    assert main(argv + ["--dim-v", "5"]) == EXIT_OK
    assert capsys.readouterr() == plain
    assert main(argv + ["--dim-v", "5", "--oracle-check", "3"]) == EXIT_CAP
    assert "dim V = 5 exceeds the oracle cap 4" in capsys.readouterr().err


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
    ("m=32,n=13", ["--ideal", "intersection", "--dim-v", "13", "--oracle-check", "2"],
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


def test_main_subspace_count_past_the_cap_exits_before_parsing(tmp_path, capsys, monkeypatch):
    """One subspace past MAX_GROUND_SET exits 3 before any subspace is
    built, so before any entry is read."""
    origins = {"ambient_dim": 1, "subspaces": [[]] * MAX_GROUND_SET}
    assert len(parse_arrangement(origins)) == MAX_GROUND_SET
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
