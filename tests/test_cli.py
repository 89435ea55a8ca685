import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from equisyz import cli
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
    render_report,
    run_job,
)
from equisyz.errors import SizeCapError
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
    # Fraction reads these; the document format has no decimals or exponents
    for entry in ("0.5", "1e10000000"):
        with pytest.raises(InputError, match="is not a rational number"):
            parse_arrangement({"ambient_dim": 2, "subspaces": [[[entry, 1]]]})


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


def test_job_rejects_oracle_without_dim_v():
    cfg = JobConfig(parse_arrangement(AXES2), max_degree=3, oracle_degree=2)
    with pytest.raises(InputError):
        run_job(cfg)


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
    """The series and the oracle section share one intersection character;
    the section reads its degrees up to --oracle-check."""
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
        dim_v=3,
    )
    report = run_job(cfg)
    assert len(calls) == 1
    assert [e["degree"] for e in report["oracle"]["degrees"]] == [1, 2]
    assert report["validations"]["oracle_containment"] is True


def test_intersection_job_requires_enough_dim_v():
    cfg = JobConfig(
        parse_arrangement(AXES3), max_degree=4, ideal="intersection", dim_v=2
    )
    with pytest.raises(InputError):
        run_job(cfg)


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


def test_start_up_imports_and_verbose_logging(tmp_path):
    """``import equisyz.cli`` loads none of dataclasses, inspect and logging
    beyond a bare interpreter's modules; ``--verbose`` loads logging, writes
    one equisyz.oracle line per oracle and degree, and leaves the report alone."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, path])))

    def python(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
        )

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


def test_main_missing_file_is_input_error(tmp_path):
    assert main(["--input", str(tmp_path / "nope.json"), "--max-degree", "3"]) == EXIT_INPUT


def test_main_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    for content in (b"{not json", b"\xff{}"):
        path.write_bytes(content)
        assert main(["--input", str(path), "--max-degree", "3"]) == EXIT_INPUT


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


def test_main_ambient_dim_past_the_cap_exits_before_parsing(tmp_path, capsys, monkeypatch):
    """One dimension past MAX_AMBIENT_DIM exits 3 before any entry is read."""
    line = {"ambient_dim": MAX_AMBIENT_DIM, "subspaces": [[[1] * MAX_AMBIENT_DIM]]}
    assert parse_arrangement(line).ambient_dim == MAX_AMBIENT_DIM
    parsed = []
    monkeypatch.setattr(cli, "_parse_entry", parsed.append)
    m = MAX_AMBIENT_DIM + 1
    src = write_doc(tmp_path, {"ambient_dim": m, "subspaces": [[["x"] * m]]})
    assert main(["--input", src, "--max-degree", "1"]) == EXIT_CAP
    assert parsed == []
    assert f"ambient dimension {m} exceeds the cap {MAX_AMBIENT_DIM}" in capsys.readouterr().err


def test_main_subspace_count_past_the_cap_exits_before_parsing(tmp_path, capsys, monkeypatch):
    """One subspace past MAX_GROUND_SET exits 3 before any entry is read."""
    origins = {"ambient_dim": 1, "subspaces": [[]] * MAX_GROUND_SET}
    assert len(parse_arrangement(origins)) == MAX_GROUND_SET
    parsed = []
    monkeypatch.setattr(cli, "_parse_entry", parsed.append)
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
