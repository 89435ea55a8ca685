"""Fuzz ``cli.main`` with random and malformed documents, flags and
``EQUISYZ_CAPS`` strings.

Every run must end with an exit code in {0, 1, 2, 3}, no exception may
escape ``main`` (argparse's ``SystemExit`` is its exit code 2), and a rerun
must give byte-identical stdout, stderr and exit code.  Sizes reach one step
past every cap: the ground set (``MAX_GROUND_SET``), the ambient dimension
(``MAX_AMBIENT_DIM``), the truncation degree (``MAX_DEGREE``) and the
oracle's default caps.  Below the caps the sizes
stay small, so the whole test runs in a few seconds.  Each fault is drawn
rarely, so that most inputs reach ``run_job``.
"""

import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from equisyz.arrangements import MAX_AMBIENT_DIM, MAX_DEGREE, MAX_GROUND_SET
from equisyz.cli import CAPS_ENV_VAR, main

BAD_ENTRIES = ["1/0", "x", "²", "0.5", "1e10000000", 0.5, None, True, [1]]


def rarely(draw) -> bool:
    """True about one time in ten; away from the bounds, which hypothesis
    draws more often than the rest."""
    return draw(st.integers(0, 99)) in range(50, 60)


@st.composite
def documents(draw):
    """The bytes of a document file, most of them a well-formed arrangement."""
    if rarely(draw):
        return draw(st.binary(max_size=20))
    m = draw(st.integers(1, 5))
    if rarely(draw):  # one past the ground-set cap, and nothing else wrong
        doc = {"ambient_dim": m, "subspaces": [[]] * (MAX_GROUND_SET + 1)}
    else:
        entry = st.sampled_from([-2, -1, 0, 1, 2, "1/2", "-2/3"])
        if rarely(draw):
            entry = st.one_of(entry, st.sampled_from(BAD_ENTRIES))
        length = st.integers(m - 1, m + 1) if rarely(draw) else st.just(m)
        vector = length.flatmap(lambda n: st.lists(entry, min_size=n, max_size=n))
        subspaces = draw(st.lists(st.lists(vector, max_size=2), max_size=3))
        doc = {"ambient_dim": m, "subspaces": subspaces}
        if rarely(draw):
            doc["ambient_dim"] = draw(
                st.sampled_from([0, -1, "2", 1.5, True, MAX_AMBIENT_DIM + 1])
            )
        if rarely(draw):
            del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(doc).encode()
    return text[:-1] if rarely(draw) else text


@st.composite
def flags(draw):
    degree = draw(st.integers(2, 4))
    if rarely(draw):
        degree = draw(st.sampled_from([-1, 0, MAX_DEGREE + 1, 10**6]))
    d = min(max(degree, 0), 4)
    at_most_d, at_least_d = st.integers(0, d), st.integers(d, 4)
    if rarely(draw):
        at_most_d = at_least_d = st.integers(-1, 4)
    argv = ["--max-degree", str(degree)]
    argv += draw(st.sampled_from([[], ["--side", "symmetric"], ["--side", "exterior"]]))
    argv += draw(st.sampled_from([[], ["--format", "markdown"], ["--format", "latex"]]))
    intersection = draw(st.booleans())
    if intersection:
        argv += ["--ideal", "intersection"]
    check = draw(at_most_d) if draw(st.booleans()) else 0
    if check:
        argv += ["--oracle-check", str(check)]
    if (intersection or check) and draw(st.booleans()) or rarely(draw):
        argv += ["--dim-v", str(draw(at_least_d))]
    if rarely(draw):
        argv += draw(st.sampled_from([["--bogus"], ["--dim-v", "x"], ["--format", "yaml"]]))
    return argv


@st.composite
def caps_strings(draw):
    if draw(st.booleans()):
        return None
    if rarely(draw):
        printable = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
        return draw(st.text(printable, max_size=8))
    value = st.sampled_from(["3", "4", "5", "99"])
    if rarely(draw):
        value = st.sampled_from(["²", "-1", "", "x", "9" * 5000])
    key = st.sampled_from("mdntz" if rarely(draw) else "md")  # n and t are no caps
    return ",".join(draw(st.lists(st.tuples(key, value).map("=".join), max_size=3)))


def run(argv, caps):
    env = {k: v for k, v in os.environ.items() if k != CAPS_ENV_VAR}
    if caps is not None:
        env[CAPS_ENV_VAR] = caps
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejecting a flag
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=documents(), argv=flags(), caps=caps_strings())
def test_cli_exits_cleanly_and_reproducibly(tmp_path_factory, data, argv, caps):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(data)
    argv = ["--input", str(path), *argv]
    first = run(argv, caps)
    assert first[0] in (0, 1, 2, 3), first
    event(f"exit {first[0]}")
    assert run(argv, caps) == first
