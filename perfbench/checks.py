"""Output checks for one CLI job, run outside the timed region.

A job passes when it exits with the expected code, prints no traceback and
its report holds what the mathematics says it must:

* product jobs: exit 0, every validation true, regularity t on both
  sides, exterior columns equal to the conjugated symmetric columns, and
  ``series_from_betti(table, m)`` equal to the reported Hilbert series;
* intersection jobs: every dominant weight's dimension in the reported
  series equals the dimension of the intersection of the factors' weight
  spaces, computed densely from explicit vanishing conditions; the
  expected exit code is 0 when that reference series has a linear
  resolution and 1 when it does not.

The checks import the program from ``src/`` of the checkout.  The dense
reference shares no code with ``equisyz.oracle``.
"""

from __future__ import annotations

import json
from itertools import product as cartesian

from equisyz.betti import (
    BettiTable,
    GenerationDegreeError,
    LinearityError,
    betti_from_series,
    series_from_betti,
)
from equisyz.cli import parse_arrangement
from equisyz.linalg import row_reduce
from equisyz.partitions import conjugate, kostka_number, partitions_of
from equisyz.schur import SchurSeries


def _conjugated(pairs) -> list:
    return sorted([conjugate(tuple(lam)), c] for lam, c in pairs)


def product_misses(doc: dict, max_degree: int, code: int, stdout: str, stderr: str) -> list[str]:
    """Reasons a product job's output is wrong; empty when it is right."""
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    if code != 0:
        return [f"exit code {code}, expected 0"]
    report = json.loads(stdout)
    misses = []
    if report["status"] != "ok" or not all(report["validations"].values()):
        misses.append(f"validations {report['validations']}")
    t = len(doc["subspaces"])
    if report["regularity"] != {"symmetric": t, "exterior": t}:
        misses.append(f"regularity {report['regularity']}, expected {t} on both sides")
    sym = report["betti"]["symmetric"]["columns"]
    ext = report["betti"]["exterior"]["columns"]
    if [_conjugated(c["terms"]) for c in sym] != [
        sorted([tuple(lam), c] for lam, c in col["terms"]) for col in ext
    ]:
        misses.append("exterior columns differ from the conjugated symmetric columns")
    table = BettiTable(
        t,
        tuple(SchurSeries.from_pairs(c["terms"], degree=max_degree) for c in sym),
    )
    hseries = SchurSeries.from_pairs(
        report["hilbert_series"]["terms"], degree=max_degree
    )
    if series_from_betti(table, doc["ambient_dim"]) != hseries:
        misses.append("series_from_betti(table, m) differs from the reported series")
    return misses


# -- intersection reference ----------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _expand(alpha, basis) -> dict:
    """Coefficients in s_1..s_r of prod_j (sum_l basis[l][j] s_l)^alpha[j]."""
    poly = {(0,) * len(basis): 1}
    for j, e in enumerate(alpha):
        for _ in range(e):
            out: dict = {}
            for beta, c in poly.items():
                for l, b in enumerate(basis):
                    if b[j]:
                        key = beta[:l] + (beta[l] + 1,) + beta[l + 1 :]
                        out[key] = out.get(key, 0) + c * b[j]
            poly = out
    return poly


def _vanishing_conditions(basis, m: int, w, labels) -> list[list]:
    """Linear conditions cutting out the weight-w part of the vanishing ideal
    of Y tensor V, Y = span(basis), inside the weight-w polynomials.

    A polynomial lies in that ideal exactly when it vanishes after
    substituting z[j,i] = sum_l s[l,i] basis[l][j]; each coefficient of the
    substituted polynomial is one condition, one row here.
    """
    columns = [
        {alpha: _expand(alpha, basis) for alpha in _compositions(wi, m)} for wi in w
    ]
    rows: dict = {}
    for k, label in enumerate(labels):
        parts = [columns[i][alpha].items() for i, alpha in enumerate(label)]
        for choice in cartesian(*parts):
            c = 1
            for _, coeff in choice:
                c *= coeff
            if c:
                row = rows.setdefault(tuple(beta for beta, _ in choice), [0] * len(labels))
                row[k] += c
    return list(rows.values())


def _dense_dimension(bases, m: int, w) -> int:
    """dim of (J_1 cap ... cap J_t) at V-weight w.

    Each J_k at weight w is the annihilator of its conditions, so the
    intersection is the annihilator of all conditions stacked - the identity
    ``equisyz.linalg.intersect`` computes, fed the annihilators directly.
    """
    labels = list(cartesian(*(list(_compositions(wi, m)) for wi in w)))
    stacked = [row for b in bases for row in _vanishing_conditions(b, m, w, labels)]
    return len(labels) - row_reduce(stacked)[1]


def _dominant_weights(d: int, n: int):
    for lam in partitions_of(d, max_parts=n):
        yield lam + (0,) * (n - len(lam))


def reference_intersection(doc: dict, dim_v: int, max_degree: int) -> dict:
    """Dense dimension of every dominant weight space, degree 0..max_degree."""
    arr = parse_arrangement(doc)
    m = arr.ambient_dim
    bases = [s.basis for s in arr.subspaces]
    return {
        w: _dense_dimension(bases, m, w)
        for d in range(max_degree + 1)
        for w in _dominant_weights(d, dim_v)
    }


def _schur_from_dominant(dims: dict, max_degree: int) -> SchurSeries:
    """Invert the unitriangular Kostka matrix on dominant weights."""
    coeffs = {}
    for w in sorted(dims, key=lambda w: (sum(w), w), reverse=True):
        lam = tuple(x for x in w if x)
        coeffs[lam] = dims[w] - sum(
            c * kostka_number(mu, lam) for mu, c in coeffs.items() if sum(mu) == sum(lam)
        )
    return SchurSeries(coeffs, degree=max_degree)


def _weight_dimension(pairs, w) -> int:
    lam_w = tuple(x for x in w if x)
    return sum(c * kostka_number(tuple(lam), lam_w) for lam, c in pairs if sum(lam) == sum(w))


def intersection_misses(
    reference: dict, doc: dict, max_degree: int, code: int, stdout: str, stderr: str
) -> list[str]:
    """Reasons an intersection job's output is wrong; empty when it is right."""
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    true_series = _schur_from_dominant(reference, max_degree)
    try:
        betti_from_series(true_series, doc["ambient_dim"], true_series.min_degree())
        expected = 0
    except (LinearityError, GenerationDegreeError):
        expected = 1
    if code != expected:
        return [f"exit code {code}, expected {expected}"]
    pairs = json.loads(stdout)["hilbert_series"]["terms"]
    reported = {w: _weight_dimension(pairs, w) for w in reference}
    return [
        f"weight {w}: {reported[w]} reported, {dim} true"
        for w, dim in reference.items()
        if reported[w] != dim
    ]
