"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: Schur
product coefficients are rederived from scratch by counting semistandard
fillings and peeling weight tables, so they can certify the tableau-based
Littlewood-Richardson implementation.  The weight tables of product, wedge
and intersection ideals are rederived with Fraction elimination on the
unscaled annihilator forms, and with dense vanishing conditions, so they
can certify the fraction-free kernel of ``equisyz.linalg``; the
oracle's first loops, which eliminate every weight of every degree and
span it by every form combo times every monomial, are kept too, to
certify the dominant tables and their orbits, the Kostka fill past m parts
and the spanning of each degree from the previous one.  The first
intersection loop takes each factor's nullspace and ranks their stack
with ``FractionEchelon``, so it shares no elimination code with the
oracle's restriction ranks.  The
formula side keeps its first implementation here too: the polymatroid
ranks by the ``Fraction`` RREF of the stacked nullspaces, the subset
recursions for P and H at full truncation degree, and powers of sigma as
chains of general Littlewood-Richardson products, to certify the Moebius
inversion and the dense passes of sigma.  The Pieri kernel that the dense
index replaced is kept as well: dict series, every term's horizontal or
signed vertical strips built from its rows, and the first strip
enumeration (vertical strips as conjugates of the conjugate's horizontal
strips), to certify the strip lists of ``graded_index``.  So is the dict
that held a series before its dense vector, ``DictSeries``, to certify the
vector's order, slices and entrywise operations.  ``row_reduce`` and the
nullspace read off its RREF, ``_nullspace``, are the references for the
RREF and the normal rows that ``Subspace`` reads off the integer kernel.
The product and wedge spanning on sorted variable tuples, before the
oracle packed its monomials into ints, is kept as ``tuple_span_coeffs``
with its product ``tuple_times_form`` and renaming ``tuple_renamed``, to
certify the packed keys, their order and their signs.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, groupby, permutations, product

from hypothesis import strategies as st

from equisyz.arrangements import Arrangement, Polymatroid, hilbert_product, polymatroid_of
from equisyz.linalg import Subspace, _Echelon, row_reduce
from equisyz.oracle import _dominant_weights, dominant_weights, kostka_peel
from equisyz.partitions import conjugate
from equisyz.schur import SchurSeries, sigma, times_sigma_power


# -- arrangements used throughout ------------------------------------------


def origin_copies(t: int) -> Arrangement:
    """t copies of the zero subspace of K^1 (powers of the maximal ideal)."""
    return Arrangement(1, (Subspace(1),) * t)


def axes(m: int, indices=None) -> Arrangement:
    """Coordinate axes of K^m (all of them unless indices are given)."""
    indices = range(m) if indices is None else indices
    subs = tuple(
        Subspace(m, [[int(i == j) for j in range(m)]]) for i in indices
    )
    return Arrangement(m, subs)


def plane_and_normal_line() -> Arrangement:
    plane = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    line = Subspace(3, [[0, 0, 1]])
    return Arrangement(3, (plane, line))


def lines_in_plane(t: int) -> Arrangement:
    """t distinct lines in K^2."""
    spans = [[1, 0], [0, 1], [1, 1], [1, -1], [1, 2], [2, 1]][:t]
    subs = tuple(Subspace(2, [v]) for v in spans)
    return Arrangement(2, subs)


NONZERO = [Fraction(x) for x in ("1", "2", "1/2", "1/3", "2/3", "3/2")]


@st.composite
def pooled_arrangements(draw, m=3, dims=(2,), min_t=2, max_t=3):
    """Subspaces of Q^m of the given dimensions (planes of Q^3 unless told
    otherwise), each spanned by vectors from one small rational pool, so
    that they meet non-generically: subspaces through a common line, equal
    subspaces, a line inside a plane."""
    entry = st.sampled_from([Fraction(0)] + NONZERO + [-x for x in NONZERO])
    pool = draw(
        st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m + 1)
    )

    def span(k):
        return st.lists(
            st.sampled_from(range(len(pool))), min_size=k, max_size=k, unique=True
        )

    subs = draw(
        st.lists(st.sampled_from(dims).flatmap(span), min_size=min_t, max_size=max_t)
    )
    return Arrangement(
        m, tuple(Subspace(m, [pool[i] for i in idx]) for idx in subs)
    )


def worked_product_arrangements():
    """The worked product-ideal examples: name, arrangement, generation degree."""
    return [
        ("origin t=1", origin_copies(1)),
        ("origin t=2", origin_copies(2)),
        ("origin t=3", origin_copies(3)),
        ("two axes in K^2", axes(2)),
        ("plane + normal line", plane_and_normal_line()),
        ("three axes in K^3", axes(3)),
    ]


# -- independent combinatorial oracles --------------------------------------


def dominates(lam, mu) -> bool:
    """Dominance order: every prefix sum of lam is at least that of mu.

    Only meaningful for equal sizes; returns False otherwise.
    """
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return a == b


def ssyt_count(shape, content) -> int:
    """Count semistandard fillings by direct row-by-row enumeration.

    Independent reimplementation (different traversal and pruning) used to
    certify the library's Kostka numbers.
    """
    cells = sum(shape)
    if cells != sum(content):
        return 0
    rows = len(shape)

    def rec(r, c, remaining, grid):
        if r == rows:
            return 1
        if c == shape[r]:
            return rec(r + 1, 0, remaining, grid)
        total = 0
        for v in range(1, len(content) + 1):
            if remaining[v - 1] == 0:
                continue
            if c > 0 and grid[r][c - 1] > v:
                continue
            if r > 0 and grid[r - 1][c] >= v:
                continue
            remaining[v - 1] -= 1
            grid[r][c] = v
            total += rec(r, c + 1, remaining, grid)
            remaining[v - 1] += 1
        return total

    grid = [[0] * w for w in shape]
    return rec(0, 0, list(content), grid)


def weights_of_schur(lam, n) -> dict:
    """Weight table of s_lam in n variables via the independent SSYT counter."""
    d = sum(lam)
    table = {}
    for w in compositions(d, n):
        count = ssyt_count(lam, w)
        if count:
            table[w] = count
    return table


def compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def peel_weight_table(table, d, n) -> dict:
    """Schur coefficients from a weight table, by greedy lex peeling.

    Standalone counterpart of the library routine, kept separate so the two
    can check each other.
    """
    residual = {w: m for w, m in table.items() if m}
    out = {}
    while residual:
        top = max(w for w in residual if tuple(sorted(w, reverse=True)) == w)
        mult = residual[top]
        assert mult > 0, f"negative multiplicity {mult} at {top}"
        lam = tuple(p for p in top if p)
        out[lam] = mult
        for w, count in weights_of_schur(lam, n).items():
            v = residual.get(w, 0) - mult * count
            if v:
                residual[w] = v
            else:
                residual.pop(w, None)
    return out


@cache
def schur_product_coefficients(mu, nu) -> dict:
    """Expansion of s_mu * s_nu derived purely from weight tables."""
    d = sum(mu) + sum(nu)
    n = max(d, 1)
    wmu = weights_of_schur(mu, n)
    wnu = weights_of_schur(nu, n)
    table = {}
    for a, ca in wmu.items():
        for b, cb in wnu.items():
            w = tuple(x + y for x, y in zip(a, b))
            table[w] = table.get(w, 0) + ca * cb
    return peel_weight_table(table, d, n)


def is_horizontal_strip(lam, mu, k) -> bool:
    """lam/mu is a horizontal strip of size k: no column gains two cells."""
    if sum(lam) != sum(mu) + k:
        return False
    if len(mu) > len(lam) or any(mu[i] > lam[i] for i in range(len(mu))):
        return False
    for i in range(1, len(lam)):
        upper = mu[i - 1] if i - 1 < len(mu) else 0
        if lam[i] > upper:
            return False
    return True


def dominant_part(table) -> dict:
    """The entries of a weight table at its dominant (weakly decreasing) weights."""
    return {w: c for w, c in table.items() if list(w) == sorted(w, reverse=True)}


def orbit_expanded(table) -> dict:
    """Every weight of a dominant table: each dimension copied to every
    permutation of its weight, by ``itertools.permutations``."""
    return {p: c for w, c in table.items() for p in set(permutations(w))}


def assert_dominant_table(table, every, *context):
    """``table`` holds the dominant weights of the every-weight table
    ``every``, and expanding its orbits gives ``every`` back."""
    assert table == dominant_part(every), context
    assert orbit_expanded(table) == every, context


def symmetric_orbit_ok(table, n) -> bool:
    """Every permutation of a weight carries the same multiplicity."""
    for w in table:
        canon = tuple(sorted(w, reverse=True))
        vals = {table.get(p, 0) for p in set(permutations(canon))}
        if len(vals) != 1:
            return False
    return True


# -- slow references for the brute-force oracle -----------------------------


class FractionEchelon:
    """Incremental echelon form over sparse Fraction rows with unit pivots,
    the slow counterpart of the oracle's fraction-free elimination.  Its
    rank is read, its rows as a row basis of what was added, and its
    nullspace."""

    def __init__(self):
        self.rows = {}

    def add(self, row) -> bool:
        work = {k: Fraction(v) for k, v in row.items() if v}
        while work:
            lead = min(work)
            piv = self.rows.get(lead)
            if piv is None:
                c = work[lead]
                self.rows[lead] = {k: v / c for k, v in work.items()}
                return True
            f = work[lead]
            for k, v in piv.items():
                w = work.get(k, 0) - f * v
                if w:
                    work[k] = w
                else:
                    work.pop(k, None)
        return False

    def nullspace(self, ncols: int) -> list[dict]:
        """Basis of the vectors of Q^ncols orthogonal to every row added,
        one per free column.  The rows are first fully reduced, last pivot
        first, so that each holds no other pivot column; the vector of free
        column f is then e_f minus the sum over pivots p of row_p[f] e_p."""
        rows = self.rows
        for p in sorted(rows, reverse=True):
            for q, row in rows.items():
                f = row.get(p) if q < p else None
                if f:
                    for k, v in rows[p].items():
                        w = row.get(k, 0) - f * v
                        if w:
                            row[k] = w
                        else:
                            del row[k]
        out = []
        for free in range(ncols):
            if free not in rows:
                vec = {free: Fraction(1)}
                vec.update((p, -row[free]) for p, row in rows.items() if free in row)
                out.append(vec)
        return out


def _nullspace(rref_rows, ncols: int) -> list[tuple]:
    """Basis of the right nullspace of a matrix already in ``Fraction`` RREF,
    one vector per free column: the reference for ``Subspace.normal_rows``
    and ``Subspace.annihilator``."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in rref_rows if any(row)]
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rref_rows[r][free]
        out.append(tuple(vec))
    return out


def forms_per_factor(arr: Arrangement, n: int) -> list:
    """Each factor's degree-one forms as pairs (i, {var: coeff}): a normal
    row of the subspace tensored with e_i, so of pure V-weight e_i, with
    variable j*n + i standing for z[j,i].  Factor k has (m - dim Y_k) * n
    of them, every coefficient an integer."""
    return [
        [(i, {j * n + i: c for j, c in row.items()}) for row in sub.normal_rows() for i in range(n)]
        for sub in arr.subspaces
    ]


def _fraction_forms(arr: Arrangement, n: int):
    """Each factor's degree-one forms, with the Fraction coefficients of the
    annihilator's RREF, taken by ``row_reduce``; variable j*n + i is z[j,i]."""
    m = arr.ambient_dim
    return [
        [
            {j * n + i: c for j, c in enumerate(a) if c}
            for a in row_reduce(_nullspace(sub.basis, m))[0]
            for i in range(n)
        ]
        for sub in arr.subspaces
    ]


def _weight(mono, n: int) -> tuple:
    w = [0] * n
    for v in mono:
        w[v % n] += 1
    return tuple(w)


def _times_variable(poly: dict, v: int, c, exterior: bool) -> dict:
    """poly * c z_v; monomials are sorted variable tuples, and on the
    exterior side z_v is wedged on the right."""
    out: dict = {}
    for mono, a in poly.items():
        if exterior and v in mono:
            continue
        key = tuple(sorted(mono + (v,)))
        sign = -1 if exterior and sum(u > v for u in mono) % 2 else 1
        out[key] = out.get(key, 0) + sign * a * c
    return {k: x for k, x in out.items() if x}


def _times_form(poly: dict, form: dict, exterior: bool) -> dict:
    out: dict = {}
    for v, c in form.items():
        for mono, a in _times_variable(poly, v, c, exterior).items():
            out[mono] = out.get(mono, 0) + a
    return {k: x for k, x in out.items() if x}


def reference_renamed(elem: dict, perm, exterior: bool) -> dict:
    """elem with every z[j,k] renamed z[j,perm[k]]: each monomial rebuilt
    from its renamed variables, multiplied in one at a time."""
    n = len(perm)
    out: dict = {}
    for mono, c in elem.items():
        image = {(): c}
        for v in mono:
            image = _times_variable(image, v - v % n + perm[v % n], 1, exterior)
        for key, a in image.items():
            out[key] = out.get(key, 0) + a
    return {k: x for k, x in out.items() if x}


def reference_span_weights(arr: Arrangement, n: int, d: int, exterior: bool) -> dict:
    """Weight table of the degree-d piece of J_1(V)...J_t(V), or of the
    wedge ideal when ``exterior``: one form per factor times a monomial,
    ranked weight by weight with :class:`FractionEchelon`."""
    nvars = arr.ambient_dim * n
    t = len(arr.subspaces)
    if d < t:
        return {}
    pick = combinations if exterior else combinations_with_replacement
    buckets: dict = {}
    for choice in product(*_fraction_forms(arr, n)):
        for rest in pick(range(nvars), d - t):
            poly = {(): Fraction(1)}
            for form in choice:
                poly = _times_form(poly, form, exterior)
            for v in rest:
                poly = _times_variable(poly, v, 1, exterior)
            if poly:
                w = _weight(next(iter(poly)), n)
                buckets.setdefault(w, FractionEchelon()).add(poly)
    return {w: len(e.rows) for w, e in buckets.items() if e.rows}


def _substituted(mono, basis, n: int) -> dict:
    """mono(z) at z[j,i] = sum_l s[l,i] basis[l][j], as {s-monomial: coeff}
    with s[l,i] numbered l*n + i."""
    poly = {(): Fraction(1)}
    for v in mono:
        j, i = divmod(v, n)
        form = {l * n + i: b[j] for l, b in enumerate(basis) if b[j]}
        poly = _times_form(poly, form, exterior=False)
    return poly


def reference_intersection_weights(arr: Arrangement, n: int, d: int) -> dict:
    """Weight table of the degree-d piece of J_1(V) cap ... cap J_t(V).

    A polynomial lies in J_k(V) exactly when it vanishes on Y_k tensor V,
    that is when every coefficient of its substitution at a general point
    of Y_k tensor V is zero.  Each weight space's dimension is its number
    of monomials minus the dense rank of all factors' conditions stacked.
    """
    m = arr.ambient_dim
    table = {}
    for w in compositions(d, n):
        labels = [
            mono
            for mono in combinations_with_replacement(range(m * n), d)
            if _weight(mono, n) == w
        ]
        rows = []
        for sub in arr.subspaces:
            conditions: dict = {}
            for col, mono in enumerate(labels):
                for key, c in _substituted(mono, sub.basis, n).items():
                    conditions.setdefault(key, [0] * len(labels))[col] += c
            rows.extend(conditions.values())
        dim = len(labels) - row_reduce(rows)[1]
        if dim:
            table[w] = dim
    return table


def _weight_monomials(w, m: int, n: int, exterior: bool = False):
    """Sorted variable-index tuples of the monomials of weight w, in the
    exterior algebra when ``exterior``; the every-weight references label
    their rows with these."""
    pick = combinations if exterior else combinations_with_replacement
    per_column = [list(pick(range(m), wi)) for wi in w]
    for choice in product(*per_column):
        yield tuple(sorted(j * n + i for i, col in enumerate(choice) for j in col))


def all_weights_span(arr: Arrangement, n: int, d_max: int, exterior: bool) -> dict:
    """Weight tables by degree of the product ideal, or of the wedge ideal
    when ``exterior``, as the oracle first computed them: every combo of
    one form per factor times every monomial, bucketed by the weight it
    lands in, and every bucket row reduced."""
    m = arr.ambient_dim
    t = len(arr.subspaces)
    forms = forms_per_factor(arr, n)
    weights = {}
    for d in range(d_max + 1):
        buckets: dict = {}
        for combo in product(*forms):
            base = [0] * n
            for i, _ in combo:
                base[i] += 1
            for w_rest in compositions(d - t, n):
                w = tuple(a + b for a, b in zip(base, w_rest))
                for mono in _weight_monomials(w_rest, m, n, exterior):
                    elem = {(): 1}
                    for form in [f for _, f in combo] + [{v: 1} for v in mono]:
                        elem = _times_form(elem, form, exterior)
                    if elem:
                        buckets.setdefault(w, _Echelon()).add(elem)
        weights[d] = {w: e.rank for w, e in buckets.items() if e.rank}
    return weights


def all_weights_intersection(arr: Arrangement, n: int, d_max: int) -> dict:
    """Weight tables by degree of the intersection ideal as the oracle
    first computed them: every weight of every degree, each the common
    nullspace of the factors' spans.  Each span is eliminated by
    :class:`FractionEchelon`, which reads off its nullspace, and a second
    one ranks the stacked nullspaces."""
    m = arr.ambient_dim
    forms = forms_per_factor(arr, n)
    weights = {}
    for d in range(d_max + 1):
        table = {}
        for w in compositions(d, n):
            column = {mono: k for k, mono in enumerate(_weight_monomials(w, m, n))}
            last = len(column) - 1
            stack = FractionEchelon()
            for factor_forms in forms:
                # the span takes the columns in reverse, so the free column
                # of each nullspace vector, the last of its support there,
                # leads it in the stack: distinct free columns reduce nothing
                span = FractionEchelon()
                for i, form in factor_forms:
                    if w[i]:
                        w_minus = tuple(x - (k == i) for k, x in enumerate(w))
                        for mono in _weight_monomials(w_minus, m, n):
                            poly = _times_form({mono: 1}, form, exterior=False)
                            span.add({last - column[key]: c for key, c in poly.items()})
                for vec in span.nullspace(len(column)):
                    stack.add({last - k: c for k, c in vec.items()})
            dim = len(column) - len(stack.rows)
            if dim:
                table[w] = dim
        weights[d] = table
    return weights


def tuple_times_form(elem: dict, form: dict, exterior: bool) -> dict:
    """elem times a linear form {var: coeff}, the oracle's product before its
    monomials were packed.  A monomial of either algebra is its sorted tuple
    of variables (variable j*n + i is z[j,i]); on the exterior side each
    variable is wedged on the right, so it takes the sign of the variables
    it passes, and a repeated variable gives zero."""
    out: dict = {}
    for mono, c in elem.items():
        for v, a in form.items():
            pos = bisect_left(mono, v)
            if exterior:
                if pos < len(mono) and mono[pos] == v:
                    continue
                if (len(mono) - pos) % 2:
                    a = -a
            key = mono[:pos] + (v,) + mono[pos:]
            val = out.get(key, 0) + c * a
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def tuple_renamed(elem: dict, perm, exterior: bool) -> dict:
    """elem with every z[j,k] renamed z[j,perm[k]], on sorted variable
    tuples; each monomial is sorted again, and on the exterior side picks up
    the sign of that sorting."""
    n = len(perm)
    out = {}
    for mono, c in elem.items():
        vs = [v - v % n + perm[v % n] for v in mono]
        if exterior and sum(a > b for x, a in enumerate(vs) for b in vs[x + 1:]) % 2:
            c = -c
        out[tuple(sorted(vs))] = c
    return out


def tuple_span_coeffs(arr: Arrangement, n: int, d_max: int, exterior: bool) -> dict:
    """Schur coefficients by degree of the product ideal, or of the wedge
    ideal if ``exterior``, as the oracle spanned them on sorted variable
    tuples: I_0 is the unit and I_d = I_{d-1} J_d, J_d the maximal ideal
    past t, and I_{d,w} is spanned by each normal row of step d at each
    V-index i times the stored basis of the dominant permutation of
    w - e_i, renamed into place, and every dominant weight at n is
    eliminated; the reference for the packed monomials of
    ``equisyz.oracle``."""
    t = len(arr.subspaces)
    steps = [sub.normal_rows() for sub in arr.subspaces]
    maximal = Subspace(arr.ambient_dim).normal_rows()
    prev: dict = {(0,) * n: [{(): 1}]}

    def spanned(w, step):
        if not any(w):
            yield from prev[w]
        for i in range(n):
            if w[i]:
                u = w[:i] + (w[i] - 1,) + w[i + 1:]
                perm = sorted(range(n), key=lambda k: -u[k])
                p = tuple(u[k] for k in perm)
                forms = [{j * n + i: c for j, c in row.items()} for row in step]
                for elem in prev.get(p, ()):
                    moved = elem if p == u else tuple_renamed(elem, perm, exterior)
                    for form in forms:
                        yield tuple_times_form(moved, form, exterior)

    coeffs: dict = {}
    for d in range(d_max + 1):
        span = d >= t or (0 < d and d_max >= t)
        dominant = _dominant_weights(d, n) if span else []
        step = steps[d - 1] if 0 < d <= t else maximal
        bases = {}
        for w in dominant:
            ech = _Echelon()
            for row in spanned(w, step):
                if row:
                    ech.add(row)
            if ech.rank:
                bases[w] = list(ech.rows.values())
        table = {w: len(basis) for w, basis in bases.items()}
        coeffs[d] = kostka_peel(table, d, n) if d >= t else {}
        if span:
            prev = bases
    return coeffs


# -- slow references for the formula side ------------------------------------


class DictSeries:
    """A truncated Schur series as a dict of its nonzero coefficients, the
    representation before the dense vector: every operation rebuilds the
    dict from (partition, coefficient) pairs, summed and truncated."""

    def __init__(self, pairs, degree: int):
        coeffs: dict = {}
        for lam, c in pairs:
            if sum(lam) <= degree:
                coeffs[lam] = coeffs.get(lam, 0) + c
        self.coeffs = {lam: c for lam, c in coeffs.items() if c}
        self.degree = degree

    def items(self) -> list:
        """Sorted by size, then by the negated parts (reverse-lex)."""
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), [-p for p in kv[0]]))

    def __add__(self, other):
        pairs = [*self.coeffs.items(), *other.coeffs.items()]
        return DictSeries(pairs, min(self.degree, other.degree))

    def scaled(self, k: int):
        return DictSeries([(lam, k * c) for lam, c in self.coeffs.items()], self.degree)

    def __mul__(self, other):
        pairs = [
            (lam, a * b * c)
            for mu, a in self.coeffs.items()
            for nu, b in other.coeffs.items()
            if sum(mu) + sum(nu) <= min(self.degree, other.degree)
            for lam, c in schur_product_coefficients(mu, nu).items()
        ]
        return DictSeries(pairs, min(self.degree, other.degree))

    def omega(self):
        return DictSeries([(conjugate(lam), c) for lam, c in self.coeffs.items()], self.degree)

    def truncate(self, k: int):
        return DictSeries(self.coeffs.items(), k)

    def graded_part(self, d: int):
        return DictSeries([(lam, c) for lam, c in self.coeffs.items() if sum(lam) == d], d)

    def min_degree(self):
        return min(map(sum, self.coeffs), default=None)


def reference_horizontal_strips(lam, budget: int) -> list:
    """Every mu such that mu/lam is a horizontal strip of at most ``budget``
    cells: lam padded with one zero row, lam_i <= mu_i <= lam_(i-1) row by
    row, then the zero row filtered out again."""
    out = []

    def extend(i, left, prefix):
        if i > len(lam):
            out.append(tuple(p for p in prefix if p))
            return
        low = lam[i] if i < len(lam) else 0
        high = low + left if i == 0 else min(lam[i - 1], low + left)
        for v in range(low, high + 1):
            extend(i + 1, left - (v - low), prefix + (v,))

    extend(0, budget, ())
    return out


def reference_pieri_terms(lam, budget: int, inverse: bool) -> list:
    """(mu, sign) terms of s_lam * sigma, or of s_lam * sigma^-1 when
    ``inverse``, through the conjugate round trip: a vertical strip of lam
    is the conjugate of a horizontal strip of lam', with sign (-1)^size."""
    if not inverse:
        return [(mu, 1) for mu in reference_horizontal_strips(lam, budget)]
    return [
        (conjugate(mu), (-1) ** (sum(mu) - sum(lam)))
        for mu in reference_horizontal_strips(conjugate(lam), budget)
    ]


@cache
def pieri_terms(lam, budget: int, inverse: bool) -> tuple:
    """Expansion of s_lam * sigma, or of s_lam * sigma^-1 when ``inverse``,
    keeping the terms that add at most ``budget`` cells; every mu is built
    directly from the rows of lam.

    sigma = sum of h_j adds every horizontal strip: row i of mu runs from
    lam_i up to lam_(i-1), and one new row runs from 0 up to the last row
    of lam.  sigma^-1 = sum of (-1)^j e_j adds every vertical strip, with
    sign (-1)^size: each row gains at most one cell, and a row may gain
    only if the row above is longer or gains too.  So in each block of
    equal rows of lam only the top rows gain, and any number of new rows
    of length 1 go below lam.  The blocks are taken from the bottom up.
    """
    if inverse:
        terms = [((1,) * a, a) for a in range(budget + 1)]  # (mu so far, cells)
        for length, rows in groupby(reversed(lam)):
            size = len(list(rows))
            tops = [
                ((length + 1,) * a + (length,) * (size - a), a) for a in range(size + 1)
            ]
            terms = [
                (top + below, cells + a)
                for below, cells in terms
                for top, a in tops
                if cells + a <= budget
            ]
        return tuple((mu, -1 if cells % 2 else 1) for mu, cells in terms)
    terms = [((), budget)]  # (mu so far, cells left)
    cap = budget + (lam[0] if lam else 0)  # row 0 is bounded by the budget alone
    for low in lam:
        terms = [
            (head + (v,), left - (v - low))
            for head, left in terms
            for v in range(low, min(cap, low + left) + 1)
        ]
        cap = low
    return tuple(
        (head + (v,) if v else head, 1)
        for head, left in terms
        for v in range(min(cap, left) + 1)
    )


def reference_times_sigma_power(series: SchurSeries, k: int) -> SchurSeries:
    """series * sigma^k truncated at ``series.degree`` on dict series, one
    Pieri factor sigma (k > 0) or sigma^-1 (k < 0) at a time, every term's
    strips added with their signs: the kernel before the dense index."""
    D = series.degree
    coeffs = dict(series.coeffs)
    for _ in range(abs(k)):
        acc = {}
        for lam, c in coeffs.items():
            for mu, sign in pieri_terms(lam, D - sum(lam), k < 0):
                acc[mu] = acc.get(mu, 0) + sign * c
        coeffs = {mu: c for mu, c in acc.items() if c}
    return SchurSeries(coeffs, degree=D)


@cache
def reference_sigma_power(degree: int, k: int) -> SchurSeries:
    """sigma(degree) ** k as a chain of general Littlewood-Richardson
    products; negative k goes through the closed form of the inverse,
    sigma^-1 = sum_j (-1)^j s_(1^j) (Macdonald I.2, H(t) E(-t) = 1)."""
    if k == 0:
        return SchurSeries({(): 1}, degree=degree)
    if k == -1:
        return SchurSeries({(1,) * j: (-1) ** j for j in range(degree + 1)}, degree=degree)
    if k < 0:
        return reference_sigma_power(degree, k + 1) * reference_sigma_power(degree, -1)
    return reference_sigma_power(degree, k - 1) * sigma(degree)


@cache
def sigma_power(degree: int, k: int) -> SchurSeries:
    """Cached sigma(degree) ** k by the Pieri kernel; negative k means
    powers of the inverse."""
    return times_sigma_power(SchurSeries({(): 1}, degree=degree), k)


def low_part(series: SchurSeries, k: int) -> SchurSeries:
    """The terms of degree <= k, as the sum of the graded parts 0..k; the
    window stays that of ``series``."""
    return sum((series.graded_part(d) for d in range(1, k + 1)), series.graded_part(0))


def weight_dimension(series: SchurSeries, n: int, d: int) -> int:
    """Dimension of the degree-d part in n variables: the multiplicities of
    every weight, each dominant weight's orbit expanded."""
    return sum(orbit_expanded(dominant_weights(series, n, d)).values())


def reference_unit_inverse(unit: SchurSeries) -> SchurSeries:
    """The inverse of a series with constant term c = +1 or -1, up to its
    window D, by the geometric series c * sum_k (-c r)^k with r = unit - c:
    r has no constant term, so k <= D suffices (Horner in -c r)."""
    c = unit.graded_part(0)
    step = -c * (unit - c)
    acc = c
    for _ in range(unit.degree):
        acc = c + step * acc
    return acc


def lines_first_disagreement(arr: Arrangement, truncation: int) -> int | None:
    """First degree >= t where H differs from sigma^m - t*sigma, or None.

    Only defined for arrangements of t distinct lines; the leading-term
    statement says the two agree above the low-degree correction.
    """
    t = len(arr.subspaces)
    if any(s.dim != 1 for s in arr.subspaces):
        raise ValueError("arrangement must consist of one-dimensional subspaces")
    if len(set(arr.subspaces)) != t:
        raise ValueError("lines must be pairwise distinct")
    D = truncation
    h = hilbert_product(arr, D)
    model = sigma_power(D, arr.ambient_dim) - t * sigma(D)
    for d in range(t, D + 1):
        if h.graded_part(d) != model.graded_part(d):
            return d
    return None


def reference_ranks(arr: Arrangement) -> list[int]:
    """Polymatroid ranks by the ``Fraction`` RREF: for every mask, the
    ``row_reduce`` rank of the ``Fraction`` nullspaces of its subspaces'
    bases stacked."""
    normals = [_nullspace(s.basis, arr.ambient_dim) for s in arr.subspaces]
    ranks = []
    for mask in range(1 << len(normals)):
        rows = [row for i, basis in enumerate(normals) if mask >> i & 1 for row in basis]
        ranks.append(row_reduce(rows)[1])
    return ranks


def reference_p(pm: Polymatroid, mask: int, D: int, memo=None) -> SchurSeries:
    """Correction polynomial P(B) by the subset recursion at full degree D:
    the degree <= |B|-1 part of
      - sum over proper subsets C of (-1)^(|B|-|C|) sigma^(rk B - rk C) P(C)."""
    memo = {} if memo is None else memo
    if mask == 0:
        return SchurSeries({(): 1}, degree=D)
    if mask in memo:
        return memo[mask]
    size = mask.bit_count()
    rank_b = pm.ranks[mask]
    total = SchurSeries({}, degree=D)
    sub = (mask - 1) & mask
    while True:
        term = reference_sigma_power(D, rank_b - pm.ranks[sub]) * reference_p(
            pm, sub, D, memo
        )
        if (size - sub.bit_count()) % 2:
            total = total + term
        else:
            total = total - term
        if sub == 0:
            break
        sub = (sub - 1) & mask
    memo[mask] = low_part(total, size - 1)
    return memo[mask]


def reference_hilbert_product(arr: Arrangement, D: int) -> SchurSeries:
    """Hilbert series of the product ideal by the memoized subset recursion
    rearranged from sigma^(m - rk A) P(A) = sum over B of (-1)^|B| H(B),
    with H of the empty set sigma^m."""
    m = arr.ambient_dim
    pm = polymatroid_of(arr)
    p_memo: dict = {}
    memo: dict = {}

    def series(mask: int) -> SchurSeries:
        if mask == 0:
            return reference_sigma_power(D, m)
        if mask in memo:
            return memo[mask]
        acc = reference_sigma_power(D, m - pm.ranks[mask]) * reference_p(
            pm, mask, D, p_memo
        )
        sub = (mask - 1) & mask
        while True:
            if sub.bit_count() % 2:
                acc = acc + series(sub)
            else:
                acc = acc - series(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
        memo[mask] = acc if mask.bit_count() % 2 == 0 else -acc
        return memo[mask]

    return series((1 << len(arr.subspaces)) - 1)


def transversal_intersection_series(arr: Arrangement, D: int) -> SchurSeries | None:
    """Series of the intersection ideal to degree D from the polymatroid,
    where the reduced arrangement is transversal; None where it is not.

    Each subspace contained in another is dropped, Y_i in Y_j exactly when
    rk{i,j} = rk{i}, and of equal subspaces the first is kept.  When the
    rest M is transversal, rk M = sum over i in M of rk{i}, the J_i(V) of M
    are generated by disjoint sets of variables in suitable coordinates, so
    they meet in their product: sigma^(m - rk M) times the product over M
    of (sigma^rk{i} - 1), that is the sum over B in M of
    (-1)^|B| sigma^(m - rk B).  A dropped Y_i in Y_j adds nothing to that
    sum over the whole ground set E: toggling j pairs off the sets that
    hold i, as they have the same rank.  So the sum runs over E.
    """
    ranks = reference_ranks(arr)
    t = len(arr.subspaces)

    def contained(i: int, j: int) -> bool:
        return ranks[1 << i | 1 << j] == ranks[1 << i]

    kept = [
        i for i in range(t)
        if not any(contained(i, j) and (j < i or not contained(j, i)) for j in range(t) if j != i)
    ]
    if ranks[sum(1 << i for i in kept)] != sum(ranks[1 << i] for i in kept):
        return None
    m = arr.ambient_dim
    return sum(
        ((-1) ** mask.bit_count() * sigma_power(D, m - rank) for mask, rank in enumerate(ranks)),
        SchurSeries({}, degree=D),
    )
