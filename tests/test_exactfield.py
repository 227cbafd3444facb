import random
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cellref import FullScanEchelon, tagged_echelon_analysis
from rackhom import chains, dense
from rackhom.acceptance import CRITERIA
from rackhom.chains import build_complex
from rackhom.cubical import ConstructionBug
from rackhom.dense import (DENSE_MIN_COLS, DENSE_PRIME, PANEL, boundary_analysis,
                          dense_analysis)
from rackhom.exactfield import (
    QQ,
    Echelon,
    FieldMismatch,
    FieldTag,
    Matrix,
    ShapeError,
    column_space_analysis,
)
from rackhom.nerves import rack_nerve
from rackhom.racks import preset


def test_field_tag_validation():
    FieldTag(2)
    FieldTag(7)
    with pytest.raises(ValueError):
        FieldTag(4)
    with pytest.raises(ValueError):
        FieldTag(2**31 + 11)


def test_prime_field_ops():
    f5 = FieldTag(5)
    assert f5.axpy({0: 3}, {0: 4}) == {0: 2}
    assert f5.inv(2) == 3
    assert f5.of_int(-1) == 4


def test_identity_full_rank():
    m = Matrix.identity(QQ, 2)
    a = column_space_analysis(m)
    assert a.rank == 2
    assert a.kernel_basis.cols == 0


def test_zero_matrix_kernel():
    m = Matrix.zeros(QQ, 3, 4)
    a = column_space_analysis(m)
    assert a.rank == 0
    assert a.kernel_basis.cols == 4


def test_rank_one_kernel_span():
    # hand Gaussian elimination: [[1,2],[2,4]] has rank 1, kernel (2,-1)
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    a = column_space_analysis(m)
    assert a.rank == 1
    assert a.kernel_basis.cols == 1
    k = a.kernel_basis.column(0)
    # proportional to (2,-1)
    assert (m @ a.kernel_basis).is_zero()
    assert k[0] * Fraction(-1) == k[1] * Fraction(2)


def _solve(m, v):
    """A sparse x with m @ x == v, read off an Echelon of the columns of m,
    column j tagged j, as project_vec solves; None when v is outside the
    image of m."""
    ech = Echelon(m.field, m.rows)
    for j in range(m.cols):
        ech.add(m.column(j), tag=j)
    return ech.coordinates(m.field.vector(v))


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    v = {0: 1, 1: 2, 2: 5}
    assert _solve(m, v) == v


def test_solve_zero_matrix_no_solution():
    m = Matrix.zeros(QQ, 2, 2)
    assert _solve(m, {0: 1}) is None


def test_solve_scalar_division():
    m = Matrix.from_rows(QQ, [[2]])
    assert _solve(m, {0: 1}) == {0: Fraction(1, 2)}


def test_solve_result_exact():
    m = Matrix.from_rows(QQ, [[1, 2, 0], [0, 1, 1]])
    v = {0: Fraction(3), 1: Fraction(2)}
    x = _solve(m, v)
    assert x is not None
    assert m.apply(x) == v


def test_field_mismatch_raises():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(FieldTag(3), 2)
    with pytest.raises(FieldMismatch):
        a @ b


def _random_matrix(field, rows, cols, rng, density=0.5, span=5):
    cols_data = []
    for _ in range(cols):
        col = {}
        for i in range(rows):
            if rng.random() < density:
                v = field.of_int(rng.randint(-span, span))
                if v:
                    col[i] = v
        cols_data.append(col)
    return Matrix(field, rows, cols, cols_data)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(QQ, rng.randint(1, 6), rng.randint(1, 6), rng)
        assert column_space_analysis(m).rank == column_space_analysis(m.transpose()).rank


def test_kernel_is_exact_kernel():
    rng = random.Random(11)
    for _ in range(25):
        m = _random_matrix(QQ, rng.randint(1, 6), rng.randint(1, 7), rng)
        a = column_space_analysis(m)
        assert a.rank + a.kernel_basis.cols == m.cols
        assert (m @ a.kernel_basis).is_zero()
        # the image spans im m: every column reduces to zero against it
        assert a.image.rank == a.rank
        for j in range(m.cols):
            assert a.image.contains(m.column(j))


def test_fp_rank_agrees_with_rational_rank_on_unimodular_pivots():
    # integer matrices whose elimination over Q never divides by p
    rng = random.Random(3)
    f3 = FieldTag(3)
    agree = 0
    for _ in range(40):
        rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        mq = Matrix.from_rows(QQ, rows)
        mp = Matrix.from_rows(f3, rows)
        rq = column_space_analysis(mq).rank
        rp = column_space_analysis(mp).rank
        # reduction can only lose rank
        assert rp <= rq
        if rp == rq:
            agree += 1
    assert agree > 0


def test_solve_random_consistency():
    rng = random.Random(13)
    for _ in range(30):
        m = _random_matrix(QQ, rng.randint(1, 5), rng.randint(1, 5), rng)
        y = {j: QQ.of_int(rng.randint(-3, 3)) for j in range(m.cols)}
        v = m.apply(y)
        x = _solve(m, v)
        assert x is not None
        assert m.apply(x) == v


# -- property tests: one elimination against sympy as the independent oracle --

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


def _sympy_rank(rows):
    return sympy.Matrix(rows).rank()


@PROPERTY
@given(int_matrices())
def test_rank_over_q_equals_sympy_rank(rows):
    assert column_space_analysis(Matrix.from_rows(QQ, rows)).rank == _sympy_rank(rows)


@PROPERTY
@given(int_matrices(), st.sampled_from([2, 3, 5]))
def test_rank_over_fp_at_most_rank_over_q(rows, p):
    rp = column_space_analysis(Matrix.from_rows(FieldTag(p), rows)).rank
    assert rp <= column_space_analysis(Matrix.from_rows(QQ, rows)).rank


@PROPERTY
@given(int_matrices(), st.sampled_from([0, 2, 3, 5]))
def test_kernel_basis_is_killed_and_rank_nullity_holds(rows, p):
    m = Matrix.from_rows(FieldTag(p), rows)
    a = column_space_analysis(m)
    assert (m @ a.kernel_basis).is_zero()
    assert a.rank + a.kernel_basis.cols == m.cols
    assert column_space_analysis(a.kernel_basis).rank == a.kernel_basis.cols


@PROPERTY
@given(int_matrices(), st.data())
def test_solve_matches_sympy_consistency(rows, data):
    m = Matrix.from_rows(QQ, rows)
    if data.draw(st.booleans()):  # a right-hand side in the image
        y = [data.draw(st.integers(-3, 3)) for _ in range(m.cols)]
        v = [sum(r[j] * y[j] for j in range(m.cols)) for r in rows]
    else:
        v = [data.draw(st.integers(-3, 3)) for _ in range(m.rows)]
    augmented = [r + [w] for r, w in zip(rows, v)]
    x = _solve(m, dict(enumerate(v)))
    if _sympy_rank(augmented) == _sympy_rank(rows):
        assert x is not None
        assert m.apply(x) == {i: Fraction(w) for i, w in enumerate(v) if w}
    else:
        assert x is None


# -- the sparse-accumulate kernel against a dense reference --------------------


def _canonical(f, v):
    """A rational is an int when integral, else a Fraction off Z; an F_p
    element is an int in [0, p)."""
    if f.p == 0:
        return type(v) is int or (type(v) is Fraction and v.denominator > 1)
    return type(v) is int and 0 <= v < f.p


sparse_ints = st.dictionaries(st.integers(0, 7), st.integers(-4, 4), max_size=6)


@PROPERTY
@given(st.sampled_from([0, 2, 3, 100000007]), sparse_ints, sparse_ints,
       st.none() | st.integers(-4, 4), st.booleans())
def test_axpy_matches_dense_reference(p, acc_ints, vec_ints, a, a_in_field):
    f = FieldTag(p)
    acc, vec = f.vector(acc_ints), f.vector(vec_ints)
    coeff = 1 if a is None else a
    want = [f.of_int(acc_ints.get(k, 0) + coeff * vec_ints.get(k, 0)) for k in range(8)]
    out = f.axpy(acc, vec, f.of_int(a) if a_in_field and a is not None else a)
    assert out is acc
    assert [out.get(k, f.zero()) for k in range(8)] == want
    assert all(v for v in out.values())
    assert all(_canonical(f, v) for v in out.values())


@PROPERTY
@given(st.sampled_from([0, 2, 3, 100000007]), sparse_ints)
def test_vector_is_of_int_without_zeros(p, ints):
    f = FieldTag(p)
    assert f.vector(ints) == {k: f.of_int(v) for k, v in ints.items() if f.of_int(v)}
    assert all(f.vector(ints).values())


# -- canonical values: an int while integral, on entry and out of elimination --


def test_q_values_are_canonical_on_entry():
    m = Matrix.from_rows(QQ, [[Fraction(2, 1), Fraction(1, 2)], [0, Fraction(-6, 3)]])
    assert [type(v) for v in m.cols_data[0].values()] == [int]
    assert m.cols_data == ({0: 2}, {0: Fraction(1, 2), 1: -2})
    assert all(_canonical(QQ, v) for col in m.cols_data for v in col.values())
    assert Matrix(QQ, 1, 1, [{0: Fraction(3, 1)}]) == Matrix.from_rows(QQ, [[3]])
    x = _solve(Matrix.from_rows(QQ, [[2, 0], [0, 1]]), {0: Fraction(4, 1), 1: Fraction(3, 1)})
    assert x == {0: 2, 1: 3} and all(type(v) is int for v in x.values())
    assert _solve(Matrix.from_rows(QQ, [[2]]), {0: Fraction(3, 1)}) == {0: Fraction(3, 2)}


def test_public_constructor_checks_rows_and_canonicalises():
    with pytest.raises(ShapeError):
        Matrix(QQ, 2, 1, [{2: 1}])
    with pytest.raises(ShapeError):
        Matrix(QQ, 2, 1, [{-1: 1}])
    m = Matrix(QQ, 2, 1, [{0: Fraction(2, 1), 1: 0}])
    assert m.cols_data == ({0: 2},) and type(m.cols_data[0][0]) is int


@PROPERTY
@given(int_matrices(), int_matrices(), st.sampled_from([0, 2, 3, 5]))
def test_trusted_results_equal_checked_dense_ones(a_rows, b_rows, p):
    """@, +, -, kron and transpose build their results without the
    constructor's checks; each equals the matrix the public constructor
    makes of the same operation done on dense integer rows."""
    f = FieldTag(p)
    a, b = Matrix.from_rows(f, a_rows), Matrix.from_rows(f, b_rows)
    at = [list(col) for col in zip(*a_rows)]

    def product(x, y):
        return [[sum(u * v for u, v in zip(row, col)) for col in zip(*y)] for row in x]

    cases = [(a.transpose(), at),
             (a + a, [[2 * v for v in row] for row in a_rows]),
             (a - a, [[0] * a.cols for _ in range(a.rows)]),
             (a.transpose() @ a, product(at, a_rows)),
             (a.kron(b), [[u * v for u in ra for v in rb] for ra in a_rows for rb in b_rows])]
    if a.cols == b.rows:
        cases.append((a @ b, product(a_rows, b_rows)))
    for got, rows in cases:
        assert got == Matrix.from_rows(f, rows)
        assert all(_canonical(f, v) for col in got.cols_data for v in col.values())


def test_q_boundaries_and_kernels_are_canonical():
    c = build_complex(rack_nerve(preset("conj:symmetric:3"), 3), QQ)
    for n in range(1, 4):
        mats = (c.d(n), c.analysis(n).kernel_basis)
        assert all(_canonical(QQ, v) for m in mats for col in m.cols_data for v in col.values())


# -- the heap-ordered sweep against the full scan it replaces ----------------


@st.composite
def echelon_streams(draw):
    """A field, a row count, and a stream of sparse columns with entries
    that are mostly not +-1, each tagged or not, plus probe vectors."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    dim = draw(st.integers(1, 9))
    col = st.dictionaries(st.integers(0, dim - 1),
                          st.integers(-7, 7).filter(bool), max_size=5)
    stream = draw(st.lists(st.tuples(col, st.booleans()), max_size=24))
    probes = draw(st.lists(col, max_size=6))
    return FieldTag(p), dim, stream, probes


def _logging_field(p):
    """F_p (Q at p = 0) whose axpy also logs each step it applies, so two
    echelons over such fields can be compared step by step."""
    f, log = FieldTag(p), []
    axpy = f.axpy

    def logged(acc, vec, a=None):
        log.append((sorted(vec.items()), a))
        return axpy(acc, vec, a)

    object.__setattr__(f, "axpy", logged)
    return f, log


def _pinned_equal(ech, ref, cols):
    """ech and ref hold identical pivots and read identical coordinates and
    memberships on cols."""
    assert ech.pivots == ref.pivots
    for col in cols:
        assert ech.coordinates(col) == ref.coordinates(col)
        assert ech.contains(col) == ref.contains(col)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(echelon_streams())
def test_heap_echelon_equals_full_scan(data):
    f, dim, stream, probes = data
    cols = [f.vector(col) for col, _ in stream]
    probes = [f.vector(col) for col in probes] + cols
    (fe, steps), (fr, ref_steps) = _logging_field(f.p), _logging_field(f.p)
    ech, ref = Echelon(fe, dim), FullScanEchelon(fr, dim)
    for j, (col, (_, tagged)) in enumerate(zip(cols, stream)):
        tag = j if tagged else None
        assert ech.add(col, tag) == ref.add(col, tag)
        assert ech.last_combo == ref.last_combo
    _pinned_equal(ech, ref, probes)
    # an untracked copy, extended by tagged columns, leaves the original as it was
    pivots = list(ech.pivots)
    ech2, ref2 = ech.untracked_copy(), ref.untracked_copy()
    for j, col in enumerate(probes):
        assert ech2.add(col, ("p", j)) == ref2.add(col, ("p", j))
        assert ech2.last_combo == ref2.last_combo
    _pinned_equal(ech2, ref2, probes)
    assert ech.pivots == pivots
    _pinned_equal(ech, ref, probes)
    # the same pivot steps, with the same factors, in the same order
    assert steps == ref_steps
    # column_space_analysis reads the same kernel basis as the full scan
    m = Matrix(f, dim, len(cols), cols)
    full = FullScanEchelon(f, dim)
    kernel = [full.last_combo for j in range(m.cols) if not full.add(m.column(j), j)]
    a = column_space_analysis(m)
    assert _reduced(a.image) == _reduced(full)
    assert a.kernel_basis == Matrix(f, m.cols, len(kernel), kernel)
    for col in probes:
        assert a.image.contains(col) == full.contains(col)


# -- the dense route of boundary analyses against the tagged echelon ----------


def _reduced(ech):
    """The (pivot row, reduced column) pairs of an echelon, in order."""
    return [(prow, pcol) for prow, pcol, _ in ech.pivots]


def _same_analysis(a, ref, probes=()):
    """a is ref: rank, kernel entry for entry, the pivot rows and reduced
    columns of the image, and membership of the probes in it."""
    assert a.rank == ref.rank == a.image.rank
    assert a.kernel_basis == ref.kernel_basis
    assert _reduced(a.image) == _reduced(ref.image)
    for v in probes:
        assert a.image.contains(v) == ref.image.contains(v)


def _has_fraction(m: Matrix) -> bool:
    return any(type(v) is Fraction for col in m.cols_data for v in col.values())


def _check_dense(m: Matrix, probes=()):
    """dense_analysis of m is the tagged echelon's analysis, or None over Q
    exactly when the kernel holds a fraction; boundary_analysis is the
    tagged echelon's analysis either way.  Returns whether the route ran."""
    ref = tagged_echelon_analysis(m)
    got = dense_analysis(m)
    if m.field.p:
        assert got is not None
    else:
        assert (got is None) == _has_fraction(ref.kernel_basis)
    if got is not None:
        _same_analysis(got, ref, probes)
    _same_analysis(boundary_analysis(m), ref, probes)
    return got is not None


@st.composite
def dense_cases(draw):
    """A field, an integer matrix that is mostly 0 and +-1 (so that many
    kernels over Q are integral), and probe vectors."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 12))
    entry = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -3])
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    probe = st.dictionaries(st.integers(0, max(rows - 1, 0)), st.integers(-3, 3), max_size=3)
    probes = draw(st.lists(probe, max_size=3)) if rows else []
    f = FieldTag(p)
    m = Matrix(f, rows, cols, [{i: data[i][j] for i in range(rows)} for j in range(cols)])
    return m, [f.vector(v) for v in probes]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dense_cases())
def test_dense_route_equals_the_tagged_echelon(case):
    m, probes = case
    _check_dense(m, probes + [m.column(j) for j in range(m.cols)])


def test_dense_route_on_empty_shapes():
    for f in (QQ, FieldTag(2), FieldTag(5)):
        for rows, cols in ((0, 0), (0, 3), (3, 0), (0, DENSE_MIN_COLS)):
            m = Matrix.zeros(f, rows, cols)
            assert _check_dense(m)
            assert dense_analysis(m).kernel_basis == Matrix.identity(f, cols)


def _panel_matrix(f, rng, rows, cols, rank):
    """A rows x cols matrix of the given rank over f whose kernel over Q is
    integral: rank columns of a unimodular matrix at random places, every
    other column an integer combination of the columns before it."""
    unimodular = [[int(i == j) for j in range(rows)] for i in range(rows)]
    for _ in range(3 * rows):
        a, b = rng.sample(range(rows), 2)
        unimodular[a] = [x + rng.choice((1, -1)) * y for x, y in zip(unimodular[a], unimodular[b])]
    places = set(rng.sample(range(cols), rank))
    columns, basis = [], iter(range(rows))
    for j in range(cols):
        if j in places:
            b = next(basis)
            columns.append([row[b] for row in unimodular])
        else:
            columns.append([0] * rows)
            for k in rng.sample(range(j), min(j, 3)):
                c = rng.randint(-2, 2)
                columns[-1] = [x + c * y for x, y in zip(columns[-1], columns[k])]
    return Matrix(f, rows, cols, [dict(enumerate(col)) for col in columns])


def test_dense_route_spans_several_panels_at_the_largest_prime():
    """Matrices with more pivots than a panel, over F_p at the largest prime
    of the route (residues up to p - 1) and over Q: the float64 bounds hold
    at every step."""
    rng = random.Random(5)
    rows, cols = PANEL + 9, 2 * PANEL + 30
    f = FieldTag(DENSE_PRIME)
    m = Matrix.from_rows(f, [[rng.randrange(DENSE_PRIME) if rng.random() < 0.7 else 0
                              for _ in range(cols)] for _ in range(rows)])
    assert _check_dense(m)
    assert column_space_analysis(m).rank > PANEL
    for field in (QQ, FieldTag(7)):
        m = _panel_matrix(field, rng, rows, cols, rows - 4)
        assert _check_dense(m)
        assert column_space_analysis(m).rank == rows - 4


def test_dense_route_bounds():
    """Over Q the route runs while min(rows, cols) max |m| (p - 1)/2 is below
    2^50, and falls back from there; over F_p it runs up to DENSE_PRIME."""
    limit = (2 ** 50 - 1) // (DENSE_PRIME // 2)
    for top, runs in ((limit, True), (limit + 1, False)):
        m = Matrix(QQ, 1, 2, [{0: top}, {0: -top}])
        assert (dense_analysis(m) is not None) == runs
        _same_analysis(boundary_analysis(m), tagged_echelon_analysis(m))
    m = Matrix.from_rows(FieldTag(DENSE_PRIME), [[DENSE_PRIME - 1, 1, 2]])
    assert _check_dense(m)
    above = 4194319  # the least prime above DENSE_PRIME
    assert dense_analysis(Matrix.from_rows(FieldTag(above), [[1, 2]])) is None
    assert dense_analysis(Matrix.from_rows(QQ, [[Fraction(1, 2), 1]])) is None


@pytest.mark.parametrize("p", [2, 3, 31, 37, 4093])
def test_mod_is_exact_in_float32_below_2_to_22(p):
    """dense._mod reduces a float32 array in float32 to the residues of
    least size for every integer below 2^22 in size: the ends of the range
    and a sample between."""
    ends = np.arange(2 ** 22 - 5000, 2 ** 22)
    xs = np.concatenate((ends, -ends, np.arange(-5000, 5000),
                         np.random.default_rng(p).integers(-2 ** 22 + 1, 2 ** 22, 20000)))
    r = dense._mod(xs.astype(np.float32), p)
    assert r.dtype == np.float32
    assert ((xs - r.astype(np.int64)) % p == 0).all()
    assert (np.abs(r) <= max(p // 2, 1)).all()


def test_failed_check_falls_back_to_todays_code(monkeypatch):
    """[[2, 1]] over Q has the kernel column e_1 - e_0 / 2: the integer check
    fails, and boundary_analysis gives the tagged echelon's answer from
    column_space_analysis, as does a matrix wide enough for the route."""
    assert dense_analysis(Matrix.from_rows(QQ, [[2, 1]])) is None
    wide = Matrix.from_rows(QQ, [[2] + [1] * (DENSE_MIN_COLS - 1), [0] * DENSE_MIN_COLS])
    calls = []
    orig = dense.column_space_analysis

    def counting(m):
        calls.append(m)
        return orig(m)

    monkeypatch.setattr(dense, "column_space_analysis", counting)
    assert dense_analysis(wide) is None
    a = boundary_analysis(wide)
    assert calls == [wide]
    _same_analysis(a, tagged_echelon_analysis(wide))
    assert a.kernel_basis.column(0) == {0: Fraction(-1, 2), 1: 1}


def _holds_no_combo(a):
    return a.image.rank == a.rank and all(combo is None for _, _, combo in a.image.pivots)


def test_no_analysis_holds_a_combo(monkeypatch):
    """The image of an analysis is untagged on every route: the sparse
    elimination, the dense route over F_p and over Q, and the analyses a
    Gamma subcomplex shares with its total complex."""
    m = Matrix.from_rows(QQ, [[1, 2, 0, 1], [0, 0, 1, 1], [1, 2, 1, 2]])
    assert _holds_no_combo(column_space_analysis(m))
    for f in (FieldTag(3), QQ):
        d = build_complex(rack_nerve(preset("conj:symmetric:3"), 3), f).d(3)
        a = dense_analysis(d)
        assert a is not None and a.rank > 0 and _holds_no_combo(a)
    assembled = []
    orig = chains._les_assemble

    def recording(kind, field, max_n, S, T, *rest):
        assembled.append((S, T))
        return orig(kind, field, max_n, S, T, *rest)

    monkeypatch.setattr(chains, "_les_assemble", recording)
    assert chains.les_for_group("gamma", preset("cyclic:2"), QQ, 2).all_exact
    (S, T), = assembled
    assert S.shares and all(S.analysis(n) is T.analysis(n) for n in S.shares)
    for cx in (S, T):
        for n in range(1, cx.max_degree + 1):
            assert _holds_no_combo(cx.analysis(n))


def test_dependent_dense_pivot_is_a_construction_bug(monkeypatch):
    """A reduction that reports a dependent column as a pivot is caught when
    the pivot columns enter the image: column 1 of [[1, 2, 0], [0, 0, 1]]
    is twice column 0."""
    orig = dense._rref_mod

    def lying(r, p):
        pivots, rows = orig(r, p)
        assert pivots == [0, 2]
        return [0, 1, 2], [rows[0], rows[0], rows[1]]

    monkeypatch.setattr(dense, "_rref_mod", lying)
    for f in (QQ, FieldTag(5)):
        m = Matrix.from_rows(f, [[1, 2, 0], [0, 0, 1]])
        message = "dense pivot column 1 of a 2x3 matrix is dependent"
        with pytest.raises(ConstructionBug, match="^%s$" % re.escape(message)):
            dense_analysis(m)


def test_dense_route_on_every_boundary_of_the_acceptance_suite(monkeypatch):
    """Every boundary the acceptance criteria analyse: the route equals the
    tagged echelon, whether the size rule sends the matrix to it or not."""
    seen = {}
    orig = chains.boundary_analysis

    def recording(m):
        seen[id(m)] = m
        return orig(m)

    monkeypatch.setattr(chains, "boundary_analysis", recording)
    for number in sorted(CRITERIA):
        assert CRITERIA[number](seed=0)["ok"]
    monkeypatch.undo()
    ran = sum(_check_dense(m) for m in seen.values())
    assert len(seen) > 100 and ran > 100


def test_checked_insert():
    ech = Echelon(QQ, 6)
    ech.insert({0: 1, 2: 3})
    ech.insert({1: 1, 4: -1})
    assert [prow for prow, _, _ in ech.pivots] == [2, 4]
    assert ech.contains({0: 2, 2: 6, 1: 1, 4: -1})
    for col in ({}, {2: 1}, {4: 1, 5: 1}, {0: 1, 3: 1, 2: 1}):
        with pytest.raises(ConstructionBug):
            ech.insert(col)
    # an entry at no pivot row: a new pivot, as add would make it
    ref = Echelon(QQ, 6)
    for col in ({0: 1, 2: 3}, {1: 1, 4: -1}, {0: 1, 5: 2}):
        ref.add(col)
    ech.insert({0: 1, 5: 2})
    assert ech.pivots == ref.pivots
    # a column whose only pivot-row entry is at the first, a middle or the
    # last stored pivot row, and the empty column: each is refused, and the
    # message names its first rows
    ech = Echelon(QQ, 8)
    for col in ({0: 1, 2: 3}, {1: 1, 4: -1}, {3: 1, 6: 1}):
        ech.insert(col)
    assert [prow for prow, _, _ in ech.pivots] == [2, 4, 6]
    for col in ({0: 1, 2: 1}, {3: 2, 4: 1, 7: 1}, {1: 1, 6: -1}, {}):
        message = "inserted column is not reduced: %r" % (sorted(col)[:8],)
        with pytest.raises(ConstructionBug, match="^%s$" % re.escape(message)):
            ech.insert(col)
        assert ech.rank == 3
