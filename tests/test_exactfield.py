import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rackhom.exactfield import (
    QQ,
    FieldMismatch,
    FieldTag,
    Matrix,
    ShapeError,
    column_space_analysis,
    solve_in_image,
)


def test_field_tag_validation():
    FieldTag(2)
    FieldTag(7)
    with pytest.raises(ValueError):
        FieldTag(4)
    with pytest.raises(ValueError):
        FieldTag(2**31 + 11)


def test_prime_field_ops():
    f5 = FieldTag(5)
    assert f5.add(3, 4) == 2
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


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    v = [Fraction(1), Fraction(2), Fraction(5)]
    assert solve_in_image(m, v) == v


def test_solve_zero_matrix_no_solution():
    m = Matrix.zeros(QQ, 2, 2)
    assert solve_in_image(m, [1, 0]) is None


def test_solve_scalar_division():
    m = Matrix.from_rows(QQ, [[2]])
    x = solve_in_image(m, [1])
    assert x == [Fraction(1, 2)]


def test_solve_result_exact():
    m = Matrix.from_rows(QQ, [[1, 2, 0], [0, 1, 1]])
    v = {0: Fraction(3), 1: Fraction(2)}
    x = solve_in_image(m, v)
    assert x is not None
    assert m.apply({j: c for j, c in enumerate(x) if c}) == v


def test_dimension_mismatch():
    m = Matrix.from_rows(QQ, [[1, 2]])
    with pytest.raises(ShapeError):
        solve_in_image(m, [1, 2])


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
        # image basis really spans: every column reduces to zero against it
        from rackhom.exactfield import Echelon

        ech = Echelon(QQ, m.rows)
        for j in range(a.image_basis.cols):
            ech.add(a.image_basis.column(j))
        assert ech.rank == a.rank
        for j in range(m.cols):
            assert ech.contains(m.column(j))


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
        x = solve_in_image(m, v)
        assert x is not None
        assert m.apply({j: c for j, c in enumerate(x) if c}) == v


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
    x = column_space_analysis(m).solve(v)
    if _sympy_rank(augmented) == _sympy_rank(rows):
        assert x is not None
        assert m.apply({j: c for j, c in enumerate(x) if c}) == \
            {i: Fraction(w) for i, w in enumerate(v) if w}
    else:
        assert x is None
    assert solve_in_image(m, v) == x
