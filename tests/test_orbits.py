"""Tests for orbit attachment and the dimension formulas."""

import pytest
from hypothesis import given, settings, strategies as st

from spindual.orbits import (
    NotStrictCore, OrbitColumns, attach_orbit, codim_identity_holds,
    nilcone_dim, orbit_dim,
)
from spindual.spinclass import StringPairs


def D(*cols):
    return StringPairs("D", cols)


def test_attach_orbit_model():
    for n in range(1, 7):
        orbit = attach_orbit(D((n, 0)))
        assert orbit.cols == (2 * n, 2 * n - 1, 1)
        assert orbit.ambient == 4 * n
        assert orbit_dim(orbit) == 4 * n * n


def test_attach_orbit_examples():
    orbit = attach_orbit(D((2, 1)))
    assert orbit.cols == (4, 3, 3, 2) and orbit.ambient == 12
    assert orbit_dim(orbit) == 48

    orbit = attach_orbit(StringPairs("B", ((1, 1),)))
    assert orbit.cols == (3, 2, 2, 1, 1) and orbit.ambient == 9

    orbit = attach_orbit(StringPairs("B", ((0, 1),)))
    assert orbit.cols == (3, 2) and orbit.ambient == 5
    assert orbit_dim(orbit) == 4  # the minimal orbit of so(5)


def test_attach_orbit_requires_strict():
    with pytest.raises(NotStrictCore):
        attach_orbit(D((2, 2)))
    with pytest.raises(NotStrictCore):
        attach_orbit(StringPairs("B", ((2, 0),)))


def transpose_reference(cols):
    """The transpose counted row by row: row_i = #{c_j >= i}."""
    cols = sorted(cols, reverse=True)
    if not cols:
        return ()
    return tuple(sum(1 for c in cols if c >= i) for i in range(1, cols[0] + 1))


def orbit_dim_reference(orbit):
    """The dimension with the odd rows counted on the whole transpose."""
    n_amb = orbit.ambient
    odd_rows = sum(1 for r in transpose_reference(orbit.cols) if r % 2 == 1)
    return (n_amb * (n_amb - 1) - sum(c * c for c in orbit.cols) + odd_rows) // 2


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 40), max_size=12))
def test_transpose_and_orbit_dim_match_the_row_count(cols):
    positive = tuple(c for c in cols if c > 0)
    orbit = OrbitColumns(positive, sum(positive))
    assert orbit_dim(orbit) == orbit_dim_reference(orbit)


def test_orbit_dim_reads_the_columns_only():
    # the transpose of a column of 70,000 has 70,000 rows; orbit_dim builds none
    orbit = OrbitColumns((70000, 3, 1), 70004)
    assert orbit_dim(orbit) == orbit_dim_reference(orbit)


def test_column_sizes_must_be_ints():
    assert OrbitColumns([1, 3], 4).cols == (3, 1)
    with pytest.raises(ValueError, match="positive"):
        OrbitColumns((4, 0), 4)
    with pytest.raises(ValueError, match="not the ambient 5"):
        OrbitColumns((3, 1), 5)
    for bad in ((2.9, 1.1), ("2", 1), (2, True), (3.0,)):
        with pytest.raises(TypeError, match="column sizes must be ints"):
            OrbitColumns(bad, 3)


def test_orbit_dim_examples():
    assert orbit_dim(OrbitColumns((4, 2), 6)) == 6
    assert orbit_dim(OrbitColumns((4, 3, 3, 2), 12)) == 48
    # minimal orbit of so(N) has dimension 2N - 6
    for n_amb in (7, 8, 9, 10):
        cols = (n_amb - 2, 2)
        assert orbit_dim(OrbitColumns(cols, n_amb)) == 2 * n_amb - 6


def test_nilcone_dim():
    assert nilcone_dim(6) == 12
    assert nilcone_dim(12) == 60
    assert nilcone_dim(2) == 0


def test_codim_identity_examples():
    assert codim_identity_holds(D((2, 1)))
    assert codim_identity_holds(D((4, 0)))
    assert codim_identity_holds(D((3, 2), (2, 0)))
    with pytest.raises(ValueError, match="family D"):
        codim_identity_holds(StringPairs("B", ((1, 1),)))


def strict_cores(max_cols, bound):
    """All strict family-D cores with up to max_cols columns, x,y <= bound."""
    results = []

    def extend(cols):
        if cols:
            results.append(tuple(cols))
        if len(cols) == max_cols:
            return
        for x in range(1, bound + 1):
            for y in range(x):  # x > y
                if cols and not (cols[-1][1] >= x and cols[-1][1] >= y):
                    continue  # strictness y_prev >= x and double descent
                extend(cols + [(x, y)])

    extend([])
    return [StringPairs("D", c) for c in results]


def test_codim_identity_sweep():
    cores = strict_cores(4, 5)
    assert len(cores) == len(set(c.pairs for c in cores))
    for pairs in cores:
        assert codim_identity_holds(pairs), pairs
        orbit = attach_orbit(pairs)
        assert orbit_dim(orbit) == orbit_dim_reference(orbit)
    assert len(cores) == 87  # 15 single columns, 72 longer cores


def test_model_orbit_lambda_is_half_rho():
    # the combined continuous parameter of the (n, 0)-core matches rho/2 of
    # so(4n) as a multiset of absolute values
    from spindual.spinclass import pairs_to_param
    from spindual.weyl import GroupTag, rho, to_langlands

    from fractions import Fraction
    for n in range(1, 7):
        lp = to_langlands(pairs_to_param(D((n, 0))))
        half_rho = [v / 2 for v in rho(GroupTag("D", 2 * n))]
        assert sorted(abs(v) for v in lp.lambda_l) == sorted(half_rho)
        # sign bookkeeping: a zero entry is present, so the flip parity of
        # the comparison is unconstrained
        assert Fraction(0) in lp.lambda_l
