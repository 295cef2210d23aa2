"""Nilpotent orbits attached to strict cores, and their dimensions.

Orbits of so(N,C) are recorded by the column sizes of their partitions.  A
strict core with columns (x_i; y_i) is attached to

    D:  union over i of (2x_i, 2x_i-1, 2y_i+1, 2y_i)        in so(4n),
    B:  union over i of (2y_i+1, 2y_i, 2x_i, 2x_i-1)        in so(4n+1),

dropping zero parts; in family B a trailing virtual column (0; 0) contributes
the extra part 1 whenever the last x is positive.  Dimensions come from the
standard partition formula, with the correction term counted as the number of
odd rows of the transposed partition.
"""

from dataclasses import dataclass

from .spinclass import _INT_ONLY, unitarity_test


class NotStrictCore(ValueError):
    """The string pairs do not satisfy the strict staircase inequalities."""


def _int_columns(cols) -> tuple:
    """The column sizes as given; bools, floats and strings are refused
    rather than coerced by int()."""
    cols = tuple(cols)
    if not set(map(type, cols)) <= _INT_ONLY:
        raise TypeError(f"column sizes must be ints, not {cols}")
    return cols


@dataclass(frozen=True)
class OrbitColumns:
    """Column sizes of a nilpotent-orbit partition for so(N,C)."""
    cols: tuple
    ambient: int

    def __post_init__(self):
        cols = tuple(sorted(_int_columns(self.cols), reverse=True))
        object.__setattr__(self, "cols", cols)
        if any(c <= 0 for c in cols):
            raise ValueError("column sizes must be positive")
        if sum(cols) != self.ambient:
            raise ValueError(
                f"columns {cols} sum to {sum(cols)}, not the ambient {self.ambient}"
            )

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.cols) + f"] in so({self.ambient})"


def attach_orbit(pairs) -> OrbitColumns:
    """The nilpotent orbit attached to a strict core."""
    if not unitarity_test(pairs).strict:
        raise NotStrictCore(f"{pairs} does not satisfy the strict inequalities")
    n = pairs.n
    cols = []
    if pairs.family == "D":
        for x, y in pairs.pairs:
            cols.extend((2 * x, 2 * x - 1, 2 * y + 1, 2 * y))
        ambient = 4 * n
    else:
        columns = list(pairs.pairs)
        if not columns or columns[-1][0] != 0:
            columns.append((0, 0))  # virtual trailing column
        for x, y in columns:
            cols.extend((2 * y + 1, 2 * y, 2 * x, 2 * x - 1))
        ambient = 4 * n + 1
    return OrbitColumns(tuple(c for c in cols if c > 0), ambient)


def transpose(cols) -> tuple:
    """Partition transpose: row_i = #{c_j >= i}."""
    cols = sorted(_int_columns(cols), reverse=True)
    if not cols:
        return ()
    return tuple(sum(1 for c in cols if c >= i) for i in range(1, cols[0] + 1))


def orbit_dim(orbit: OrbitColumns) -> int:
    """dim = N(N-1)/2 - (sum c_j^2)/2 + (#odd rows of the transpose)/2."""
    n_amb = orbit.ambient
    sq = sum(c * c for c in orbit.cols)
    odd_rows = sum(1 for r in transpose(orbit.cols) if r % 2 == 1)
    num = n_amb * (n_amb - 1) - sq + odd_rows
    assert num % 2 == 0
    return num // 2


def nilcone_dim(n_amb: int) -> int:
    """Dimension of the nilpotent cone of so(N): N(N-1)/2 - floor(N/2)."""
    return n_amb * (n_amb - 1) // 2 - n_amb // 2


def codim_identity_holds(pairs) -> bool:
    """Codimension identity linking the attached orbit to its half-size shadow.

    For a strict core in family D with attached orbit O in so(4n), the orbit
    P with columns (2x_i, 2y_i) in so(2n) satisfies

        dim N_{so(4n)} - dim O = 2 (dim N_{so(2n)} - dim P).
    """
    if pairs.family != "D":
        raise ValueError("the codimension identity is stated for family D cores")
    orbit = attach_orbit(pairs)
    n = pairs.n
    shadow_cols = []
    for x, y in pairs.pairs:
        shadow_cols.extend((2 * x, 2 * y))
    shadow = OrbitColumns(tuple(c for c in shadow_cols if c > 0), 2 * n)
    lhs = nilcone_dim(4 * n) - orbit_dim(orbit)
    rhs = 2 * (nilcone_dim(2 * n) - orbit_dim(shadow))
    return lhs == rhs
