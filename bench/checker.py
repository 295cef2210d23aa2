"""Independent checks of spindual's outputs.

Everything here is restated from the paper on plain integers and
``Fraction``s.  Nothing in this module imports spindual: verdicts are read
through their public attributes (``status.value``, ``witness.q``,
``normalized.steps`` ...) and compared with what the paper says they must be.

A string pair is a tuple of columns ``(x_i, y_i)`` with both rows
non-increasing.  The checks are:

* the staircase inequalities (D: x_i >= y_i and y_i + 1 >= x_{i+1};
  B: y_i + 1 >= x_i and x_i >= y_{i+1}); a verdict is Unitary exactly when
  they hold;
* the weight of eta(q): (3/2)^q (1/2)^(m-q-1) (+-1/2) in family D, with the
  last sign + for even q, and (3/2)^q (1/2)^(m-q) in family B;
* the integer row insertion: the induced column (dx; dy) sorts dx into the
  x-row and dy into the y-row, and the columns re-pair by position;
* the certificate sizes: the shift-1/2 factor sizes plus the core's n give
  the input's n, and the core is strict with the attached orbit
  D: (2x, 2x-1, 2y+1, 2y), B: (2y+1, 2y, 2x, 2x-1) plus a trailing 1;
* the Case I / Case II witness indices: eta(2a+1) / eta(2e+2) in family D and
  eta(2b+2) / eta(2c+1) in family B, read off the normalized base.

Each ``check_*`` function raises :class:`CheckFailure` naming the first
mismatch it finds.
"""

import json
from fractions import Fraction

HALF = Fraction(1, 2)


class CheckFailure(AssertionError):
    """An output disagrees with the independent computation."""


def expect(condition, message):
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# string pairs as integer rows

def pairs_text(cols) -> str:
    cols = tuple(cols)
    return "(" + " ".join(str(x) for x, _ in cols) + "; " \
        + " ".join(str(y) for _, y in cols) + ")"


def parse_pairs_text(text: str) -> tuple:
    """``"(4 1; 0 0)"`` -> ((4, 0), (1, 0))."""
    inner = text.strip()
    expect(inner.startswith("(") and inner.endswith(")"), f"bad pairs text {text!r}")
    xs_text, ys_text = inner[1:-1].split(";")
    xs = [int(t) for t in xs_text.split()]
    ys = [int(t) for t in ys_text.split()]
    expect(len(xs) == len(ys), f"rows of different lengths in {text!r}")
    return tuple(zip(xs, ys))


def size(cols) -> int:
    return sum(x + y for x, y in cols)


def all_string_pairs(family: str, n: int) -> set:
    """Every column array of total size n with both rows non-increasing.

    Family D needs x >= 1 in every column; no column is (0; 0).
    """
    out = set()

    def extend(cols, remaining, cap_x, cap_y):
        if remaining == 0:
            out.add(tuple(cols))
            return
        for x in range(min(cap_x, remaining), -1, -1):
            if family == "D" and x == 0:
                break
            for y in range(min(cap_y, remaining - x), -1, -1):
                if x == 0 and y == 0:
                    continue
                extend(cols + [(x, y)], remaining - x - y, x, y)

    extend([], n, n, n)
    return out


def half_class(cols) -> tuple:
    """The +1/2 residue class: column (x; y) is the step-2 string from
    2x - 3/2 down to 1/2 - 2y."""
    values = []
    for x, y in cols:
        top = Fraction(4 * x - 3, 2)
        values.extend(top - 2 * k for k in range(x + y))
    return tuple(sorted(values, reverse=True))


def langlands_columns(cols):
    """(lambda_L, lambda_R) of the doubled parameter: mu all 1/2 and nu the
    half class followed by its negation, both descending."""
    half = half_class(cols)
    nu = half + tuple(sorted((-v for v in half), reverse=True))
    return (tuple((HALF + v) / 2 for v in nu), tuple((v - HALF) / 2 for v in nu))


def fmt(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# the staircase and the rewriting rules

def violations(family: str, cols) -> list:
    """Staircase violations, leftmost first: (i,) for column i, (i, i+1) for
    the gap between columns i and i+1."""
    out = []
    for i, (x, y) in enumerate(cols):
        if (x < y) if family == "D" else (x > y + 1):
            out.append((i,))
        if i + 1 < len(cols):
            x2, y2 = cols[i + 1]
            if (y + 1 < x2) if family == "D" else (x < y2):
                out.append((i, i + 1))
    return out


def staircase_holds(family: str, cols) -> bool:
    return not violations(family, cols)


def strict_staircase(family: str, cols) -> bool:
    """Every staircase inequality holds strictly (an isolated unipotent core)."""
    for i, (x, y) in enumerate(cols):
        if not ((x > y) if family == "D" else (y >= x)):
            return False
        if i + 1 < len(cols):
            x2, y2 = cols[i + 1]
            if not ((y >= x2) if family == "D" else (x > y2)):
                return False
    return True


def is_step(col) -> bool:
    """A staircase step: the column of a shift-1/2 factor, x - y in {0, 1}."""
    x, y = col
    return x - y in (0, 1)


def row_insert(cols, dx: int, dy: int) -> tuple:
    """Induce the column (dx; dy): sort dx into the x-row and dy into the
    y-row, then re-pair by position.  The rows are partitions, so an empty
    column (0; 0) left at the end is dropped (family B: a 1/2 joining a
    (0; y) string)."""
    xs = sorted([x for x, _ in cols] + [dx], reverse=True)
    ys = sorted([y for _, y in cols] + [dy], reverse=True)
    return tuple(c for c in zip(xs, ys) if c != (0, 0))


def padding_column(cols, i: int) -> tuple:
    """The column inserted to pad column i: (x+1; x) when x < y, and (v; v)
    with v = y+1 for the leading column, else v = max(y+1, min(x-1, y_{i-1}))."""
    x, y = cols[i]
    if x < y:
        return x + 1, x
    v = y + 1 if i == 0 else max(y + 1, min(x - 1, cols[i - 1][1]))
    return v, v


def normalize(family: str, cols) -> tuple:
    """Pad every column outside the leftmost violation to a staircase step.

    Returns the list of inserted columns and the final columns; satisfied
    input needs no insertion.
    """
    cols = tuple(cols)
    inserted = []
    if staircase_holds(family, cols):
        return inserted, cols
    while True:
        base = set(violations(family, cols)[0])
        bad = next((i for i, c in enumerate(cols) if i not in base and not is_step(c)), None)
        if bad is None:
            return inserted, cols
        dx, dy = padding_column(cols, bad)
        inserted.append((dx, dy))
        cols = row_insert(cols, dx, dy)


def full_staircase(cols) -> tuple:
    """Pad the first non-step column until every column is a staircase step."""
    cols = tuple(cols)
    inserted = []
    while True:
        bad = next((i for i, c in enumerate(cols) if not is_step(c)), None)
        if bad is None:
            return inserted, cols
        dx, dy = padding_column(cols, bad)
        inserted.append((dx, dy))
        cols = row_insert(cols, dx, dy)


def base_eta_index(family: str, cols) -> int:
    """q of the witness eta(q) carried by a normalized base (one violation)."""
    viol = violations(family, cols)
    expect(len(viol) == 1, f"{pairs_text(cols)} has {len(viol)} violations, not one")
    if len(viol[0]) == 1:
        a, b = cols[viol[0][0]]
        return 2 * a + 1 if family == "D" else 2 * b + 2
    (c, e), (_, _) = cols[viol[0][0]], cols[viol[0][1]]
    return 2 * e + 2 if family == "D" else 2 * c + 1


def eta_weight(family: str, m: int, q: int) -> tuple:
    """Highest weight of eta(q) at rank m; None when q is out of range."""
    if family == "D":
        if not 0 <= q <= m - 1:
            return None
        last = HALF if q % 2 == 0 else -HALF
        return (Fraction(3, 2),) * q + (HALF,) * (m - q - 1) + (last,)
    if not 0 <= q <= m:
        return None
    return (Fraction(3, 2),) * q + (HALF,) * (m - q)


def orbit_columns(family: str, cols) -> tuple:
    """Column sizes of the orbit attached to a strict core, and the ambient N."""
    parts = []
    if family == "D":
        for x, y in cols:
            parts.extend((2 * x, 2 * x - 1, 2 * y + 1, 2 * y))
        ambient = 4 * size(cols)
    else:
        cols = list(cols)
        if not cols or cols[-1][0] != 0:
            cols.append((0, 0))
        for x, y in cols:
            parts.extend((2 * y + 1, 2 * y, 2 * x, 2 * x - 1))
        ambient = 4 * size(cols) + 1
    return tuple(sorted((c for c in parts if c > 0), reverse=True)), ambient


def orbit_dimension(parts, ambient: int) -> int:
    """N(N-1)/2 - (sum c^2)/2 + (odd rows of the transposed partition)/2."""
    rows = [sum(1 for c in parts if c >= i) for i in range(1, max(parts, default=0) + 1)]
    odd = sum(1 for r in rows if r % 2)
    num = ambient * (ambient - 1) - sum(c * c for c in parts) + odd
    expect(num % 2 == 0, f"odd orbit dimension numerator for {parts}")
    return num // 2


def nilcone_dimension(ambient: int) -> int:
    return ambient * (ambient - 1) // 2 - ambient // 2


# ---------------------------------------------------------------------------
# verdicts of string-pair parameters

def _steps_of(verdict):
    return tuple(verdict.normalized.steps) if verdict.normalized is not None else ()


def check_induction_steps(cols, steps, final) -> None:
    """Every step is the row insertion of its column, and the steps chain."""
    current = tuple(cols)
    for k, step in enumerate(steps):
        expect(tuple(step.before.pairs) == current,
               f"step {k + 1} starts at {step.before}, expected {pairs_text(current)}")
        after = row_insert(current, step.dx, step.dy)
        expect(tuple(step.after.pairs) == after,
               f"step {k + 1} inserting ({step.dx}; {step.dy}) gives {step.after}, "
               f"row insertion gives {pairs_text(after)}")
        current = after
    expect(tuple(final) == current,
           f"final {pairs_text(final)} is not the last step {pairs_text(current)}")


def check_certificate(family: str, n: int, cert) -> None:
    """Shift-1/2 sizes plus the core's n give n; the core is strict and
    carries the attached orbit."""
    core = tuple(cert.core.pairs) if cert.core is not None else ()
    stein = sum(f.a for f in cert.stein_factors)
    expect(stein + size(core) == n,
           f"stein sizes {stein} plus core n {size(core)} is not {n}")
    if core:
        expect(strict_staircase(family, core), f"core {pairs_text(core)} is not strict")
        parts, ambient = orbit_columns(family, core)
        expect(tuple(cert.orbit.cols) == parts and cert.orbit.ambient == ambient,
               f"orbit {cert.orbit} is not {parts} in so({ambient})")
    else:
        expect(cert.orbit is None, "an orbit without a core")


def check_string_pair_verdict(family: str, cols, verdict) -> None:
    """The full check of ``classify(pairs_to_param(cols))``."""
    cols = tuple(cols)
    n = size(cols)
    status = verdict.status.value
    expect(verdict.pairs is not None and tuple(verdict.pairs.pairs) == cols,
           f"classified as {verdict.pairs}, input {pairs_text(cols)}")
    satisfied = staircase_holds(family, cols)
    expect(status == ("Unitary" if satisfied else "NonUnitary"),
           f"{family} {pairs_text(cols)}: status {status}, staircase "
           f"{'holds' if satisfied else 'fails'}")
    if satisfied:
        check_certificate(family, n, verdict.certificate)
        return
    steps = _steps_of(verdict)
    inserted, final = normalize(family, cols)
    expect([(s.dx, s.dy) for s in steps] == inserted,
           f"{pairs_text(cols)}: inserted {[(s.dx, s.dy) for s in steps]}, "
           f"expected {inserted}")
    check_induction_steps(cols, steps, verdict.normalized.final.pairs)
    wit = verdict.witness
    expect(wit is not None and wit.q is not None, f"{pairs_text(cols)}: no eta witness")
    q = base_eta_index(family, final)
    expect(wit.q == q, f"{pairs_text(cols)}: witness eta({wit.q}), base gives eta({q})")
    m = 2 * size(final)
    expect(len(wit.weight) == m,
           f"{pairs_text(cols)}: witness of length {len(wit.weight)}, group rank {m}")
    expect(tuple(wit.weight) == eta_weight(family, m, q),
           f"{pairs_text(cols)}: weight is not eta({q}) at rank {m}")


# ---------------------------------------------------------------------------
# verdicts of mixed parameters

def dominant_mu(mu) -> tuple:
    """All entries are half-odd, so the dominant mu is |mu| sorted descending."""
    return tuple(sorted((abs(m) for m in mu), reverse=True))


def _factor_rank(factor) -> int:
    # a one-dimensional string covers a coordinates, a deformation pair 2a
    return factor.a if type(factor).__name__ == "TrivialString" else 2 * factor.a


def check_mixed_verdict(family: str, mu, verdict, same_status) -> None:
    """Check a Hermitian genuine parameter with several mu-blocks.

    ``same_status`` lists the statuses of the Hermitian dual and of the
    dominant form; both must equal the verdict's.
    """
    status = verdict.status.value
    rank = len(mu)
    expect(status in ("Unitary", "NonUnitary"),
           f"a Hermitian genuine parameter classified {status}")
    for other in same_status:
        expect(other == status, f"status {status} changes to {other} under W or duality")
    mu0 = dominant_mu(mu)
    if status == "Unitary":
        cert = verdict.certificate
        gl = sum(_factor_rank(f) for _, f in cert.gl_factors)
        core = tuple(cert.core.pairs) if cert.core is not None else ()
        half = sum(f.a for f in cert.stein_factors) + size(core)
        expect(gl + 2 * half == rank,
               f"factors cover {gl} + 2*{half} coordinates of rank {rank}")
        if core:
            expect(strict_staircase(family, core), f"core {pairs_text(core)} is not strict")
        return
    wit = verdict.witness
    weight = tuple(wit.weight)
    if _steps_of(verdict):
        # the witness of a padded core lives on the induced group
        expect(wit.q is not None and weight == eta_weight(family, len(weight), wit.q),
               f"padded witness is not eta({wit.q}) at rank {len(weight)}")
        return
    diff = tuple(w - m for w, m in zip(weight, mu0))
    if wit.q is not None:
        start = mu0.index(HALF)
        eta = eta_weight(family, rank - start, wit.q)
        expect(eta is not None and weight == mu0[:start] + eta,
               f"witness is not eta({wit.q}) on the mu = 1/2 block")
        return
    # a lifted GL witness: a bottom-layer shift 1^j 0^(m-2j) (-1)^j on one block
    support = [i for i, d in enumerate(diff) if d != 0]
    expect(support, "lifted witness equals the lowest K-type")
    lo, hi = support[0], support[-1]
    expect(len({mu0[i] for i in range(lo, hi + 1)}) == 1, "shift spans two mu-blocks")
    block = [i for i, m in enumerate(mu0) if m == mu0[lo]]
    shift = [diff[i] for i in block]
    j = shift.count(1)
    expect(j >= 1 and shift == [1] * j + [0] * (len(block) - 2 * j) + [-1] * j,
           f"lifted shift {shift} is not a bottom-layer shift")


# ---------------------------------------------------------------------------
# command-line outputs

SPIN16_TABLE = (
    # the Spin(16) table of the paper: D, n = 4
    ("(4; 0)", "Yes - unipotent", ""),
    ("(3 1; 0 0)", "Yes", ""),
    ("(3; 1)", "Yes - unipotent", ""),
    ("(2 2; 0 0)", "No", "eta(2)"),
    ("(2 1 1; 0 0 0)", "Yes", ""),
    ("(2 1; 1 0)", "Yes - unipotent", ""),
    ("(2; 2)", "Yes", ""),
    ("(1 1 1 1; 0 0 0 0)", "Yes", ""),
    ("(1 1 1; 1 0 0)", "Yes", ""),
    ("(1 1; 1 1)", "Yes", ""),
    ("(1 1; 2 0)", "No", "eta(3)"),
    ("(1; 3)", "No", "eta(3)"),
)


def _expected_row(family: str, cols) -> tuple:
    if staircase_holds(family, cols):
        return "Yes - unipotent" if strict_staircase(family, cols) else "Yes", ""
    _, final = normalize(family, cols)
    return "No", f"eta({base_eta_index(family, final)})"


def check_table(family: str, n: int, code: int, text: str) -> None:
    """``table --json``: every pair of size n once, with its verdict, witness
    and Langlands columns; D, n = 4 is the paper's Spin(16) table."""
    expect(code == 0, f"table exit code {code}")
    rows = json.loads(text)
    seen = [parse_pairs_text(r["pairs"]) for r in rows]
    expect(len(seen) == len(set(seen)) and set(seen) == all_string_pairs(family, n),
           f"table {family} {n} does not list every pair once")
    for r, cols in zip(rows, seen):
        expect((r["verdict"], r["witness"]) == _expected_row(family, cols),
               f"row {r['pairs']}: {r['verdict']} {r['witness']}, "
               f"expected {_expected_row(family, cols)}")
        lam_l, lam_r = langlands_columns(cols)
        expect(r["lambda_L"] == [fmt(v) for v in lam_l]
               and r["lambda_R"] == [fmt(v) for v in lam_r],
               f"row {r['pairs']}: Langlands columns differ")
    if (family, n) == ("D", 4):
        got = tuple((r["pairs"], r["verdict"], r["witness"]) for r in rows)
        expect(got == SPIN16_TABLE, "the D, n = 4 table is not the Spin(16) table")


def check_classify_json(family: str, cols, code: int, text: str) -> None:
    """``classify --json`` on string pairs."""
    doc = json.loads(text)
    n = size(cols)
    satisfied = staircase_holds(family, cols)
    expect(doc["status"] == ("Unitary" if satisfied else "NonUnitary"),
           f"{pairs_text(cols)}: status {doc['status']}")
    expect(code == (0 if satisfied else 3), f"{pairs_text(cols)}: exit code {code}")
    lam_l, lam_r = langlands_columns(cols)
    expect(doc["langlands"]["lambda_L"] == [fmt(v) for v in lam_l]
           and doc["langlands"]["lambda_R"] == [fmt(v) for v in lam_r],
           f"{pairs_text(cols)}: Langlands columns differ")
    if satisfied:
        cert = doc["certificate"]
        core = parse_pairs_text(cert["core"]) if cert["core"] else ()
        expect(sum(cert["stein_sizes"]) + size(core) == n,
               f"{pairs_text(cols)}: certificate sizes do not add up to {n}")
        if core:
            parts, ambient = orbit_columns(family, core)
            expect(tuple(cert["orbit_columns"]) == parts, f"{pairs_text(cols)}: orbit")
            expect(cert["orbit_dimension"] == orbit_dimension(parts, ambient),
                   f"{pairs_text(cols)}: orbit dimension")
        return
    inserted, final = normalize(family, cols)
    expect(doc["inductions"] == [dx for dx, _ in inserted],
           f"{pairs_text(cols)}: inductions {doc['inductions']}")
    q = base_eta_index(family, final)
    expect(doc["witness"]["eta_index"] == q, f"{pairs_text(cols)}: witness index")
    expect(doc["witness"]["weight"] == [fmt(v) for v in eta_weight(family, 2 * size(final), q)],
           f"{pairs_text(cols)}: witness weight")


def check_rewrite_json(cols, code: int, text: str) -> None:
    """``rewrite --json``: each step is a row insertion; all end as steps."""
    expect(code == 0, f"rewrite exit code {code}")
    doc = json.loads(text)
    inserted, final = full_staircase(cols)
    current = tuple(cols)
    expect(len(doc["steps"]) == len(inserted), f"{pairs_text(cols)}: step count")
    for line, label, (dx, dy) in zip(doc["steps"], doc["sizes"], inserted):
        before_text, rest = line.split(" --", 1)
        arrow, after_text = rest.split("--> ", 1)
        before, after = parse_pairs_text(before_text), parse_pairs_text(after_text)
        expect(before == current, f"{pairs_text(cols)}: steps do not chain")
        expect(int(arrow) == label == dx, f"{pairs_text(cols)}: label {arrow}, expected {dx}")
        expect(after == row_insert(before, dx, dy),
               f"{line}: not the row insertion of ({dx}; {dy})")
        current = after
    expect(parse_pairs_text(doc["final"]) == current == final,
           f"{pairs_text(cols)}: final {doc['final']}")
    expect(all(is_step(c) for c in current), f"{pairs_text(cols)}: final has a non-step column")


def check_orbit_json(family: str, cols, code: int, text: str) -> None:
    """``orbit --json`` on a strict core."""
    expect(code == 0, f"orbit exit code {code}")
    doc = json.loads(text)
    parts, ambient = orbit_columns(family, cols)
    expect(tuple(doc["columns"]) == parts and doc["ambient"] == ambient,
           f"{pairs_text(cols)}: orbit {doc['columns']} in so({doc['ambient']})")
    expect(doc["dimension"] == orbit_dimension(parts, ambient), f"{pairs_text(cols)}: dim")
    expect(doc["nilcone_dimension"] == nilcone_dimension(ambient), "nilcone dimension")
    if family == "D":
        shadow = tuple(sorted((c for x, y in cols for c in (2 * x, 2 * y) if c > 0),
                              reverse=True))
        n = size(cols)
        lhs = nilcone_dimension(4 * n) - doc["dimension"]
        rhs = 2 * (nilcone_dimension(2 * n) - orbit_dimension(shadow, 2 * n))
        expect(lhs == rhs and doc["codimension_identity"] is True,
               f"{pairs_text(cols)}: codimension identity")


def check_verify_chain(a: int, b: int, code: int, text: str) -> None:
    """``verify-chain`` on a single column (a; b) is all-OK exactly when a <= b+1."""
    expect(code == 0, f"verify-chain exit code {code}")
    lines = text.strip().splitlines()
    verdict = lines[-1] if lines else ""
    expect(verdict in ("all steps OK", "some steps are not certified"),
           f"({a}; {b}): unexpected verify-chain output {verdict!r}")
    expect((verdict == "all steps OK") == (a <= b + 1),
           f"({a}; {b}): {verdict!r} but a <= b+1 is {a <= b + 1}")
