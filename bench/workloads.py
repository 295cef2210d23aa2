"""Seeded inputs, operations and output checks of the four workloads.

Every generator is a pure function of the seed (and, for the workloads built
on the tables, of ``enumerate_pairs``): the same seed gives the same inputs.  Inputs are
plain data -- families, integer columns, ``Fraction`` vectors and argv lists
-- so that two imports of spindual can be compared on them.  The program
receives only these inputs; the checks in :mod:`checker` never call it,
except that ``mixed_blocks`` classifies the Hermitian dual and the dominant
form of each input to test that the status does not change.
"""

import contextlib
import io
import random
from fractions import Fraction

import checker

HALF = Fraction(1, 2)

TABLE_SIZES = (8, 10, 12)
LARGE_NAMED = (
    ("D", ((1000, 0),)),                      # rank 2000, Unitary, no rewriting
    ("B", ((30, 5), (20, 2), (9, 1))),        # rank 134, 38 inductions
)
LARGE_DRAWS = 40
MIXED_COUNT = 800
CLI_TABLES = (("D", 4), ("B", 4), ("D", 7), ("B", 6))
CLI_CLASSIFY = 24
CLI_REWRITE = 16
CLI_ORBIT = 16
CLI_VERIFY = 32
# the inductions of the rows drawn for classify and rewrite, slot by slot:
# fixing them keeps the cost of a round nearly the same from seed to seed
CLI_INDUCTIONS = {"D": (0, 1, 2, 3), "B": (0, 2, 4, 6)}

# the same small operations warm every workload up, whatever the seed
WARMUP_PAIRS = tuple(("D", c) for c in (((4, 0),), ((2, 0), (2, 0)), ((1, 2), (1, 0)), ((1, 3),))) \
    + tuple(("B", c) for c in (((2, 2),), ((3, 1), (1, 0)), ((1, 0), (1, 0))))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# string_tables: every row of the D and B tables at n = 8, 10, 12

def gen_string_tables(sd, seed):
    rows = [(fam, tuple(p.pairs))
            for fam in ("D", "B") for n in TABLE_SIZES
            for p in sd.spinclass.enumerate_pairs(fam, n)]
    _rng("string_tables", seed).shuffle(rows)
    return rows


def check_string_tables_inputs(inputs):
    """The rows are exactly the independently enumerated pairs."""
    got = {}
    for fam, cols in inputs:
        got.setdefault((fam, checker.size(cols)), []).append(cols)
    for fam in ("D", "B"):
        for n in TABLE_SIZES:
            rows = got.get((fam, n), [])
            checker.expect(len(rows) == len(set(rows))
                           and set(rows) == checker.all_string_pairs(fam, n),
                           f"enumerate_pairs({fam!r}, {n}) is not every pair once")


# ---------------------------------------------------------------------------
# large_rank: named large parameters plus cost-banded seeded draws

def _rewrite_cost(family, cols):
    """A cost proxy in units of one re-extracted value: the front end is
    linear in n, and each insertion re-extracts the whole half-class once per
    column.  Calibrated on this repository's classify at n = 100 .. 400."""
    inserted, _ = checker.normalize(family, cols)
    cost = 21 * checker.size(cols)
    current = tuple(cols)
    for dx, dy in inserted:
        current = checker.row_insert(current, dx, dy)
        cost += len(current) * checker.size(current)
    return cost, len(inserted)


def _staircase_draw(rng, family, n, k):
    """k columns near a staircase, shifted so that the size is about n."""
    while True:
        d = [rng.randint(-6, 8) for _ in range(k)]
        g = [rng.randint(-3, 5) for _ in range(k - 1)]
        rel = [(d[-1], 0)]
        for i in range(k - 2, -1, -1):
            x_next, y_next = rel[-1]
            y = x_next - 1 + g[i] if family == "D" else y_next + g[i]
            rel.append((y + d[i], y))
        rel.reverse()
        shift = (n - checker.size(rel)) // (2 * k)
        cols = tuple((x + shift, y + shift) for x, y in rel)
        xs = [x for x, _ in cols]
        ys = [y for _, y in cols]
        if min(ys) >= 0 and min(xs) >= 1 and xs == sorted(xs, reverse=True) \
                and ys == sorted(ys, reverse=True):
            return cols


def large_draw_slot(rng, j):
    """Slot j has a fixed family, size and cost band; the seed picks the
    columns.  Bands keep each round's cost the same from seed to seed."""
    family = "DB"[j % 2]
    n = 100 + (37 * j) % 300
    k = 2 + j % 3
    target = 60 * n
    while True:
        cols = _staircase_draw(rng, family, n, k)
        cost, steps = _rewrite_cost(family, cols)
        if steps >= 2 and abs(cost - target) <= target // 10:
            return family, cols


def gen_large_rank(sd, seed):
    rng = _rng("large_rank", seed)
    return list(LARGE_NAMED) + [large_draw_slot(rng, j) for j in range(LARGE_DRAWS)]


# ---------------------------------------------------------------------------
# mixed_blocks: Hermitian genuine parameters with several mu-blocks

def _centered(a, t=Fraction(0)):
    return [Fraction(a - 1 - 2 * i) + t for i in range(a)]


def _gl_block_nu(rng, shape, m, denominators):
    """A nu for m coordinates that is symmetric under negation, made of
    centered strings and dual deformation pairs comp(a, t) + comp(a, -t).
    |t| < 1 is unitary; |t| > 1 (never an integer) is not.  The shape decides
    the strings and pairs and which t exceed 1; the seed decides each t."""
    nu = []
    while len(nu) < m:
        room = m - len(nu)
        if room >= 2 and shape.random() < 0.6:
            a = shape.randint(1, min(3, room // 2))
            den = rng.choice(denominators)
            num = rng.randint(1, den - 1) + (0 if shape.random() < 0.8 else den)
            t = Fraction(num, den)
            nu += _centered(a, t) + _centered(a, -t)
        else:
            nu += _centered(shape.randint(1, min(3, room)))
    return nu


def _core_columns(shape):
    cols = []
    for _ in range(shape.randint(1, 2)):
        cols.append((shape.randint(1, 3), shape.randint(0, 2)))
    xs = sorted((x for x, _ in cols), reverse=True)
    ys = sorted((y for _, y in cols), reverse=True)
    return tuple(zip(xs, ys))


def mixed_param(rng, j):
    """Slot j has a fixed shape (family, blocks, core and GL make-up, drawn
    from a generator that does not depend on the seed); the seed picks the
    deformations t and the Weyl element.  Fixed shapes keep the cost of a
    round nearly the same from seed to seed."""
    shape = random.Random(f"mixed_blocks:shape:{j}")
    family = shape.choice("BD")
    blocks = [(HALF, None)]
    for r in (2, 3, 4):
        if shape.random() < 0.7:
            blocks.append((Fraction(2 * r - 1, 2), shape.randint(2, 4)))
    mu, nu = [], []
    for value, m in blocks:
        if value == HALF:
            core = checker.half_class(_core_columns(shape))
            part = list(core) + [-v for v in core]
            part += _gl_block_nu(rng, shape, shape.randint(2, 6), (3, 4))
        else:
            part = _gl_block_nu(rng, shape, m, (2, 3, 4))
        mu += [value] * len(part)
        nu += part
    # a random Weyl element: permute, and flip signs (an even number in D)
    order = list(range(len(mu)))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in order]
    if family == "D" and signs.count(-1) % 2:
        signs[0] = -signs[0]
    return (family, tuple(s * mu[i] for s, i in zip(signs, order)),
            tuple(s * nu[i] for s, i in zip(signs, order)))


def gen_mixed_blocks(sd, seed):
    rng = _rng("mixed_blocks", seed)
    return [mixed_param(rng, j) for j in range(MIXED_COUNT)]


# ---------------------------------------------------------------------------
# cli_tools: in-process spindual.cli.main calls

def _cli_pairs_arg(cols):
    return ",".join(str(x) for x, _ in cols) + ";" + ",".join(str(y) for _, y in cols)


def _banded_row(rng, banded, j):
    """Slot j: family D for even j, a fixed number of inductions, a seeded row."""
    fam = "DB"[j % 2]
    k = CLI_INDUCTIONS[fam][(j // 2) % len(CLI_INDUCTIONS[fam])]
    return fam, rng.choice(banded[fam, k])


def gen_cli_tools(sd, seed):
    rng = _rng("cli_tools", seed)
    ops = [("table", fam, n, None) for fam, n in CLI_TABLES]
    rows = {fam: [tuple(p.pairs) for p in sd.spinclass.enumerate_pairs(fam, 8)]
            for fam in ("D", "B")}
    banded = {}
    for fam in ("D", "B"):
        for cols in rows[fam]:
            banded.setdefault((fam, len(checker.normalize(fam, cols)[0])), []).append(cols)
    for j in range(CLI_CLASSIFY):
        fam, cols = _banded_row(rng, banded, j)
        ops.append(("classify", fam, None, cols))
    for j in range(CLI_REWRITE):
        fam, cols = _banded_row(rng, banded, j)
        ops.append(("rewrite", fam, None, cols))
    strict = {fam: [c for c in rows[fam] if checker.strict_staircase(fam, c)]
              for fam in ("D", "B")}
    for j in range(CLI_ORBIT):
        fam = "DB"[j % 2]
        ops.append(("orbit", fam, None, rng.choice(strict[fam])))
    for j in range(CLI_VERIFY):
        fam = "DB"[j % 2]
        a = rng.randint(1, 7)
        ops.append(("verify-chain", fam, None, ((a, 8 - a),)))
    rng.shuffle(ops)
    return ops


def cli_argv(op):
    command, fam, n, cols = op
    if command == "table":
        return ["table", "--group", fam, "--rank", str(n), "--json"]
    argv = [command, "--group", fam, "--pairs", _cli_pairs_arg(cols)]
    return argv + ["--json"] if command in ("classify", "rewrite", "orbit") else argv


def check_cli(sd, op, out):
    command, fam, n, cols = op
    code, text = out
    if command == "table":
        checker.check_table(fam, n, code, text)
    elif command == "classify":
        checker.check_classify_json(fam, cols, code, text)
    elif command == "rewrite":
        checker.check_rewrite_json(cols, code, text)
    elif command == "orbit":
        checker.check_orbit_json(fam, cols, code, text)
    else:
        (a, b), = cols
        checker.check_verify_chain(a, b, code, text)


# ---------------------------------------------------------------------------
# operations

def _classify_pairs_ops(sd, inputs):
    sc = sd.spinclass
    params = [sc.pairs_to_param(sc.StringPairs(fam, cols)) for fam, cols in inputs]
    return [lambda p=p: sd.spinclass.classify(p) for p in params]


def _mixed_ops(sd, inputs):
    w = sd.weyl
    params = [w.GenuineParam(w.GroupTag(fam, len(mu)), mu, nu) for fam, mu, nu in inputs]
    return [lambda p=p: sd.spinclass.classify(p) for p in params]


def cli_call(sd, argv):
    """``spindual.cli.main(argv)`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sd.cli.main(argv)
    return code, buf.getvalue()


def _cli_ops(sd, inputs):
    return [lambda argv=cli_argv(op): cli_call(sd, argv) for op in inputs]


def check_pairs_output(sd, inp, out):
    fam, cols = inp
    checker.check_string_pair_verdict(fam, cols, out)


def check_mixed_output(sd, inp, out):
    fam, mu, nu = inp
    w = sd.weyl
    p = w.GenuineParam(w.GroupTag(fam, len(mu)), mu, nu)
    others = (sd.spinclass.classify(w.hermitian_dual(p)).status.value,
              sd.spinclass.classify(w.dominantize(p).param).status.value)
    checker.check_mixed_verdict(fam, mu, out, others)


def warm_up(sd, name):
    sc = sd.spinclass
    for fam, cols in WARMUP_PAIRS:
        sc.classify(sc.pairs_to_param(sc.StringPairs(fam, cols)))
    if name == "cli_tools":
        cli_call(sd, ["table", "--group", "D", "--rank", "4", "--json"])


class Workload:
    """How one workload makes its inputs, runs them and checks the outputs
    (the reasons for each workload are in README.md)."""

    def __init__(self, name, generate, build_ops, check, check_inputs=None):
        self.name = name
        self.generate = generate
        self.build_ops = build_ops
        self.check = check
        self.check_inputs = check_inputs


WORKLOADS = {
    w.name: w for w in (
        Workload("string_tables", gen_string_tables, _classify_pairs_ops,
                 check_pairs_output, check_string_tables_inputs),
        Workload("large_rank", gen_large_rank, _classify_pairs_ops, check_pairs_output),
        Workload("mixed_blocks", gen_mixed_blocks, _mixed_ops, check_mixed_output),
        Workload("cli_tools", gen_cli_tools, _cli_ops, check_cli),
    )
}
