"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (integer and rational arithmetic only); every
criterion also carries its stated wall-clock budget.
"""

import itertools
import random
import time
from fractions import Fraction

from spindual.glclass import CompParams, GLStatus, SteinPair, classify_gl, comp_nu
from spindual.intertwine import (
    Pole, SignedEntry, WordSystem, entries, gl_move_scalar, pass_left_ok,
    sort_ok, word_action, word_scalar,
)
from spindual.orbits import attach_orbit, codim_identity_holds, orbit_dim
from spindual.rewriter import CaseI, full_staircase
from spindual.spinclass import (
    Status, classify, enumerate_pairs, pairs_to_param, peel_stein_factors,
)
from spindual.stringpairs import StringPairs, decompose_alpha_beta, unitarity_test
from spindual.weyl import (
    GenuineParam, GroupTag, apply, hermitian_dual, hermitian_witness,
    enumerate_weyl, rho, to_langlands,
)
from tests.test_weyl import rnd_weyl

F = Fraction
H = F(1, 2)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def check(self):
        assert self.elapsed() < self.limit, f"budget {self.limit}s exceeded"


def report(num, name, budget):
    print(f"\nACCEPTANCE {num} PASS ({budget.elapsed():.2f}s): {name}")


GOLDEN_TABLE = [
    ("(4; 0)", "unitary-strict", None),
    ("(3 1; 0 0)", "unitary", None),
    ("(3; 1)", "unitary-strict", None),
    ("(2 2; 0 0)", "nonunitary", 2),
    ("(2 1 1; 0 0 0)", "unitary", None),
    ("(2 1; 1 0)", "unitary-strict", None),
    ("(2; 2)", "unitary", None),
    ("(1 1 1 1; 0 0 0 0)", "unitary", None),
    ("(1 1 1; 1 0 0)", "unitary", None),
    ("(1 1; 1 1)", "unitary", None),
    ("(1 1; 2 0)", "nonunitary", 3),
    ("(1; 3)", "nonunitary", 3),
]

LAMBDA_L_40 = (F(7, 2), F(5, 2), F(3, 2), H, F(0), F(-1), F(-2), F(-3))
LAMBDA_R_40 = (F(3), F(2), F(1), F(0), -H, F(-3, 2), F(-5, 2), F(-7, 2))
LAMBDA_L_31 = (F(5, 2), F(3, 2), H, -H, F(1), F(0), F(-1), F(-2))
LAMBDA_R_31 = (F(2), F(1), F(0), F(-1), H, -H, F(-3, 2), F(-5, 2))


def test_acceptance_1_spin16_table():
    """The rank-4 table: verdicts, strictness flags, witnesses, lambda columns."""
    budget = Budget(1.0)
    rows = list(enumerate_pairs("D", 4))
    assert len(rows) == 12
    unitary = nonunitary = 0
    for pairs, (text, expect, eta) in zip(rows, GOLDEN_TABLE):
        assert str(pairs) == text
        verdict = classify(pairs_to_param(pairs))
        strict = unitarity_test(pairs).strict
        if expect == "nonunitary":
            assert verdict.status is Status.NON_UNITARY
            assert verdict.witness.q == eta
            nonunitary += 1
        else:
            assert verdict.status is Status.UNITARY
            assert strict == (expect == "unitary-strict")
            unitary += 1
    assert (unitary, nonunitary) == (9, 3)
    lp = to_langlands(pairs_to_param(StringPairs("D", ((4, 0),))))
    assert lp.lambda_l == LAMBDA_L_40 and lp.lambda_r == LAMBDA_R_40
    lp = to_langlands(pairs_to_param(StringPairs("D", ((3, 1),))))
    assert lp.lambda_l == LAMBDA_L_31 and lp.lambda_r == LAMBDA_R_31
    budget.check()
    report(1, "rank-4 classification table reproduced row for row", budget)


def test_acceptance_2_model_orbits():
    """(n, 0)-cores: columns (2n, 2n-1, 1), dimension 4n^2, lambda ~ rho/2."""
    budget = Budget(1.0)
    for n in range(1, 7):
        pairs = StringPairs("D", ((n, 0),))
        orbit = attach_orbit(pairs)
        assert orbit.cols == (2 * n, 2 * n - 1, 1)
        assert orbit_dim(orbit) == 4 * n * n
        lp = to_langlands(pairs_to_param(pairs))
        half_rho = [v / 2 for v in rho(GroupTag("D", 2 * n))]
        assert sorted(abs(v) for v in lp.lambda_l) == sorted(half_rho)
        assert F(0) in lp.lambda_l  # a zero entry frees the flip parity
    budget.check()
    report(2, "model orbits and rho/2 infinitesimal characters", budget)


def test_acceptance_3_codimension_identity():
    """Exhaustive codimension identity over strict cores, k <= 4, x,y <= 5."""
    budget = Budget(5.0)
    from tests.test_orbits import strict_cores
    cores = strict_cores(4, 5)
    for pairs in cores:
        assert codim_identity_holds(pairs), pairs
    assert len(cores) == 87
    budget.check()
    report(3, f"codimension identity on {len(cores)} strict cores", budget)


def test_acceptance_4_rewrite_golden():
    """The rewriting transcript of (5 4 4; 2 2 0)."""
    budget = Budget(1.0)
    steps, final = full_staircase(StringPairs("D", ((5, 2), (4, 2), (4, 0))))
    assert [s.label for s in steps] == [3, 4, 3, 3, 2, 1]
    assert final.pairs == (
        (5, 4), (4, 3), (4, 3), (4, 3), (3, 2), (3, 2), (3, 2), (2, 1), (1, 0)
    )
    budget.check()
    report(4, "rewriting transcript 3,4,3,3,2,1 with its staircase", budget)


def test_acceptance_5_type_b_decomposition():
    """The anchored splitting of a family-B half-integral class."""
    budget = Budget(1.0)
    values = tuple(F(n, 2) for n in (13, 5, 1, -3, -7, -7, -11))
    alpha, betas = decompose_alpha_beta(values)
    assert betas == (tuple(F(n, 2) for n in (-11, -7, -3, 1, 5)),)
    assert alpha == (F(-7, 2), F(13, 2))
    budget.check()
    report(5, "family-B anchored class decomposition", budget)


def pairs_pool(max_n):
    pool = []
    for fam in ("B", "D"):
        for n in range(1, max_n + 1):
            pool.extend((fam, p) for p in enumerate_pairs(fam, n))
    return pool


def test_acceptance_6a_weyl_invariance():
    """classify is constant on Weyl orbits: 10^3 random conjugations."""
    budget = Budget(10.0)
    rng = random.Random(2024)
    pool = pairs_pool(3)
    for _ in range(1000):
        fam, pairs = pool[rng.randrange(len(pool))]
        p = pairs_to_param(pairs)
        w = rnd_weyl(rng, p.group.rank, fam)
        q = GenuineParam(p.group, apply(w, p.mu), apply(w, p.nu))
        assert classify(q).status == classify(p).status
    budget.check()
    report(6, "(a) invariance under 1000 random Weyl conjugations", budget)


def test_acceptance_6b_dual_involution():
    """The dual is an involution and preserves the verdict."""
    budget = Budget(10.0)
    for fam, pairs in pairs_pool(4):
        p = pairs_to_param(pairs)
        assert hermitian_dual(hermitian_dual(p)) == p
        assert classify(p).status == classify(hermitian_dual(p)).status
    budget.check()
    report(6, "(b) dual involution and verdict equality", budget)


def test_acceptance_6c_hermitian_witness_exhaustive():
    """Witness search agrees with full Weyl enumeration at ranks <= 4."""
    budget = Budget(10.0)
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(1, 4)
        fam = rng.choice(("B", "D"))
        mu = tuple(sorted(
            (rng.choice((F(0), H, F(3, 2))) for _ in range(n)), reverse=True))
        nu = tuple(rng.choice((F(0), H, -H, F(1), F(-1), F(2))) for _ in range(n))
        p = GenuineParam(GroupTag(fam, n), mu, nu)
        got = hermitian_witness(p)
        brute = any(
            apply(w, p.mu) == p.mu and apply(w, p.nu) == tuple(-x for x in p.nu)
            for w in enumerate_weyl(p.group)
        )
        assert (got is not None) == brute
        if got is not None:
            assert apply(got, p.nu) == tuple(-x for x in p.nu)
    budget.check()
    report(6, "(c) hermitian witness matches exhaustive search", budget)


def test_acceptance_6d_scalar_loci():
    """Zero/pole loci of the move scalar equal the exclusion predicates."""
    budget = Budget(10.0)
    for length in range(1, 6):
        for lo_num in range(-13, 6, 2):
            chain_vals = tuple(F(lo_num, 2) + 2 * k for k in range(length))
            chain = entries(chain_vals, 1)
            for sign in (1, -1):
                c = 2 if sign == 1 else 3
                for x_num in range(-21, 22, 2):
                    x = F(x_num, 2)
                    try:
                        scalar = gl_move_scalar(chain_vals, x, sign != 1)
                        pole = False
                    except Pole:
                        pole, scalar = True, None
                    assert pole == (x == chain_vals[-1] + c)
                    if not pole:
                        assert (scalar == 0) == (x == chain_vals[0] - c)
                    xi = SignedEntry(x, sign)
                    assert pass_left_ok(chain, xi) == (
                        not pole and scalar != 0)
                    assert sort_ok([xi], chain) == (not pole)
    budget.check()
    report(6, "(d) scalar loci coincide with the exclusion predicates", budget)


def test_acceptance_6e_stein_boundary():
    """Deformation factors accepted iff |t| < 1, exactly."""
    budget = Budget(10.0)
    for a in (1, 2, 3):
        for num, den in [(1, 2), (2, 3), (9, 10), (99, 100)]:
            t = F(num, den)
            nu = comp_nu(a, t) + tuple(-v for v in comp_nu(a, t))
            v = classify_gl(nu)
            assert v.status is GLStatus.UNITARY_FACTORS
            assert v.factors == (SteinPair(a, t, 1),)
        # |t| = 1 exactly is never reported as a deformation factor
        nu = comp_nu(a, F(1)) + tuple(-v for v in comp_nu(a, F(1)))
        v = classify_gl(nu)
        assert all(not isinstance(f, SteinPair) for f in v.factors)
        assert not CompParams(a, F(1)).is_stein
        for num, den in [(3, 2), (5, 4), (7, 3)]:
            nu = comp_nu(a, F(num, den)) + tuple(-v for v in comp_nu(a, F(num, den)))
            assert classify_gl(nu).status is GLStatus.NON_UNITARY
    budget.check()
    report(6, "(e) deformation boundary |t| < 1 is exact", budget)


def test_acceptance_6f_witness_parity():
    """Witness parity per family and base kind, all violated pairs n <= 6."""
    budget = Budget(10.0)
    checked = 0
    for fam, pairs in pairs_pool(6):
        if unitarity_test(pairs):
            continue
        v = classify(pairs_to_param(pairs))
        assert v.status is Status.NON_UNITARY and v.witness is not None
        base = v.normalized.base
        single = isinstance(base, CaseI)
        if fam == "D":
            assert v.witness.q % 2 == (1 if single else 0), (fam, pairs)
        else:
            assert v.witness.q % 2 == (0 if single else 1), (fam, pairs)
        checked += 1
    assert checked == 100
    budget.check()
    report(6, f"(f) witness parity on {checked} violated parameters", budget)


def test_acceptance_6g_certificate_sizes():
    """Certificate factor sizes sum to the full rank on satisfied pairs."""
    budget = Budget(10.0)
    checked = 0
    for fam, pairs in pairs_pool(6):
        if not unitarity_test(pairs):
            continue
        factors, core = peel_stein_factors(pairs)
        total = 2 * sum(f.a for f in factors) + 2 * (core.n if core else 0)
        assert total == 2 * pairs.n
        assert all(f.t == H for f in factors)
        if core is not None:
            assert unitarity_test(core).strict
        checked += 1
    assert checked > 100
    budget.check()
    report(6, f"(g) certificate size conservation on {checked} parameters", budget)


def test_acceptance_7_nonreduced_words():
    """Scalar products agree along all words for the same element, 100 nu."""
    budget = Budget(1.0)
    rng = random.Random(7)
    for name in ("A2", "B2"):
        system = WordSystem(name)
        words = [w for n in range(5) for w in itertools.product(system.gens, repeat=n)]
        for _ in range(50):
            nu = tuple(
                F(rng.randint(-40, 40), 7) + F(i + 1, 11)
                for i in range(system.dim)
            )
            by_element = {}
            for word in words:
                key = word_action(system, word, nu)
                val = word_scalar(system, word, nu)
                assert by_element.setdefault(key, val) == val
    budget.check()
    report(7, "non-reduced word consistency on A2 and B2", budget)
