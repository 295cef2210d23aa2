"""Tests for string pairs, extraction, the staircase criterion and classify."""

import copy
import dataclasses
import importlib
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spindual.glclass import CompParams
from spindual.spinclass import (
    MalformedParameter, SpinRelevantKType, StageEvent, Status, StringPairs, Verdict, classify,
    decompose_alpha_beta, enumerate_pairs, eta_weight, extract_pairs,
    pairs_to_param, partition_nt, peel_stein_factors, transcript,
    unitarity_test,
)
from spindual.weyl import (
    GenuineParam, GroupTag, WeylElement, apply, hermitian_dual,
)
from tests.test_bench_checker import _checker
from tests.test_weyl import rnd_weyl

F = Fraction
H = F(1, 2)
# the +1/2 residue class of columns, restated without spindual
half_class = _checker().half_class
BENCH = Path(__file__).resolve().parents[1] / "bench"


def halves(*numerators):
    return tuple(F(n, 2) for n in numerators)


def test_partition_nt():
    assert partition_nt(halves(5, 1)) == {H: halves(5, 1)}
    assert partition_nt((F(-5, 2),)) == {-H: (F(-5, 2),)}
    assert partition_nt((F(3), F(0), F(1))) == {
        F(1): (F(3), F(1)), F(0): (F(0),)}


def test_string_pairs_invariants():
    p = StringPairs("D", ((1, 0), (2, 1)))
    assert p.pairs == ((2, 1), (1, 0))  # sorted doubly non-increasing
    assert p.n == 4 and p.k == 2
    with pytest.raises(MalformedParameter):
        StringPairs("D", ((2, 0), (1, 1)))
    with pytest.raises(MalformedParameter):
        StringPairs("D", ((0, 1),))  # family D needs x >= 1
    StringPairs("B", ((0, 1),))
    with pytest.raises(MalformedParameter):
        StringPairs("B", ((2, 0), (0, 1)))  # mixing both zero kinds
    with pytest.raises(ValueError, match="family must be 'B' or 'D'"):
        StringPairs("C", ((1, 0),))


def test_extract_pairs_d_examples():
    got = extract_pairs("D", halves(9, 5, 1, -3, -7, 5, 1))
    assert got.pairs == ((3, 2), (2, 0))
    got = extract_pairs("D", halves(5, 1, -3, -7, -11, -15))
    assert got.pairs == ((2, 4),)
    got = extract_pairs("D", halves(13, 9, 5, 1))
    assert got.pairs == ((4, 0),)


def test_extract_pairs_d_malformed():
    with pytest.raises(MalformedParameter):
        extract_pairs("D", halves(-3, -7))  # no string through 1/2
    with pytest.raises(MalformedParameter):
        extract_pairs("D", halves(5))  # bottom above 1/2
    with pytest.raises(MalformedParameter):
        extract_pairs("D", (F(1), F(-1)))  # wrong residue


def test_extract_pairs_d_roundtrip():
    for n in range(1, 9):
        for pairs in enumerate_pairs("D", n):
            assert extract_pairs("D", half_class(pairs.pairs)) == pairs


def test_decompose_alpha_beta_golden():
    alpha, betas = decompose_alpha_beta(halves(13, 5, 1, -3, -7, -7, -11))
    assert betas == (halves(-11, -7, -3, 1, 5),)
    assert alpha == halves(-7, 13)


def test_extract_pairs_b():
    assert extract_pairs("B", halves(5, 1, -3)).pairs == ((2, 1),)
    assert extract_pairs("B", halves(-3, -7)).pairs == ((0, 2),)
    assert extract_pairs("B", halves(9, 5, 1, 5, 1)).pairs == ((3, 0), (2, 0))
    with pytest.raises(MalformedParameter):
        extract_pairs("B", halves(13, 5, 1, -3, -7, -7, -11))


def test_extract_pairs_rejects_unknown_family():
    with pytest.raises(ValueError, match="family must be 'B' or 'D'"):
        extract_pairs("Q", halves(5, 1))


def test_extract_pairs_b_roundtrip():
    for n in range(1, 9):
        for pairs in enumerate_pairs("B", n):
            assert extract_pairs("B", half_class(pairs.pairs)) == pairs


def test_unitarity_test_examples():
    assert unitarity_test(StringPairs("D", ((4, 0),))).strict
    r = unitarity_test(StringPairs("D", ((2, 0), (2, 0))))
    assert not r and r.kind == "gap" and r.index == 1
    r = unitarity_test(StringPairs("B", ((2, 0),)))
    assert not r and r.kind == "column"
    assert unitarity_test(StringPairs("B", ((1, 1),))).strict
    assert unitarity_test(StringPairs("B", ((0, 1),))).strict
    r = unitarity_test(StringPairs("D", ((3, 1),)))
    assert r and r.strict
    r = unitarity_test(StringPairs("D", ((3, 1), (1, 0))))
    assert r and r.strict  # 3 > 1 >= 1 > 0
    r = unitarity_test(StringPairs("D", ((3, 0), (1, 0))))
    assert r and not r.strict  # the gap equality y_1 + 1 = x_2


def test_peel_examples():
    factors, core = peel_stein_factors(StringPairs("D", ((3, 0), (1, 0))))
    assert [f.a for f in factors] == [1]
    assert core.pairs == ((3, 0),)

    factors, core = peel_stein_factors(StringPairs("D", ((2, 2),)))
    assert [f.a for f in factors] == [4] and core is None

    factors, core = peel_stein_factors(StringPairs("D", ((1, 1), (1, 1))))
    assert [f.a for f in factors] == [2, 2] and core is None

    factors, core = peel_stein_factors(StringPairs("B", ((1, 0),)))
    assert [f.a for f in factors] == [1] and core is None

    for f in factors:
        assert isinstance(f, CompParams) and f.t == H and abs(f.t) < 1


def test_peel_size_conservation():
    for fam in ("D", "B"):
        for n in range(1, 7):
            for pairs in enumerate_pairs(fam, n):
                if not unitarity_test(pairs):
                    continue
                factors, core = peel_stein_factors(pairs)
                total = sum(f.a for f in factors) + (core.n if core else 0)
                assert total == n
                if core is not None:
                    assert unitarity_test(core).strict


def peel_by_string_pairs(pairs):
    """Reference peel: a validated StringPairs core every round, its slacks
    restated from the staircase inequalities."""
    def slacks(core):
        cols = core.pairs
        if core.family == "D":
            column = [x - y for x, y in cols]
            gap = [y + 1 - x2 for (_, y), (x2, _) in zip(cols, cols[1:])]
        else:
            column = [y + 1 - x for x, y in cols]
            gap = [x - y2 for (x, _), (_, y2) in zip(cols, cols[1:])]
        out = column + gap
        out[::2], out[1::2] = column, gap
        return out

    fam, core, sizes = pairs.family, pairs, []
    while 0 in (s := slacks(core)):
        j = s.index(0)
        i, cols = j // 2, list(core.pairs)
        if j % 2 == 0:
            sizes.append(sum(cols.pop(i)))
        else:
            (x, y), (x2, y2) = cols[i], cols[i + 1]
            size, merged = (x2 + y, (x, y2)) if fam == "D" else (x + y2, (x2, y))
            sizes.append(size)
            cols[i:i + 2] = [merged]
        core = StringPairs(fam, tuple(cols))
    assert min(slacks(core), default=1) > 0
    return sizes, (core if core.pairs else None)


def test_peel_on_columns_matches_string_pair_rounds():
    for fam in ("D", "B"):
        for n in range(1, 13):
            for pairs in enumerate_pairs(fam, n):
                if not unitarity_test(pairs):
                    continue
                factors, core = peel_stein_factors(pairs)
                assert ([f.a for f in factors], core) == peel_by_string_pairs(pairs), pairs
                assert all(f.t == H for f in factors)


def test_eta_weight():
    assert eta_weight("D", 4, 2) == (F(3, 2), F(3, 2), H, H)
    assert eta_weight("D", 4, 1) == (F(3, 2), H, H, -H)
    assert eta_weight("B", 3, 2) == (F(3, 2), F(3, 2), H)
    for family in ("Q", "C", "b", None):
        with pytest.raises(ValueError, match="family must be 'B' or 'D'"):
            eta_weight(family, 3, 1)


# ---------------------------------------------------------------------------
# the classify pipeline

def classify_columns(fam, cols):
    """``classify`` on the parameter of the string pairs of the columns."""
    return classify(pairs_to_param(StringPairs(fam, cols)))


def test_classify_table_rows():
    v = classify_columns("D", ((4, 0),))
    assert v.status is Status.UNITARY
    assert v.certificate.core.pairs == ((4, 0),)
    assert v.certificate.orbit.cols == (8, 7, 1)

    v = classify_columns("D", ((2, 1), (1, 0)))
    assert v.status is Status.UNITARY
    assert v.certificate.core.pairs == ((2, 1), (1, 0))
    assert not v.certificate.stein_factors

    v = classify_columns("D", ((2, 1), (1, 0), (1, 0)))
    assert v.status is Status.UNITARY and v.certificate.stein_factors

    v = classify_columns("D", ((1, 3),))
    assert v.status is Status.NON_UNITARY and v.witness.q == 3

    v = classify_columns("B", ((0, 1), (0, 1)))
    assert v.status is Status.NON_UNITARY and v.witness.q == 1

    v = classify_columns("B", ((2, 0),))
    assert v.status is Status.NON_UNITARY and v.witness.q == 2


def test_classify_not_genuine():
    p = GenuineParam(GroupTag("D", 2), (F(1), F(0)), (F(1), F(0)))
    assert classify(p).status is Status.NOT_GENUINE


def test_classify_not_hermitian():
    p = GenuineParam(GroupTag("D", 2), (H, H), (F(3), F(1)))
    assert classify(p).status is Status.NOT_HERMITIAN
    # nu is symmetric overall, but not within each mu-block
    p = GenuineParam(GroupTag("D", 2), (3 * H, H), (F(1), F(-1)))
    assert classify(p).status is Status.NOT_HERMITIAN


def test_classify_gl_block_failure_lifts():
    # mu-block at 3/2 whose continuous part is a too-wide deformation pair
    mu = (F(3, 2), F(3, 2), H, H)
    nu = (F(5, 2), F(-5, 2), H, -H)
    v = classify(GenuineParam(GroupTag("D", 4), mu, nu))
    assert v.status is Status.NON_UNITARY
    assert v.witness.q is None
    assert v.witness.weight == (F(5, 2), H, H, H)


def test_classify_residue_class_failure():
    # the class t=1/4 holds a pair at shift 9/4: eta(1) on the half block
    mu = (H,) * 4
    nu = (F(9, 4), F(-9, 4), H, -H)
    v = classify(GenuineParam(GroupTag("D", 4), mu, nu))
    assert v.status is Status.NON_UNITARY
    assert v.witness.q == 1
    assert v.witness.weight == (F(3, 2), H, H, -H)


def test_classify_malformed_half_class():
    # half-integral class not of string shape: adjoint witness
    mu = (H,) * 2
    nu = (F(-3, 2), F(3, 2))
    v = classify(GenuineParam(GroupTag("D", 2), mu, nu))
    assert v.status is Status.NON_UNITARY
    assert v.witness.q == 1


def test_classify_unitary_character_class():
    # classes away from +-1/2 made of centered strings: unitary
    mu = (H,) * 3
    nu = (F(2), F(0), F(-2))
    v = classify(GenuineParam(GroupTag("D", 3), mu, nu))
    assert v.status is Status.UNITARY
    assert any(isinstance(f, object) for _, f in v.certificate.gl_factors)


def test_classify_weyl_invariance():
    rng = random.Random(41)
    pool = []
    for fam in ("B", "D"):
        for n in (2, 4, 6):
            pool.extend((fam, p) for p in enumerate_pairs(fam, n // 2))
    count = 0
    while count < 1000:
        fam, pairs = pool[rng.randrange(len(pool))]
        p = pairs_to_param(pairs)
        w = rnd_weyl(rng, p.group.rank, fam)
        q = GenuineParam(p.group, apply(w, p.mu), apply(w, p.nu))
        assert classify(q).status == classify(p).status, (fam, pairs, w)
        count += 1


def test_classify_dual_invariance():
    for fam in ("B", "D"):
        for n in range(1, 5):
            for pairs in enumerate_pairs(fam, n):
                p = pairs_to_param(pairs)
                assert classify(p).status == classify(hermitian_dual(p)).status


TABLE_ROWS = tuple((fam, pairs) for fam in ("B", "D") for n in range(1, 7)
                   for pairs in enumerate_pairs(fam, n))


def _restricted(perm, signs, family, rank):
    """The signed permutation that perm and signs induce on range(rank),
    with an even number of flips in family D."""
    signs = list(signs[:rank])
    if family == "D" and signs.count(-1) % 2 == 1:
        signs[0] = -signs[0]
    return WeylElement(tuple(j for j in perm if j < rank), tuple(signs))


def _invariants(v):
    return v.status, v.certificate, v.witness and (v.witness.q, v.witness.group)


@settings(max_examples=8, deadline=None)
@given(st.permutations(range(12)),
       st.lists(st.sampled_from((1, -1)), min_size=12, max_size=12))
def test_classify_weyl_invariance_on_table_rows(perm, signs):
    # every D/B row with n <= 6 (rank <= 12): a Weyl conjugate and its
    # Hermitian dual give the row's status, certificate and witness (q, group)
    for fam, pairs in TABLE_ROWS:
        p = pairs_to_param(pairs)
        want = _invariants(classify(p))
        w = _restricted(perm, signs, fam, p.group.rank)
        q = GenuineParam(p.group, apply(w, p.mu), apply(w, p.nu))
        for r in (q, hermitian_dual(q)):
            assert _invariants(classify(r)) == want, (fam, pairs, w)


def test_pairs_to_param_integer_form():
    # the integer form pairs_to_param builds is the one scaling would give,
    # and nu is the half-integral class followed by its negation
    for fam, pairs in TABLE_ROWS:
        p = pairs_to_param(pairs)
        half = half_class(pairs.pairs)
        assert p.nu == half + tuple(-v for v in reversed(half))
        assert p.integer_form == GenuineParam(p.group, p.mu, p.nu).integer_form


def test_classify_scales_once(monkeypatch):
    """classify scales nothing that already carries its integer form: a
    pairs_to_param parameter costs no scaling, and any other parameter is
    scaled once, for its integer form, GL blocks included."""
    from spindual import glclass, halfint, spinclass, weyl
    calls = []

    def counting_scaled(values):
        calls.append(len(values))
        return halfint.scaled(values)

    for module in (weyl, spinclass, glclass):
        monkeypatch.setattr(module, "scaled", counting_scaled)
    flips = WeylElement((1, 0, 3, 2), (-1, 1, 1, -1))
    for fam, cols in (("D", ((3, 1), (2, 0))), ("B", ((2, 2), (1, 0))), ("D", ((1, 3),))):
        p = pairs_to_param(StringPairs(fam, cols))
        want = classify(p).status
        # a fresh dominant parameter, and a conjugate that dominantize moves
        for q, scalings in ((pairs_to_param(StringPairs(fam, cols)), []),
                            (GenuineParam(p.group, apply(flips, p.mu[:4]) + p.mu[4:],
                                          apply(flips, p.nu[:4]) + p.nu[4:]),
                             [2 * p.group.rank])):
            calls.clear()
            assert classify(q).status is want
            assert calls == scalings, (fam, cols)
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    statuses = set()
    for family, mu, nu in workloads.gen_mixed_blocks(None, 1):
        q = GenuineParam(GroupTag(family, len(mu)), mu, nu)
        calls.clear()
        statuses.add(classify(q).status)
        assert calls == [2 * len(mu)], (family, mu, nu)
    assert statuses == {Status.UNITARY, Status.NON_UNITARY}


def test_classify_tests_the_staircase_once_per_core(monkeypatch):
    """The staircase test of a StringPairs is computed once and kept on it:
    classify scans a strict or violated core's own pairs once, and a core
    that peeling changed once more, for the strictness assertion on the
    peeled core.  build_certificate, normalize_to_base and attach_orbit test
    their input again, but only read the kept result.  Padding and peeling
    list the slacks of their working rows (lists and zips), not counted."""
    from spindual import rewriter, spinclass
    scans = []
    slacks = spinclass.staircase_slacks

    def counted(family, cols):
        if isinstance(cols, tuple):
            scans.append(cols)
        return slacks(family, cols)

    for module in (spinclass, rewriter):
        monkeypatch.setattr(module, "staircase_slacks", counted)
    kinds = set()
    for fam in ("B", "D"):
        for n in range(1, 9):
            for pairs in enumerate_pairs(fam, n):
                result = unitarity_test(pairs)
                scans.clear()
                v = classify(pairs_to_param(pairs))
                kind = "strict" if result.strict else "peeled" if result else "violated"
                kinds.add(kind)
                assert scans[0] == pairs.pairs
                if kind == "peeled":
                    core = v.certificate.core
                    assert scans[1:] == [core.pairs if core else ()]
                else:
                    assert len(scans) == 1, (fam, pairs, kind)
    assert kinds == {"strict", "peeled", "violated"}


def test_staircase_memo_is_not_state():
    """The kept staircase result leaves equality, hashing, repr, replace,
    copies and pickles as they are: a copy, a pickle and a replace start
    without it.  The two satisfied results are shared."""
    for cols, strict in ((((3, 0),), True), (((2, 2),), False), (((1, 3),), None)):
        tested, fresh = StringPairs("D", cols), StringPairs("D", cols)
        result = unitarity_test(tested)
        assert unitarity_test(tested) is result
        assert "_staircase" not in vars(fresh)
        assert tested == fresh and hash(tested) == hash(fresh)
        assert repr(tested) == repr(fresh) == f"StringPairs(family='D', pairs={cols!r})"
        assert pickle.dumps(tested) == pickle.dumps(fresh)
        for other in (dataclasses.replace(tested), copy.copy(tested), copy.deepcopy(tested),
                      pickle.loads(pickle.dumps(tested))):
            assert other == tested and "_staircase" not in vars(other)
        if strict is None:
            assert not result and result is not unitarity_test(fresh)
        else:
            assert result.strict is strict and result is unitarity_test(fresh)


def test_witness_parity():
    # family D: odd index for single-column bases, even for gap bases;
    # family B the other way around
    for fam in ("B", "D"):
        for n in range(1, 7):
            for pairs in enumerate_pairs(fam, n):
                if unitarity_test(pairs):
                    continue
                v = classify(pairs_to_param(pairs))
                assert v.status is Status.NON_UNITARY
                assert v.witness is not None, (fam, pairs)
                base = v.normalized.base if v.normalized else None
                kind = type(base).__name__ if base else None
                if fam == "D":
                    assert v.witness.q % 2 == (1 if kind == "CaseI" else 0)
                else:
                    assert v.witness.q % 2 == (0 if kind == "CaseI" else 1)


def test_enumerate_counts_and_order():
    rows = list(enumerate_pairs("D", 4))
    assert len(rows) == 12
    assert rows[0].pairs == ((4, 0),)
    assert [str(r) for r in rows[:3]] == ["(4; 0)", "(3 1; 0 0)", "(3; 1)"]
    assert list(enumerate_pairs("D", 1))[0].pairs == ((1, 0),)
    b1 = [r.pairs for r in enumerate_pairs("B", 1)]
    assert b1 == [((1, 0),), ((0, 1),)]
    for fam in ("B", "D"):
        for n in range(1, 7):
            rows = list(enumerate_pairs(fam, n))
            assert len(set(r.pairs for r in rows)) == len(rows)
            assert all(r.n == n for r in rows)
        with pytest.raises(ValueError, match="n must be positive"):
            list(enumerate_pairs(fam, 0))
    # the rows skip the public checks, so the family is checked up front
    for fam in ("C", "d", ""):
        with pytest.raises(ValueError, match="family must be 'B' or 'D'"):
            list(enumerate_pairs(fam, 3))


def test_build_certificate_surface():
    from spindual.spinclass import build_certificate
    cert = build_certificate(StringPairs("D", ((3, 0), (1, 0))))
    assert [f.a for f in cert.stein_factors] == [1]
    assert cert.core.pairs == ((3, 0),)
    assert cert.orbit.cols == (6, 5, 1)
    cert = build_certificate(StringPairs("D", ((2, 2),)))
    assert cert.core is None and cert.orbit is None
    # the public entry points test their own input
    with pytest.raises(ValueError, match="peeling requires"):
        build_certificate(StringPairs("D", ((2, 0), (2, 0))))
    with pytest.raises(ValueError, match="peeling requires"):
        peel_stein_factors(StringPairs("B", ((2, 0),)))
    # a verdict holds a certificate exactly when it is Unitary
    with pytest.raises(ValueError, match="certificate present iff Unitary"):
        Verdict(Status.UNITARY)
    with pytest.raises(ValueError, match="certificate present iff Unitary"):
        Verdict(Status.NON_UNITARY, certificate=cert)


def test_witness_direct():
    from spindual.rewriter import normalize_to_base
    from spindual.spinclass import witness
    pairs = StringPairs("D", ((2, 0), (2, 0)))
    w = witness(pairs, normalize_to_base(pairs))
    assert w.q == 2 and w.weight == eta_weight("D", 8, 2)
    pairs = StringPairs("D", ((1, 2), (1, 0)))
    w = witness(pairs, normalize_to_base(pairs))
    assert w.q == 3
    pairs = StringPairs("B", ((2, 0),))
    w = witness(pairs, normalize_to_base(pairs))
    assert w.q == 2 and w.weight == eta_weight("B", 4, 2)
    with pytest.raises(ValueError, match="weight of length 3 on the group D4"):
        SpinRelevantKType(2, eta_weight("D", 3, 2), GroupTag("D", 4))
    # the public constructor coerces strings and ints, and checks the length
    k = SpinRelevantKType(1, ("3/2", "1/2", 1, -1), GroupTag("D", 4))
    assert k.weight == (F(3, 2), H, F(1), F(-1))
    assert set(map(type, k.weight)) == {F}
    with pytest.raises(ValueError, match="weight of length 2 on the group B3"):
        SpinRelevantKType(1, ("3/2", 1), GroupTag("B", 3))


def test_classify_without_half_block():
    # every mu-value above 1/2: pure GL-blocks, no string-pair core
    p = GenuineParam(GroupTag("D", 2), (F(3, 2), F(3, 2)), (H, -H))
    v = classify(p)
    assert v.status is Status.UNITARY
    assert v.certificate.core is None and v.certificate.gl_factors


def test_certificate_reconstitutes_half_class():
    # the strings of the peeled factors plus the core strings recover the
    # half-integral class as a multiset
    for fam in ("B", "D"):
        for n in range(1, 7):
            for pairs in enumerate_pairs(fam, n):
                if not unitarity_test(pairs):
                    continue
                factors, core = peel_stein_factors(pairs)
                values = list(half_class(core.pairs)) if core else []
                for f in factors:
                    # a shift-1/2 factor of size a occupies the string of a
                    # column (s, t) with s + t = a and s - t in {0, 1}
                    values.extend(half_class((((f.a + 1) // 2, f.a // 2),)))
                assert sorted(values) == sorted(half_class(pairs.pairs)), (fam, pairs)


def test_pipeline_matches_staircase_criterion():
    # the full pipeline (doubling, residue classes, extraction) lands on the
    # same verdict as the staircase test applied to the pairs directly
    for fam in ("B", "D"):
        for n in range(1, 7):
            for pairs in enumerate_pairs(fam, n):
                verdict = classify(pairs_to_param(pairs))
                if unitarity_test(pairs):
                    assert verdict.status is Status.UNITARY
                else:
                    assert verdict.status is Status.NON_UNITARY


def test_classify_rank_one():
    p = GenuineParam(GroupTag("D", 1), (H,), (F(0),))
    assert classify(p).status is Status.UNITARY
    p = GenuineParam(GroupTag("B", 1), (H,), (H,))
    # half-class (1/2) is the column (1, 0); its dual class is empty, so the
    # parameter is not Hermitian
    assert classify(p).status is Status.NOT_HERMITIAN


# ---------------------------------------------------------------------------
# stage events and the transcript

# one parameter per branch of classify, with its transcript as printed
# before the transcript was rendered from stage events
TRANSCRIPT_GOLDEN = {
    "not genuine": (
        GenuineParam(GroupTag("D", 2), (F(1), F(0)), (F(1), F(0))),
        ["mu has integral entries: factors through SO"],
    ),
    "not Hermitian": (
        GenuineParam(GroupTag("D", 2), (H, H), (F(3), F(1))),
        ["dominant form: D2: mu=(1/2, 1/2), nu=(3, 1)"],
    ),
    "diagram flip": (
        GenuineParam(GroupTag("D", 2), (H, -H), (H, -H)),
        ["dominant form: D2: mu=(1/2, 1/2), nu=(1/2, 1/2)",
         "diagram flip applied to make the last mu-coordinate positive"],
    ),
    "GL block at mu = 3/2": (
        GenuineParam(GroupTag("D", 4), (F(3, 2), F(3, 2), H, H),
                     (F(5, 2), F(-5, 2), H, -H)),
        ["dominant form: D4: mu=(3/2, 3/2, 1/2, 1/2), nu=(5/2, -5/2, 1/2, -1/2)",
         "GL-block at mu=3/2 is non-unitary (deformation pair of size 1 at "
         "|t|=5/2 outside the unitary range); the witness lifts by a "
         "bottom-layer shift"],
    ),
    "residue class": (
        GenuineParam(GroupTag("D", 4), (H,) * 4, (F(9, 4), F(-9, 4), H, -H)),
        ["dominant form: D4: mu=(1/2, 1/2, 1/2, 1/2), nu=(9/4, -9/4, 1/2, -1/2)",
         "residue class t=1/4 is non-unitary (deformation pair of size 1 at "
         "|t|=9/4 outside the unitary range)"],
    ),
    "malformed half class": (
        GenuineParam(GroupTag("D", 2), (H, H), (F(-3, 2), F(3, 2))),
        ["dominant form: D2: mu=(1/2, 1/2), nu=(-3/2, 3/2)",
         "half-integral class is not of string-pair shape: string (-3/2) "
         "does not pass through 1/2",
         "the adjoint-shift K-type detects indefiniteness"],
    ),
    "strict core": (
        pairs_to_param(StringPairs("D", ((4, 0),))),
        ["dominant form: D8: mu=(1/2, 1/2, 1/2, 1/2, 1/2, 1/2, 1/2, 1/2), "
         "nu=(13/2, 9/2, 5/2, 1/2, -1/2, -5/2, -9/2, -13/2)",
         "half-integral class (13/2, 9/2, 5/2, 1/2) <-> (4; 0)",
         "strict core (4; 0) with attached orbit [8,7,1] in so(16)"],
    ),
    "after inductions": (
        pairs_to_param(StringPairs("B", ((2, 0), (2, 0)))),
        ["dominant form: B8: mu=(1/2, 1/2, 1/2, 1/2, 1/2, 1/2, 1/2, 1/2), "
         "nu=(5/2, 5/2, 1/2, 1/2, -1/2, -1/2, -5/2, -5/2)",
         "half-integral class (5/2, 5/2, 1/2, 1/2) <-> (2 2; 0 0)",
         "staircase violated at column 1; normalized to base CaseI(a=2, b=0) "
         "after 1 inductions"],
    ),
}

PIPELINE = ("genuine", "dominantize", "hermitian", "gl_block", "partition",
            "extract_pairs", "staircase", "certificate", "normalize", "witness")


@pytest.mark.parametrize("name", sorted(TRANSCRIPT_GOLDEN))
def test_transcript_golden(name):
    p, lines = TRANSCRIPT_GOLDEN[name]
    v = classify(p)
    assert list(transcript(v)) == lines
    assert str(v) == "\n".join(lines)
    assert all(isinstance(e, StageEvent) for e in v.chain)


def _check_events(v):
    """The chain is in pipeline order, every event names all of its data,
    and the verdict ends on the stage that decided it."""
    order = [PIPELINE.index(e.stage) for e in v.chain]
    assert order == sorted(order), [e.stage for e in v.chain]
    for e in v.chain:
        e.fields()  # raises when data and field names differ in length
        assert type(e.elapsed_ns) is int and e.elapsed_ns >= 0
    last = v.chain[-1].stage
    if v.status is Status.UNITARY:
        assert last == "certificate"
    elif v.status is Status.NON_UNITARY:
        assert last == "witness"


def test_stage_events_on_table_rows():
    for fam in ("B", "D"):
        for n in range(1, 7):
            for pairs in enumerate_pairs(fam, n):
                _check_events(classify(pairs_to_param(pairs)))
    for p, _ in TRANSCRIPT_GOLDEN.values():
        _check_events(classify(p))


def test_elapsed_time_is_not_compared():
    v = classify(TRANSCRIPT_GOLDEN["strict core"][0])
    event = v.chain[0]
    later = dataclasses.replace(event, elapsed_ns=event.elapsed_ns + 1)
    assert later == event and repr(later) == repr(event)


@pytest.mark.parametrize("cols", [((3, 0), (2, 0), (2, 0)), ((2, 1), (1, 1))])
def test_stage_events_are_frozen_values(cols):
    # the events of a real chain: a padded NonUnitary row and a peeled Unitary one
    chain = classify(pairs_to_param(StringPairs("D", cols))).chain
    names = ["stage", "outcome", "data", "elapsed_ns"]
    for event in chain:
        assert type(event) is StageEvent and not hasattr(event, "__dict__")
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, name, getattr(event, name))
        assert [f.name for f in dataclasses.fields(event)] == names
        assert event.fields() == dict(zip(event.fields(), event.data))
        public = StageEvent(event.stage, event.outcome, event.data, event.elapsed_ns)
        later = dataclasses.replace(event, elapsed_ns=event.elapsed_ns + 1)
        for twin in (public, later):
            assert twin == event and not twin != event and hash(twin) == hash(event)
            assert repr(twin) == repr(event)
        assert repr(event) == (f"StageEvent(stage={event.stage!r}, outcome={event.outcome!r}, "
                               f"data={event.data!r})")
        assert dataclasses.replace(event, outcome="other") != event
        for clone in (copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))):
            twin = clone(event)
            assert type(twin) is StageEvent and twin == event and hash(twin) == hash(event)
            assert twin.elapsed_ns == event.elapsed_ns and repr(twin) == repr(event)


@st.composite
def mixed_params(draw):
    """Hermitian parameters shaped like the mixed_blocks benchmark inputs: a
    string-pair core and GL entries in the mu = 1/2 block, GL blocks at
    mu = 3/2 and 5/2, all under a random Weyl element."""
    family = draw(st.sampled_from("BD"))
    t = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    mu, nu = [], []
    n_core = draw(st.integers(0, 3))
    if n_core:
        rows = list(enumerate_pairs(family, n_core))
        core = half_class(rows[draw(st.integers(0, len(rows) - 1))].pairs)
    else:
        core = ()
    for value, size in ((H, None), (F(3, 2), draw(st.integers(0, 3))),
                        (F(5, 2), draw(st.integers(0, 3)))):
        part = list(core) + [-v for v in core] if value == H else []
        for v in draw(st.lists(t, max_size=2 if size is None else size)):
            part += [v, -v]
        if value == H and not part:
            part = [F(0)]
        mu += [value] * len(part)
        nu += part
    n = len(mu)
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    if family == "D" and signs.count(-1) % 2:
        signs[0] = -signs[0]
    w = WeylElement(tuple(perm), tuple(signs))
    return GenuineParam(GroupTag(family, n), apply(w, mu), apply(w, nu))


def _equal_twice(p):
    first, second = classify(p), classify(p)
    assert first == second
    assert repr(first) == repr(second)
    _check_events(first)


def test_classify_twice_golden_inputs():
    for p, _ in TRANSCRIPT_GOLDEN.values():
        _equal_twice(p)


@settings(max_examples=200, deadline=None)
@given(mixed_params())
def test_classify_twice_mixed(p):
    _equal_twice(p)


@settings(max_examples=200, deadline=None)
@given(mixed_params(), st.permutations(range(24)),
       st.lists(st.sampled_from((1, -1)), min_size=24, max_size=24))
def test_classify_weyl_invariance_and_duality_mixed(p, perm, signs):
    # GL blocks included: a Weyl conjugate and the Hermitian dual give the
    # parameter's status, certificate and witness (q, group)
    w = _restricted(perm, signs, p.group.family, p.group.rank)
    q = GenuineParam(p.group, apply(w, p.mu), apply(w, p.nu))
    want = _invariants(classify(p))
    assert want[0] in (Status.UNITARY, Status.NON_UNITARY)
    for r in (q, hermitian_dual(p)):
        assert _invariants(classify(r)) == want, (p, w)


def test_witness_names_its_group():
    # a padded core's witness lives on the induced group, and only then
    for fam in ("B", "D"):
        for n in range(1, 11):
            for pairs in enumerate_pairs(fam, n):
                if unitarity_test(pairs):
                    continue
                p = pairs_to_param(pairs)
                v = classify(p)
                wit = v.witness
                assert len(wit.weight) == wit.group.rank
                assert wit.group.family == fam
                assert (wit.group == p.group) == (not v.normalized.steps), pairs


@pytest.mark.parametrize("entry", [2.5, True, "3", F(3)])
def test_string_pairs_take_only_ints(entry):
    # int() would make (2.5; 0.9) the Unitary (2; 0) and read "3" as 3
    with pytest.raises(TypeError, match="must be ints"):
        StringPairs("D", ((entry, 0),))
    with pytest.raises(TypeError, match="must be ints"):
        StringPairs("B", ((3, 1), (1, entry)))
