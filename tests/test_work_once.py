"""``classify`` builds each piece of a verdict once, and the read-only ones
when they are first read.

A NonUnitary verdict builds its eta(q) weight once, on the padded group when
the rewriter padded and on the input group otherwise, when the weight is
first read; its stage events are built when its chain is first read.  It lists the
staircase slacks once for the staircase test and once per padding round
(the last round's list also locates the base).  ``halfint`` shares the
Fractions k/L of small k and L and their texts through one bounded table
rule, so table parameters hold few Fraction objects, and ``eta_weight``
reuses module-level 3/2 and -1/2.  The dominant form, ``pairs_to_param``,
parameter equality and the text of a parameter build no Fraction at all:
they work on the integer form.  The witnesses that ``classify`` builds from
those shared Fractions skip the coercion and length check of the public
``SpinRelevantKType`` constructor, and equal what it would build.  The
half-class of the extract_pairs event is kept as doubled ints: its Fractions
are built when it is first read, and a verdict, its transcript and the CLI
print it from the ints.
"""

import copy
import dataclasses
import gc
import importlib
import json
import pickle
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spindual import glclass, halfint, intertwine, rewriter, spinclass, weyl
from spindual.cli import _trace_record, main
from spindual.rewriter import full_staircase, normalize_to_base
from spindual.halfint import (
    _DENOMINATOR_BOUND, _RATIO_BOUND, _RATIO_TABLES, _TEXT_TABLES,
    fmt, fmt_ints, fmt_vec, texts, unscaled,
)
from spindual.spinclass import (
    _SHARED_BOUND, _SHARED_COLUMNS, SpinRelevantKType, StageEvent, Status, StringPairs, classify,
    classify_pairs, enumerate_pairs, eta_weight, pairs_to_param, peel_stein_factors,
    staircase_slacks, transcript, unitarity_test,
)
from spindual.weyl import (
    GenuineParam, GroupTag, WeylElement, _dominant, apply, hermitian_dual, to_langlands,
)
from tests import identity_cases
from tests.test_bench_checker import _checker
from tests.test_rewriter import violated_pairs

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("cols, padded", [
    (((1, 3),), False),
    (((3, 0), (2, 0), (2, 0)), True),
])
def test_classify_builds_one_eta_weight(monkeypatch, cols, padded):
    calls = []

    def counting(family, n, q):
        calls.append((family, n, q))
        return eta_weight(family, n, q)

    monkeypatch.setattr(spinclass, "eta_weight", counting)
    verdict = classify(pairs_to_param(StringPairs("D", cols)))
    assert verdict.status is Status.NON_UNITARY
    assert bool(verdict.normalized.moves) is padded
    # classify builds no weight, nor do its transcript and its length
    w = verdict.witness
    str(verdict), len(w.weight)
    assert calls == []
    # the first read builds it once, and later reads reuse it
    expected = eta_weight("D", w.group.rank, w.q)
    assert w.weight[0] == expected[0]
    assert calls == [("D", w.group.rank, w.q)]
    assert w.weight == expected and tuple(w.weight) == expected and repr(w.weight) == repr(expected)
    assert calls == [("D", w.group.rank, w.q)]


@pytest.mark.parametrize("cols, padded", [
    (((1, 3),), False),
    (((3, 0), (2, 0), (2, 0)), True),
])
def test_classify_lists_each_state_once(monkeypatch, cols, padded):
    calls = []

    def counting(family, columns):
        calls.append(family)
        return staircase_slacks(family, columns)

    monkeypatch.setattr(spinclass, "staircase_slacks", counting)
    monkeypatch.setattr(rewriter, "staircase_slacks", counting)
    verdict = classify(pairs_to_param(StringPairs("D", cols)))
    assert verdict.status is Status.NON_UNITARY
    moves = len(verdict.normalized.moves)
    assert bool(moves) is padded
    # the input's staircase test, then one list per padding round: a round
    # per move and a last one that finds nothing to pad
    assert len(calls) == 1 + moves + 1


def test_kept_staircase_results_add_one_object_per_violation():
    """Keeping the staircase result on each StringPairs retains one new
    GC-tracked object per violated instance: satisfied ones share their
    result, and storing it builds no instance ``__dict__``."""
    rows = [pairs for fam in "BD" for n in range(1, 9) for pairs in enumerate_pairs(fam, n)]
    gc.collect()
    before = len(gc.get_objects())
    results = [unitarity_test(pairs) for pairs in rows]
    gc.collect()
    grown = len(gc.get_objects()) - before - 1   # the results list
    assert grown <= sum(not result for result in results) < len(rows)


def _alive(kind) -> int:
    """The GC-tracked objects of exactly this type."""
    return sum(type(o) is kind for o in gc.get_objects())


def _eta_tuples() -> int:
    """The tuples alive that hold only the shared entries of eta(q)."""
    shared = {id(spinclass._THREE_HALVES), id(halfint.HALF), id(spinclass._MINUS_HALF)}
    return sum(type(o) is tuple and len(o) > 0 and all(id(v) in shared for v in o)
               for o in gc.get_objects())


def _unread(lazy) -> bool:
    return lazy._tuple is None


def test_verdicts_build_their_parts_on_first_read():
    """Kept verdicts of every D/B row with n <= 8 hold no StageEvent and no
    eta(q) tuple until they are read.  Read, their reprs, transcripts and
    ``--trace`` records give the recorded identity digests, and two unread
    verdicts compare on their records, equal where verdicts with plain
    tuples are."""
    rows = [(family, n, pairs) for family in "DB" for n in range(1, 9)
            for pairs in enumerate_pairs(family, n)]
    params = [pairs_to_param(pairs) for _, _, pairs in rows]
    for p in params:
        p.mu    # the parameters' own Fractions, built before the counts
    gc.collect()
    events, etas = _alive(StageEvent), _eta_tuples()
    verdicts = [classify(p) for p in params]
    gc.collect()
    assert (_alive(StageEvent), _eta_tuples()) == (events, etas)
    non_unitary = [v for v in verdicts if v.status is Status.NON_UNITARY]
    assert len(non_unitary) > 300
    for v in non_unitary:
        v.witness.weight[0]
    gc.collect()
    assert (_alive(StageEvent), _eta_tuples()) == (events, etas + len(non_unitary))

    expected = json.loads(identity_cases.DIGESTS.read_text())
    records = {}
    for (family, n, _), p, v in zip(rows, params, verdicts):
        records.setdefault(f"classify {family} {n}", []).append(
            "\n".join([repr(v), *transcript(v), repr(to_langlands(p))]))
    assert {name: identity_cases.digest(r) for name, r in records.items()} == \
        {name: expected[name] for name in records}
    # the --trace records of the CLI's classify inputs: the rows, then the
    # wide parameters, which run through the CLI here
    trace = ["\n".join([str(0 if v.status is Status.UNITARY else 3),
                        *(json.dumps({k: x for k, x in _trace_record(e).items() if k != "elapsed_ns"})
                          for e in v.chain)])
             for (_, n, _), v in zip(rows, verdicts) if n in identity_cases.CLI_ROW_RANKS]
    trace += [identity_cases._trace_call(argv)
              for argv in identity_cases._wide_argvs() if argv[0] == "classify"]
    assert identity_cases.digest(trace) == expected["cli trace"]
    gc.collect()
    assert _alive(StageEvent) == events + sum(map(len, (v.chain for v in verdicts)))

    for p, v in zip(params[::5], verdicts[::5]):
        a, b = classify(p), classify(p)
        assert a == b == v and not a != b
        assert _unread(a.chain) and _unread(b.chain)
        plain = dataclasses.replace(b, chain=tuple(b.chain))
        if b.witness is not None:
            assert _unread(a.witness.weight) and _unread(b.witness.weight)
            plain = dataclasses.replace(plain, witness=dataclasses.replace(
                b.witness, weight=tuple(b.witness.weight)))
        assert type(plain.chain) is tuple and a == plain == v and hash(a) == hash(plain)
    assert classify(params[0]) != verdicts[1] and classify(params[-1]) != verdicts[-2]


DENOMINATORS = (1, 2, 3, 12, _DENOMINATOR_BOUND - 1, _DENOMINATOR_BOUND, 10 ** 6)


def test_halves_are_fractions_inside_and_beyond_the_bound():
    far = [10 ** 6 + 1, -(10 ** 6) - 3, 10 ** 9, _RATIO_BOUND, -_RATIO_BOUND]
    ints = [*range(-_RATIO_BOUND - 3, _RATIO_BOUND + 4), *far]
    for L in DENOMINATORS:
        values = unscaled(L, ints)
        assert values == tuple(Fraction(k, L) for k in ints)
        assert set(map(type, values)) == {Fraction}


def test_halves_inside_the_bound_are_shared():
    inside = range(-_RATIO_BOUND + 1, _RATIO_BOUND)
    for L in DENOMINATORS:
        shared = L < _DENOMINATOR_BOUND
        for first, again in zip(unscaled(L, inside), unscaled(L, reversed(inside))[::-1]):
            assert (first is again) is shared
            if shared:
                assert first is _RATIO_TABLES[L][first.numerator * (L // first.denominator)]


def test_half_table_stays_within_its_bound():
    # one bound rule for both kinds of entry, the Fraction k/L and its text
    far = [10 ** 6, -(10 ** 6), 10 ** 6 + 1, 10 ** 9]
    sample = [*range(-_RATIO_BOUND - 3, _RATIO_BOUND + 4), *range(-10 ** 6, 10 ** 6, 10007), *far]
    # keys a few hundred either side of each bound, inside and past it
    near = [*range(-_RATIO_BOUND - 300, -_RATIO_BOUND + 300),
            *range(_RATIO_BOUND - 300, _RATIO_BOUND + 300)]
    for L in (*DENOMINATORS, *range(1, 40)):
        unscaled(L, near)
        unscaled(L, far)
        texts(L, near)
        texts(L, far)
    for L in (*DENOMINATORS, 17, 18, 34):
        expected = [str(Fraction(k, L)) for k in sample]
        assert texts(L, sample) == expected
        assert [fmt(Fraction(k, L)) for k in sample] == expected
        assert fmt_ints(L, sample) == fmt_vec(unscaled(L, sample)) == f"({', '.join(expected)})"
    assert [fmt(k) for k in far] == [str(k) for k in far]
    for tables, entry in ((_RATIO_TABLES, Fraction),
                          (_TEXT_TABLES, lambda k, L: str(Fraction(k, L)))):
        assert set(tables) <= set(range(1, _DENOMINATOR_BOUND))
        for L, table in tables.items():
            assert len(table) <= 2 * _RATIO_BOUND - 1
            assert all(-_RATIO_BOUND < k < _RATIO_BOUND for k in table)
            assert all(value == entry(k, L) for k, value in table.items())


@pytest.fixture
def built_fractions(monkeypatch):
    """The arguments of every ``Fraction(...)`` call made while the test runs."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return built


def _mixed(family, t=Fraction(7, 4)):
    """A non-dominant Hermitian parameter with GL blocks at mu = 5/2 (the
    deformation pair +-t) and 3/2, a string-pair core and a Stein pair in the
    mu = 1/2 block, denominators 2, 3 and 4."""
    F = Fraction
    h = F(1, 2)
    mu = (F(5, 2), F(5, 2), F(3, 2), F(3, 2), h, h, h, h, h, h)
    nu = (t, -t, F(1, 3), F(-1, 3), F(3, 2), h, -h, F(-3, 2), F(1, 4), F(-1, 4))
    # reverse the order and flip the signs at two positions
    w = WeylElement(tuple(range(9, -1, -1)), (1, -1, 1, 1, 1, 1, 1, 1, -1, 1))
    return GenuineParam(GroupTag(family, len(mu)), apply(w, mu), apply(w, nu))


@pytest.mark.parametrize("family", "BD")
def test_front_end_builds_no_fraction(built_fractions, family):
    p, again = _mixed(family), _mixed(family)
    # the counts start here, after the inputs' own Fractions
    built_fractions.clear()
    q0, outer, moved = _dominant(p)
    assert moved is not None and q0 is not p
    q1, _, _ = _dominant(again)
    dual = hermitian_dual(q0)
    pairs = [pairs_to_param(StringPairs(family, cols))
             for cols in (((3, 1), (1, 0)), ((2, 2),), ((1000, 0),))]
    assert q0 == q1 and hash(q0) == hash(q1)
    assert p != q0
    assert q0 != dual and q1 != dual and pairs[0] != pairs[1]
    assert {p, again, q0, q1, dual, *pairs} == {p, q0, dual, *pairs}
    assert built_fractions == []
    # the Fractions are built on first read, and none again after
    assert q0 == GenuineParam(q0.group, q0.mu, q0.nu)
    count = len(built_fractions)
    q0.mu, q0.nu, q1.mu, str(q0)
    assert len(built_fractions) == count


def explicit_eta_weight(family, n, q):
    three_halves, half = Fraction(3, 2), Fraction(1, 2)
    if family == "D":
        last = Fraction(1, 2) if q % 2 == 0 else Fraction(-1, 2)
        return tuple([three_halves] * q + [half] * (n - q - 1) + [last])
    return tuple([three_halves] * q + [half] * (n - q))


def test_eta_weight_equals_explicit_fractions():
    for n in range(1, 9):
        for q in range(n):
            assert eta_weight("D", n, q) == explicit_eta_weight("D", n, q)
        for q in range(n + 1):
            assert eta_weight("B", n, q) == explicit_eta_weight("B", n, q)
        with pytest.raises(ValueError):
            eta_weight("D", n, n)
        with pytest.raises(ValueError):
            eta_weight("B", n, n + 1)


@pytest.mark.parametrize("family", "BD")
@pytest.mark.parametrize("t", [Fraction(7, 4), Fraction(3, 4)])
def test_classify_builds_no_fraction_once_the_table_holds_its_values(
        built_fractions, family, t):
    # a lifted GL witness at t = 7/4; GL factors, a Stein pair and the core
    # at t = 3/4; the first call and its transcript fill the shared k/L table
    p = _mixed(family, t)
    first = classify(p)
    lines = list(transcript(first))
    assert first.status is Status.NON_UNITARY or first.certificate.gl_factors
    built_fractions.clear()
    again = classify(p)
    assert again == first
    assert list(transcript(again)) == lines
    assert built_fractions == []
    # the dominant form line is rendered from the integer form
    dom = again.chain[1].fields()["param"]
    assert dom is not p and lines[0] == f"dominant form: {dom}"
    assert "mu" not in vars(dom) and "nu" not in vars(dom)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's seeded input generators."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_built_witnesses_equal_the_public_construction(workloads):
    """Every NonUnitary verdict of the D/B tables at n <= 10 and of the
    seed-1 ``mixed_blocks`` and ``large_rank`` inputs has a witness that the
    public constructor, which coerces and checks the weight, rebuilds equal,
    with the same tuple of Fractions, one per coordinate of its group."""
    h = Fraction(1, 2)
    params = [pairs_to_param(pairs) for family in "BD" for n in range(1, 11)
              for pairs in enumerate_pairs(family, n)]
    params += [GenuineParam(GroupTag(family, len(mu)), mu, nu)
               for family, mu, nu in workloads.gen_mixed_blocks(None, 1)]
    params += [pairs_to_param(StringPairs(family, cols))
               for family, cols in workloads.gen_large_rank(None, 1)]
    # a half-class that is no string pair: the adjoint-shift witness
    params.append(GenuineParam(GroupTag("D", 2), (h, h), (5 * h, -5 * h)))
    kinds = Counter()
    for p in params:
        verdict = classify(p)
        if verdict.status is not Status.NON_UNITARY:
            continue
        w = verdict.witness
        kinds[verdict.chain[-1].outcome] += 1
        rebuilt = SpinRelevantKType(w.q, w.weight, w.group)
        assert rebuilt == w and hash(rebuilt) == hash(w)
        # the public constructor keeps a tuple of Fractions as it is, and
        # reads an eta(q) built on first read into the same tuple
        assert rebuilt.weight == tuple(w.weight) and type(rebuilt.weight) is tuple
        assert set(map(type, rebuilt.weight)) == {Fraction}
        if type(w.weight) is tuple:
            assert rebuilt.weight is w.weight
        assert len(w.weight) == w.group.rank
    assert set(kinds) == {"eta", "lifted", "adjoint shift"}


def test_classify_of_large_rank_inputs_calls_no_vec(monkeypatch, workloads):
    """``classify`` coerces no vector: the seed-1 ``large_rank`` parameters
    are built from integers, and their witnesses, padded or not, from shared
    Fractions."""
    calls = []
    vec = halfint.vec

    def counting(values):
        calls.append(values)
        return vec(values)

    params = [pairs_to_param(StringPairs(family, cols))
              for family, cols in workloads.gen_large_rank(None, 1)]
    for module in (halfint, weyl, glclass, spinclass, intertwine):
        monkeypatch.setattr(module, "vec", counting)
    padded = 0
    for p in params:
        verdict = classify(p)
        padded += bool(verdict.normalized and verdict.normalized.moves)
    assert padded and calls == []
    # the public constructor still coerces its weight
    SpinRelevantKType(1, ("3/2", "1/2"), GroupTag("B", 2))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the string pairs that spindual derives from valid ones

def _assert_built_like_public(pairs):
    """``pairs`` equals its public construction, with the same columns, and
    its small columns are the shared ones."""
    public = StringPairs(pairs.family, pairs.pairs)
    assert pairs == public and pairs.pairs == public.pairs, pairs
    assert type(pairs.pairs) is tuple
    assert all(column is _SHARED_COLUMNS[column]
               for column in pairs.pairs if max(column) < _SHARED_BOUND), pairs


def _assert_derived_pairs_built_like_public(pairs):
    """The padded final states of ``normalize_to_base`` and
    ``full_staircase``, every step they replay and the strict core of
    peeling each equal their public construction."""
    if unitarity_test(pairs):
        _, core = peel_stein_factors(pairs)
        if core is not None:
            _assert_built_like_public(core)
        paddings = [full_staircase(pairs)]
    else:
        normal = normalize_to_base(pairs)
        paddings = [full_staircase(pairs), (normal.steps, normal.final)]
    for steps, final in paddings:
        _assert_built_like_public(final)
        for step in steps:
            _assert_built_like_public(step.after)


def test_derived_pairs_equal_the_public_construction():
    rows = [pairs for family in "BD" for n in range(1, 11)
            for pairs in enumerate_pairs(family, n)]
    for pairs in rows:
        _assert_built_like_public(pairs)
        _assert_derived_pairs_built_like_public(pairs)
    # the rows reach padding, replayed steps, peeled cores and shared columns
    assert sum(not unitarity_test(pairs) for pairs in rows) > 1000


@settings(max_examples=150, deadline=None)
@given(violated_pairs())
def test_derived_pairs_of_drawn_violations_equal_the_public_construction(pairs):
    _assert_derived_pairs_built_like_public(pairs)


@pytest.fixture
def validations(monkeypatch):
    """The families of the StringPairs that run the public checks."""
    calls = []
    check = StringPairs.__post_init__

    def counting(self):
        calls.append(self.family)
        check(self)

    monkeypatch.setattr(StringPairs, "__post_init__", counting)
    return calls


@pytest.mark.parametrize("family, cols", [
    ("D", ((3, 0), (2, 0), (2, 0))),          # padded violation
    ("B", ((30, 5), (20, 2), (9, 1))),        # padded violation, 38 steps
    ("D", ((1, 3),)),                         # violation, no padding
    ("D", ((2, 1), (1, 1))),                  # peeled to a strict core
    ("B", ((3, 2), (1, 0))),                  # strict
])
def test_only_outside_pairs_are_checked(validations, family, cols):
    pairs = StringPairs(family, cols)
    p = pairs_to_param(pairs)
    for run, checked in ((classify, [family]), (classify_pairs, [])):
        validations.clear()
        verdict = run(p if run is classify else pairs)
        # the transcript, the replayed steps and the copies build no checked pairs
        str(verdict), repr(verdict), copy.deepcopy(verdict)
        if verdict.normalized is not None:
            tuple(verdict.normalized.steps)
        assert validations == checked, run
    validations.clear()
    rows = list(enumerate_pairs(family, 8))
    full_staircase(pairs)
    assert validations == [] and rows


@pytest.fixture
def far_pairs():
    """D (1000; 0): 872 of its 1,000 half-class values lie past the k/L
    table bound, so a Fraction row of them is 872 new Fractions."""
    pairs = StringPairs("D", ((1000, 0),))
    return pairs, pairs_to_param(pairs)


def _half_class(verdict):
    (event,) = [e for e in verdict.chain if e.stage == "extract_pairs"]
    return event.fields()["half_class"]


@pytest.mark.parametrize("read, row_only", [
    (lambda verdict: _half_class(verdict)[0], True),
    (hash, True),
    # the repr of a verdict also shows the mu and nu of its parameter
    (repr, False),
])
@pytest.mark.parametrize("via_pairs", [False, True])
def test_half_class_row_is_built_on_first_read(
        built_fractions, far_pairs, read, row_only, via_pairs):
    pairs, p = far_pairs
    doubled = range(3997, 0, -4)
    expected = tuple(Fraction(k, 2) for k in doubled)
    unscaled(2, doubled)    # the shared values inside the bound
    built_fractions.clear()
    verdict = classify_pairs(pairs) if via_pairs else classify(p)
    assert verdict.status is Status.UNITARY
    # the transcript and the text of the parameter are rendered from ints
    lines = str(verdict)
    assert f"half-integral class {fmt_vec(expected)} <-> (1000; 0)" in lines
    assert str(p) and built_fractions == []
    read(verdict)
    past_bound = sum(k >= _RATIO_BOUND for k in doubled)
    assert past_bound == 872
    assert len(built_fractions) == past_bound if row_only else len(built_fractions) > past_bound
    # the row is kept: once the verdict is read, reading it again builds nothing
    repr(verdict), hash(verdict)
    count = len(built_fractions)
    row = _half_class(verdict)
    assert tuple(row) == row[:] == expected and list(reversed(row)) == sorted(expected)
    repr(verdict), hash(verdict)
    assert row[0] is row[0] and len(built_fractions) == count


def test_cli_json_of_far_pairs_builds_no_fraction(built_fractions, capsys):
    built_fractions.clear()
    assert main(["classify", "--group", "D", "--pairs", "1000;0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["langlands"]["lambda_L"][0] == "1999/2"
    assert built_fractions == []


def _with_plain_row(verdict):
    """The verdict with its half-class given as a plain tuple of Fractions."""
    chain = tuple(dataclasses.replace(e, data=(tuple(e.data[0]), *e.data[1:]))
                  if e.stage == "extract_pairs" else e for e in verdict.chain)
    return dataclasses.replace(verdict, chain=chain)


def test_unread_read_and_plain_rows_are_equal(far_pairs):
    pairs, p = far_pairs
    unread, read = classify(p), classify_pairs(pairs)
    _half_class(read)[0]
    plain = _with_plain_row(classify(p))
    assert type(_half_class(plain)) is tuple
    for a in (unread, read, plain):
        for b in (unread, read, plain):
            assert a == b and not a != b
    # equal rows of two unread verdicts compare on their ints
    assert classify(p) == classify_pairs(pairs)
    assert _half_class(unread) == _half_class(plain) == _half_class(read)
    assert hash(unread) == hash(read) == hash(plain)
    assert repr(unread) == repr(read) == repr(plain)
    assert str(unread) == str(plain)
    other = classify(pairs_to_param(StringPairs("D", ((999, 1),))))
    assert _half_class(other) != _half_class(unread) and other != unread


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
])
@pytest.mark.parametrize("read_first", [False, True])
def test_verdict_copies_and_pickles(far_pairs, clone, read_first):
    _, p = far_pairs
    # a Unitary verdict and a padded NonUnitary one, with its eta(q) weight
    padded = pairs_to_param(StringPairs("B", ((30, 5), (20, 2), (9, 1))))
    for verdict in (classify(p), classify(padded)):
        if read_first:
            _half_class(verdict)[0]
            if verdict.witness is not None:
                verdict.witness.weight[0]
        twin = clone(verdict)
        # an unread chain and weight are copied as their record, unread
        if not read_first:
            assert _unread(twin.chain)
            assert twin.witness is None or _unread(twin.witness.weight)
        if twin.witness is not None:
            assert len(twin.witness.weight) == twin.witness.group.rank == 1722
        assert twin == verdict and hash(twin) == hash(verdict)
        assert repr(twin) == repr(verdict) and str(twin) == str(verdict)


def test_classify_pairs_equals_classify_on_large_rank_inputs(workloads):
    half_class = _checker().half_class
    for family, cols in workloads.gen_large_rank(None, 1):
        pairs = StringPairs(family, cols)
        direct, through = classify_pairs(pairs), classify(pairs_to_param(pairs))
        assert direct == through and str(direct) == str(through)
        assert _half_class(direct) == _half_class(through) == half_class(pairs.pairs)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-_RATIO_BOUND - 40, _RATIO_BOUND + 40), st.integers()),
       st.integers(1, 40))
def test_text_of_k_over_L_is_the_str_of_the_fraction(k, L):
    assert texts(L, [k]) == [str(Fraction(k, L))] == [fmt(Fraction(k, L))]
