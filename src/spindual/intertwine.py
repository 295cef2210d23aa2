"""Rank-one intertwining scalars, injectivity predicates, and chain replay.

Signed entries ``v^(+-)`` abbreviate a parameter coordinate with continuous
part v and discrete part +-1/2.  Moving a signed entry past an ascending
step-2 block of constant sign is a rank-one operation whose restriction to
the one-dimensional isotypic subspaces is an explicit rational scalar; the
scalar's zero locus is the non-injective locus and its pole the ill-defined
locus.  ``verify_chain`` replays a script of such block moves, checking each
against the applicable predicate, and keeps applying moves syntactically
after a failure so the whole script is reported.

A failing step means no implemented predicate certifies the move -- the
replay is evidence, not proof.
"""

from dataclasses import dataclass
from fractions import Fraction

from .halfint import frac, fmt, is_sign
from .spinclass import string_of_column


class Pole(ArithmeticError):
    """The scalar's denominator vanishes: the operator is not defined there."""


class ScriptError(ValueError):
    """Malformed move operands."""


# ---------------------------------------------------------------------------
# scalar formulas

def simple_scalar_case1(coroot_pairing) -> Fraction:
    """Rank-one scalar on the antisymmetric line when the discrete parts agree.

    (2 - p)/(2 + p) at pairing p; the symmetric branch is the constant 1.
    """
    p = frac(coroot_pairing)
    if p == -2:
        raise Pole("pairing -2")
    return (2 - p) / (2 + p)


def simple_scalar_case2(coroot_pairing, dim4: bool) -> Fraction:
    """Rank-one scalar when the discrete parts differ.

    The two-dimensional components transport with scalar 1; the
    four-dimensional ones scale by (-3 + p)/(3 + p).
    """
    p = frac(coroot_pairing)
    if not dim4:
        return Fraction(1)
    if p == -3:
        raise Pole("pairing -3")
    return (-3 + p) / (3 + p)


def gl_move_scalar(chain, x, opposite_sign: bool) -> Fraction:
    """Scalar of the move passing x past the ascending step-2 chain.

    Same sign: (-2 + nu_1 - x)/(2 + nu_last - x); opposite sign uses 3 in
    place of 2.  The zero sits at x = nu_1 - 2 (resp. -3) and the pole at
    x = nu_last + 2 (resp. +3).
    """
    chain = tuple(frac(v) for v in chain)
    if not chain:
        raise ScriptError("empty chain")
    if any(b - a != 2 for a, b in zip(chain, chain[1:])):
        raise ScriptError("chain must ascend in steps of 2")
    x = frac(x)
    c = 3 if opposite_sign else 2
    den = c + chain[-1] - x
    if den == 0:
        raise Pole(f"x = {fmt(chain[-1])} + {c}")
    return (-c + chain[0] - x) / den


# ---------------------------------------------------------------------------
# signed entries and predicates

@dataclass(frozen=True)
class SignedEntry:
    value: Fraction
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "value", frac(self.value))
        if not is_sign(self.sign):
            raise ValueError("sign must be +1/-1")

    def bar(self) -> "SignedEntry":
        return SignedEntry(-self.value, -self.sign)

    def __str__(self):
        return f"{fmt(self.value)}^{'+' if self.sign == 1 else '-'}"


def entries(values, sign=1):
    return tuple(SignedEntry(v, sign) for v in values)


def _check_chain(chain):
    if not chain:
        raise ScriptError("empty chain operand")
    sign = chain[0].sign
    if any(e.sign != sign for e in chain):
        raise ScriptError("chain must have constant sign")
    vals = [e.value for e in chain]
    if any(b - a != 2 for a, b in zip(vals, vals[1:])):
        raise ScriptError("chain must ascend in steps of 2")
    return vals, sign


def _pass_left_scalar(chain, xi: SignedEntry):
    """The scalar of passing xi leftward over the chain, None at its pole."""
    vals, sign = _check_chain(chain)
    try:
        return gl_move_scalar(vals, xi.value, xi.sign != sign)
    except Pole:
        return None


def pass_left_ok(chain, xi: SignedEntry) -> bool:
    """May xi pass leftward over the chain, staying defined and injective?

    The move is defined off the scalar's pole and injective off its zero:
    excluded are nu_last + 2 and nu_1 - 2 when the signs agree, nu_last + 3
    and nu_1 - 3 when they differ.
    """
    scalar = _pass_left_scalar(chain, xi)
    return scalar is not None and scalar != 0


def sort_ok(prefix, chain) -> bool:
    """May the anti-dominant prefix sort past the chain injectively?

    No prefix entry may sit at the pole of its pass over the chain:
    xi = nu_last + 2 (same sign) resp. nu_last + 3 (opposite).
    """
    _check_chain(chain)
    return all(_pass_left_scalar(chain, xi) is not None for xi in prefix)


def short_root_ok(a) -> bool:
    """The short-root flip is an isomorphism on spin-relevant K-types
    except at a = +-3/2."""
    return abs(frac(a)) != Fraction(3, 2)


def pair_flip_ok(e1: SignedEntry, e2: SignedEntry) -> bool:
    """The rank-one flip (v_i, v_j) -> (-v_j, -v_i) on two entries.

    Kernel/pole locus: |v_i + v_j| = 3 when the signs agree (the discrete
    pairing is nonzero), |v_i + v_j| = 2 when they differ.
    """
    s = abs(e1.value + e2.value)
    return s != (3 if e1.sign == e2.sign else 2)


# ---------------------------------------------------------------------------
# block moves and replay

@dataclass(frozen=True)
class PassLeft:
    """Move entry ``xi`` just before the contiguous chain [start, stop)."""
    start: int
    stop: int
    xi: int

    def describe(self, seq):
        chain = " ".join(str(e) for e in seq[self.start:self.stop])
        return f"pass {seq[self.xi]} left over ({chain})"


@dataclass(frozen=True)
class SortDescending:
    """Sort the slice [start, stop) into descending order (prefix; chain)."""
    start: int
    split: int
    stop: int

    def describe(self, seq):
        pre = " ".join(str(e) for e in seq[self.start:self.split])
        chain = " ".join(str(e) for e in seq[self.split:self.stop])
        return f"sort ({pre} | {chain}) descending"


@dataclass(frozen=True)
class BarGL:
    """Reinterpret entry i through the opposite type-A Levi: v^s -> (-v)^(-s)."""
    index: int

    def describe(self, seq):
        return f"bar-reading {seq[self.index]} as {seq[self.index].bar()}"


@dataclass(frozen=True)
class ShortRootFlip:
    """The short-root move of family B on entry i: v^s -> (-v)^(-s)."""
    index: int

    def describe(self, seq):
        return f"short-root flip of {seq[self.index]}"


@dataclass(frozen=True)
class PairFlip:
    """Flip entries i < j through the e_i + e_j rank-one move."""
    i: int
    j: int

    def describe(self, seq):
        return f"pair flip of {seq[self.i]}, {seq[self.j]}"


@dataclass(frozen=True)
class Uncertified:
    """A move the predicate layer does not certify (external base cases)."""
    note: str

    def describe(self, seq):
        return self.note


@dataclass(frozen=True)
class StepReport:
    move: object
    description: str
    well_defined: bool
    injective: bool
    scalar: Fraction = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.well_defined and self.injective


def _apply(seq, move):
    seq = list(seq)
    if isinstance(move, PassLeft):
        xi = seq.pop(move.xi)
        seq.insert(move.start, xi)
    elif isinstance(move, SortDescending):
        block = sorted(seq[move.start:move.stop],
                       key=lambda e: e.value, reverse=True)
        seq[move.start:move.stop] = block
    elif isinstance(move, (BarGL, ShortRootFlip)):
        seq[move.index] = seq[move.index].bar()
    elif isinstance(move, PairFlip):
        a, b = seq[move.i], seq[move.j]
        seq[move.i], seq[move.j] = b.bar(), a.bar()
    elif isinstance(move, Uncertified):
        pass
    else:
        raise ScriptError(f"unknown move {move!r}")
    return tuple(seq)


def _evaluate(seq, move) -> StepReport:
    desc = move.describe(seq)
    if isinstance(move, PassLeft):
        if not (0 <= move.start < move.stop <= move.xi < len(seq)):
            raise ScriptError("pass-left operands out of order")
        scalar = _pass_left_scalar(seq[move.start:move.stop], seq[move.xi])
        well = scalar is not None
        inj = well and scalar != 0
        reason = "" if inj else (
            "pole of the rank-one scalar" if not well
            else "zero of the rank-one scalar: not injective"
        )
        return StepReport(move, desc, well, inj, scalar, reason)
    if isinstance(move, SortDescending):
        if not (0 <= move.start <= move.split <= move.stop <= len(seq)):
            raise ScriptError("sort operands out of order")
        prefix = seq[move.start:move.split]
        chain = seq[move.split:move.stop]
        ok = sort_ok(prefix, chain)
        return StepReport(move, desc, True, ok,
                          reason="" if ok else "excluded value nu_last + c hit")
    if isinstance(move, BarGL):
        return StepReport(move, desc, True, True)
    if isinstance(move, ShortRootFlip):
        ok = short_root_ok(seq[move.index].value)
        return StepReport(move, desc, True, ok,
                          reason="" if ok else "short-root move fails at +-3/2")
    if isinstance(move, PairFlip):
        ok = pair_flip_ok(seq[move.i], seq[move.j])
        return StepReport(move, desc, True, ok,
                          reason="" if ok else "pair-flip kernel locus hit")
    if isinstance(move, Uncertified):
        return StepReport(move, desc, True, False,
                          reason="no applicable predicate (external base case)")
    raise ScriptError(f"unknown move {move!r}")


def apply_script(script, start):
    seq = tuple(start)
    for move in script:
        seq = _apply(seq, move)
    return seq


def verify_chain(script, start):
    """Replay a script, evaluating each move; failures do not stop the replay."""
    seq = tuple(start)
    reports = []
    for move in script:
        reports.append(_evaluate(seq, move))
        seq = _apply(seq, move)
    return reports


# ---------------------------------------------------------------------------
# built-in scripts

# the largest total size of the pairs verify-chain replays: the script of a
# column (x; 0) grows faster than x^2; (256; 0) replays in ~0.4 s on a Xeon core
MAX_SCRIPT_SIZE = 256


def _index_of(seq, value, sign):
    for i, e in enumerate(seq):
        if e.value == value and e.sign == sign:
            return i
    raise ScriptError(f"entry {fmt(value)}^{sign} not found")


def _flip_and_pass(seq, script, top, flip):
    """Flip the entry top^+ by the move ``flip`` and pass it left over the
    positive entries strictly between -top and top; returns the new seq."""
    ti = _index_of(seq, top, 1)
    script.append(flip(ti))
    seq = _apply(seq, script[-1])
    run = [i for i, e in enumerate(seq) if e.sign == 1 and -top < e.value < top]
    if run:
        script.append(PassLeft(run[0], run[-1] + 1, ti))
        seq = _apply(seq, script[-1])
    return seq


def _pass_block(m: int, count: int) -> list:
    """Pass the ``count`` entries after a block of length m left over it, one
    by one: after k passes the block occupies [k, k+m) and the next entry
    sits immediately to its right."""
    return [PassLeft(k, k + m, k + m) for k in range(count)]


def case_i_script_d(a: int, b: int):
    """Scripts replaying the single-string move for family D pairs (a; b).

    All predicate checks pass exactly when a <= b + 1, mirroring the failure
    of the move for steep strings.  Returns (name, start, script) parts.
    """
    parts = []
    # omega side: pass each flipped top left over the interior run
    seq = entries(string_of_column(a, b)[::-1])
    start = seq
    script = []
    for _ in range(max(a - 1, 0)):
        top = max(e.value for e in seq if e.sign == 1)
        seq = _flip_and_pass(seq, script, top, BarGL)
    parts.append(("omega", start, tuple(script)))
    # dual side: flip the positive tail pairwise, then one descending sort
    seq = entries(tuple(-v for v in string_of_column(a, b)))
    start = seq
    script = []
    tail = [i for i, e in enumerate(seq) if e.value >= Fraction(3, 2)]
    lo, hi = 0, len(tail) - 1
    while lo < hi:
        script.append(PairFlip(tail[lo], tail[hi]))
        lo, hi = lo + 1, hi - 1
    if lo == hi and lo >= 0:
        script.append(BarGL(tail[lo]))
    seq = apply_script(script, start)
    split = sum(1 for e in seq if e.sign == 1)
    if 0 < split < len(seq):
        script.append(SortDescending(0, split, len(seq)))
    parts.append(("omega-dual", start, tuple(script)))
    return parts


def case_i_script_b(a: int, b: int):
    """Replay for family B single strings (a; b): short-root flips carry the
    tops across; strings with a > b + 1 end in an external core."""
    seq = entries(string_of_column(a, b)[::-1])
    start = seq
    script = []
    while True:
        tops = [e.value for e in seq if e.sign == 1 and e.value >= Fraction(9, 2)]
        if not tops:
            break
        seq = _flip_and_pass(seq, script, max(tops), ShortRootFlip)
    if a > b + 1:
        script.append(Uncertified(
            "core move (1/2^+, 5/2^+) -> (-5/2^-, -1/2^-): external check"))
    return [("omega", start, tuple(script))]


def case_ii_script_d(c: int, d: int, e: int, f: int):
    """Replay of the two-string reduction for family D pairs (c d; e f).

    The f-block passes left over the (d; e)-string (certified), the
    interior reduces to the external rank-4 cores, and the remainder sorts.
    """
    if not (c >= d and e >= f):
        raise ScriptError("columns must be doubly non-increasing")
    block_de = entries(string_of_column(d, e)[::-1])
    block_f = entries(string_of_column(0, f)[::-1])
    script = _pass_block(len(block_de), len(block_f))
    script.append(Uncertified(
        "interior reduction to the (2 2; 0 0) / (2 1; 1 0) cores: external check"))
    return [("delta", block_de + block_f, tuple(script))]


def padding_script(s: int, t: int, rest_pairs):
    """Replay of the move placing a shift-1/2 block (s; t) ahead of a core.

    Each core entry passes left over the block; the predicate holds when the
    block dominates the core strings (s >= x_i, y_i)."""
    if s - t not in (0, 1):
        raise ScriptError("the leading block must have s - t in {0, 1}")
    block = entries(string_of_column(s, t)[::-1])
    gammas = []
    for x, y in rest_pairs:
        gammas.extend(string_of_column(x, y))
    start = block + entries(tuple(sorted(gammas)))
    return [("pad", start, tuple(_pass_block(len(block), len(gammas))))]


def build_case_script(family: str, pairs):
    """Dispatch to the built-in script builders from string-pair data."""
    cols = list(pairs)
    if len(cols) == 1:
        (x, y), = cols
        if family == "D":
            return case_i_script_d(x, y)
        return case_i_script_b(x, y)
    if len(cols) == 2 and family == "D":
        (c, e), (d, f) = cols[0], cols[1]
        return case_ii_script_d(c, d, e, f)
    raise ScriptError("built-in scripts cover single columns and D column pairs")


# ---------------------------------------------------------------------------
# reflection-word scalars (consistency of non-reduced expressions)

# (simple root, coroot) of each generator, in coordinates
_SIMPLE_ROOTS = {
    "A2": {"s1": ((1, -1, 0), (1, -1, 0)), "s2": ((0, 1, -1), (0, 1, -1))},
    "B2": {"s1": ((1, -1), (1, -1)), "s2": ((0, 1), (0, 2))},
}


class WordSystem:
    """Coordinate models of small reflection groups for word-scalar tests.

    The generator with simple root alpha and coroot alpha^v acts by
    nu -> nu - <nu, alpha^v> alpha.
    """

    def __init__(self, name: str):
        if name not in _SIMPLE_ROOTS:
            raise ValueError("supported systems: A2, B2")
        self.name = name
        self._roots = _SIMPLE_ROOTS[name]
        self.gens = tuple(self._roots)
        self.dim = len(self._roots["s1"][0])

    def _simple(self, gen: str):
        if gen not in self._roots:
            raise ValueError(f"{self.name} has no generator {gen!r}")
        return self._roots[gen]

    def pairing(self, gen: str, nu) -> Fraction:
        _, coroot = self._simple(gen)
        return sum(v * c for v, c in zip(nu, coroot, strict=True))

    def reflect(self, gen: str, nu):
        root, _ = self._simple(gen)
        p = self.pairing(gen, nu)
        return tuple(v - p * a for v, a in zip(nu, root, strict=True))


def word_action(system: WordSystem, word, nu):
    nu = tuple(frac(v) for v in nu)
    for gen in word:
        nu = system.reflect(gen, nu)
    return nu


def word_scalar(system: WordSystem, word, nu) -> Fraction:
    """Product of antisymmetric-line scalars along a reflection word.

    The word is applied left to right; equal Weyl elements give equal
    products wherever every factor is defined, reduced or not.
    """
    nu = tuple(frac(v) for v in nu)
    scalar = Fraction(1)
    for gen in word:
        scalar *= simple_scalar_case1(system.pairing(gen, nu))
        nu = system.reflect(gen, nu)
    return scalar
