"""Rank-one intertwining scalars, injectivity predicates, and chain replay.

Signed entries ``v^(+-)`` abbreviate a parameter coordinate with continuous
part v and discrete part +-1/2.  Moving a signed entry past an ascending
step-2 block of constant sign is a rank-one operation whose restriction to
the one-dimensional isotypic subspaces is an explicit rational scalar; the
scalar's zero locus is the non-injective locus and its pole the ill-defined
locus.  ``verify_chain`` replays a script of such block moves, checking each
against the applicable predicate, and keeps applying moves syntactically
after a failure so the whole script is reported.

The replay runs on the entries scaled once by their common denominator L
(:func:`~spindual.halfint.scaled`): (int, sign) pairs, on which the scalar
and the predicates are stated once.  Fractions appear only in
``SignedEntry.value`` and ``StepReport.scalar``; the built-in scripts are
built on doubled values (L = 2).

A failing step means no implemented predicate certifies the move -- the
replay is evidence, not proof.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, neg

from .halfint import frac, fmt, is_sign, scaled, texts, unscaled, vec
from .spinclass import _doubled_string


class Pole(ArithmeticError):
    """The scalar's denominator vanishes: the operator is not defined there."""


class ScriptError(ValueError):
    """Malformed move operands."""


# ---------------------------------------------------------------------------
# the scalar and the predicates on entries scaled by L: (int, sign) pairs

def _chain_ends(chain, L: int) -> tuple:
    """(nu_1, nu_last, sign) of a chain of scaled entries, which must be
    non-empty, of constant sign and ascending in steps of 2 (2L scaled)."""
    if not chain:
        raise ScriptError("empty chain operand")
    ks, signs = zip(*chain)
    if signs.count(signs[0]) != len(signs):
        raise ScriptError("chain must have constant sign")
    if ks != tuple(range(ks[0], ks[-1] + 1, 2 * L)):
        raise ScriptError("chain must ascend in steps of 2")
    return ks[0], ks[-1], signs[0]


def _pass_terms(ends, x, L: int) -> tuple:
    """L times the numerator and denominator of the scalar of passing the
    entry x leftward over the chain with these ends:
    (-c + nu_1 - x)/(c + nu_last - x), with c = 2 when the signs agree and
    c = 3 when they differ.  Its zero is the non-injective locus, its pole
    the ill-defined one; sorting a prefix past the chain meets only poles."""
    first, last, sign = ends
    c = (2 if x[1] == sign else 3) * L
    return first - c - x[0], c + last - x[0]


def _sort_ok(prefix, ends, L: int) -> bool:
    return all(_pass_terms(ends, x, L)[1] != 0 for x in prefix)


def _on_ints(seq) -> tuple:
    """(L, [(L*v, sign), ...]) for a sequence of signed entries."""
    L, ks = scaled([e.value for e in seq])
    return L, list(zip(ks, [e.sign for e in seq]))


def gl_move_scalar(chain, x, opposite_sign: bool) -> Fraction:
    """Scalar of the move passing x past the ascending step-2 chain.

    Same sign: (-2 + nu_1 - x)/(2 + nu_last - x); opposite sign uses 3 in
    place of 2.  The zero sits at x = nu_1 - 2 (resp. -3) and the pole at
    x = nu_last + 2 (resp. +3).
    """
    chain = tuple(frac(v) for v in chain)
    L, ks = scaled(chain + (frac(x),))
    ends = _chain_ends([(k, 1) for k in ks[:-1]], L)
    num, den = _pass_terms(ends, (ks[-1], -1 if opposite_sign else 1), L)
    if den == 0:
        raise Pole(f"x = {fmt(chain[-1])} + {3 if opposite_sign else 2}")
    return Fraction(num, den)


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

    @classmethod
    def _built(cls, value: Fraction, sign: int) -> "SignedEntry":
        """The entry of a Fraction and a sign +1/-1 that spindual built, which
        its caller vouches for."""
        e = object.__new__(cls)
        e.__dict__.update(value=value, sign=sign)
        return e

    def __str__(self):
        return f"{fmt(self.value)}^{'+' if self.sign == 1 else '-'}"


def entries(values, sign=1):
    return tuple(SignedEntry(v, sign) for v in values)


def _positive_entries(values) -> tuple:
    """``entries(values)`` of Fractions, as the script builders make them
    from the shared half-integers, without the coercion and sign check."""
    return tuple([SignedEntry._built(v, 1) for v in values])


def pass_left_ok(chain, xi: SignedEntry) -> bool:
    """May xi pass leftward over the chain, staying defined and injective?

    The move is defined off the scalar's pole and injective off its zero:
    excluded are nu_last + 2 and nu_1 - 2 when the signs agree, nu_last + 3
    and nu_1 - 3 when they differ.
    """
    L, ints = _on_ints((*chain, xi))
    num, den = _pass_terms(_chain_ends(ints[:-1], L), ints[-1], L)
    return den != 0 and num != 0


def sort_ok(prefix, chain) -> bool:
    """May the anti-dominant prefix sort past the chain injectively?

    No prefix entry may sit at the pole of its pass over the chain:
    xi = nu_last + 2 (same sign) resp. nu_last + 3 (opposite).
    """
    prefix = tuple(prefix)
    L, ints = _on_ints((*prefix, *chain))
    return _sort_ok(ints[:len(prefix)], _chain_ends(ints[len(prefix):], L), L)


# ---------------------------------------------------------------------------
# block moves and replay

@dataclass(frozen=True)
class PassLeft:
    """Move entry ``xi`` just before the contiguous chain [start, stop)."""
    start: int
    stop: int
    xi: int


@dataclass(frozen=True)
class SortDescending:
    """Sort the slice [start, stop) into descending order (prefix; chain)."""
    start: int
    split: int
    stop: int


@dataclass(frozen=True)
class BarGL:
    """Reinterpret entry i through the opposite type-A Levi: v^s -> (-v)^(-s)."""
    index: int


@dataclass(frozen=True)
class ShortRootFlip:
    """The short-root move of family B on entry i: v^s -> (-v)^(-s)."""
    index: int


@dataclass(frozen=True)
class PairFlip:
    """Flip entries i < j through the e_i + e_j rank-one move."""
    i: int
    j: int


@dataclass(frozen=True)
class Uncertified:
    """A move the predicate layer does not certify (external base cases)."""
    note: str


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


def _entry_texts(seq, L: int) -> dict:
    """Each entry (k, s) of seq and its bar -> ``str`` of the SignedEntry
    (k/L)^s: the shared text of k/L with the sign appended."""
    ks = [k for k, _ in seq]
    text = {}
    for (k, s), value, negated in zip(seq, texts(L, ks), texts(L, map(neg, ks))):
        text[k, s] = value + ("^+" if s == 1 else "^-")
        text[-k, -s] = negated + ("^-" if s == 1 else "^+")
    return text


def _step(seq: list, move, L: int, text: dict) -> StepReport:
    """Check the move's operands, evaluate and describe it on seq, a list of
    (int, sign) entries scaled by L, and apply it to seq in place."""
    n = len(seq)
    if isinstance(move, PassLeft):
        start, stop, i = move.start, move.stop, move.xi
        if not 0 <= start < stop <= i < n:
            raise ScriptError("pass-left operands out of order")
        chain, xi = seq[start:stop], seq[i]
        num, den = _pass_terms(_chain_ends(chain, L), xi, L)
        desc = f"pass {text[xi]} left over ({' '.join([text[e] for e in chain])})"
        seq.insert(start, seq.pop(i))
        if den == 0:
            return StepReport(move, desc, False, False, None, "pole of the rank-one scalar")
        return StepReport(move, desc, True, num != 0, Fraction(num, den),
                          "" if num else "zero of the rank-one scalar: not injective")
    if isinstance(move, SortDescending):
        start, split, stop = move.start, move.split, move.stop
        if not 0 <= start <= split <= stop <= n:
            raise ScriptError("sort operands out of order")
        ok = _sort_ok(seq[start:split], _chain_ends(seq[split:stop], L), L)
        pre = " ".join([text[e] for e in seq[start:split]])
        chain = " ".join([text[e] for e in seq[split:stop]])
        seq[start:stop] = sorted(seq[start:stop], key=itemgetter(0), reverse=True)
        return StepReport(move, f"sort ({pre} | {chain}) descending", True, ok,
                          reason="" if ok else "excluded value nu_last + c hit")
    if isinstance(move, (BarGL, ShortRootFlip)):
        i = move.index
        if not 0 <= i < n:
            raise ScriptError(f"entry {i} out of range")
        e = seq[i]
        seq[i] = bar = (-e[0], -e[1])
        if isinstance(move, BarGL):
            return StepReport(move, f"bar-reading {text[e]} as {text[bar]}", True, True)
        ok = 2 * abs(e[0]) != 3 * L  # the short-root locus a = +-3/2
        return StepReport(move, f"short-root flip of {text[e]}", True, ok,
                          reason="" if ok else "short-root move fails at +-3/2")
    if isinstance(move, PairFlip):
        i, j = move.i, move.j
        if not 0 <= i < j < n:
            raise ScriptError("pair-flip operands out of order")
        a, b = seq[i], seq[j]
        # the kernel locus: |v_i + v_j| = 3 when the signs agree, else 2
        ok = abs(a[0] + b[0]) != (3 if a[1] == b[1] else 2) * L
        seq[i], seq[j] = (-b[0], -b[1]), (-a[0], -a[1])
        return StepReport(move, f"pair flip of {text[a]}, {text[b]}", True, ok,
                          reason="" if ok else "pair-flip kernel locus hit")
    if isinstance(move, Uncertified):
        return StepReport(move, move.note, True, False,
                          reason="no applicable predicate (external base case)")
    raise ScriptError(f"unknown move {move!r}")


def verify_chain(script, start):
    """Replay a script, evaluating each move; failures do not stop the replay.

    The start is scaled once; every move permutes or bars its entries, so
    the texts of the start's entries and their bars are all the replay reads.
    """
    L, seq = _on_ints(tuple(start))
    text = _entry_texts(seq, L)
    return [_step(seq, move, L, text) for move in script]


# ---------------------------------------------------------------------------
# built-in scripts, built on doubled values: (2v, sign) pairs

# the largest total size of the pairs verify-chain replays: the script of a
# column (x; 0) grows faster than x^2; (256; 0) replays in ~0.02 s on a Xeon core
MAX_SCRIPT_SIZE = 256


def _flip_and_pass(seq, script, top, flip):
    """Flip the entry top^+ by the move ``flip`` and pass it left over the
    positive entries strictly between -top and top, in place."""
    ti = seq.index((top, 1))
    seq[ti] = (-top, -1)
    script.append(flip(ti))
    run = [i for i, (d, s) in enumerate(seq) if s == 1 and -top < d < top]
    if run:
        script.append(PassLeft(run[0], run[-1] + 1, ti))
        seq.insert(run[0], seq.pop(ti))


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
    ascending = _doubled_string(a, b)[::-1]
    seq = [(d, 1) for d in ascending]
    script = []
    for _ in range(max(a - 1, 0)):
        top = max(d for d, s in seq if s == 1)
        _flip_and_pass(seq, script, top, BarGL)
    parts.append(("omega", _positive_entries(unscaled(2, ascending)), tuple(script)))
    # dual side: flip the positive tail pairwise, then one descending sort;
    # the flipped tail is what turns negative
    dual = [-d for d in _doubled_string(a, b)]
    tail = [i for i, d in enumerate(dual) if d >= 3]
    script = [PairFlip(tail[k], tail[-1 - k]) for k in range(len(tail) // 2)]
    if len(tail) % 2:
        script.append(BarGL(tail[len(tail) // 2]))
    split = len(dual) - len(tail)
    if 0 < split < len(dual):
        script.append(SortDescending(0, split, len(dual)))
    parts.append(("omega-dual", _positive_entries(unscaled(2, dual)), tuple(script)))
    return parts


def case_i_script_b(a: int, b: int):
    """Replay for family B single strings (a; b): short-root flips carry the
    tops across; strings with a > b + 1 end in an external core."""
    ascending = _doubled_string(a, b)[::-1]
    seq = [(d, 1) for d in ascending]
    script = []
    while True:
        tops = [d for d, s in seq if s == 1 and d >= 9]
        if not tops:
            break
        _flip_and_pass(seq, script, max(tops), ShortRootFlip)
    if a > b + 1:
        script.append(Uncertified(
            "core move (1/2^+, 5/2^+) -> (-5/2^-, -1/2^-): external check"))
    return [("omega", _positive_entries(unscaled(2, ascending)), tuple(script))]


def case_ii_script_d(c: int, d: int, e: int, f: int):
    """Replay of the two-string reduction for family D pairs (c d; e f).

    The f-block passes left over the (d; e)-string (certified), the
    interior reduces to the external rank-4 cores, and the remainder sorts.
    """
    if not (c >= d and e >= f):
        raise ScriptError("columns must be doubly non-increasing")
    block_de = _doubled_string(d, e)[::-1]
    block_f = _doubled_string(0, f)[::-1]
    script = _pass_block(len(block_de), len(block_f))
    script.append(Uncertified(
        "interior reduction to the (2 2; 0 0) / (2 1; 1 0) cores: external check"))
    return [("delta", _positive_entries(unscaled(2, [*block_de, *block_f])), tuple(script))]


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

    def _reflect_scaled(self, gen: str, ks) -> tuple:
        """(P, the reflection) for nu = ks/L on the ints ks: P is L times
        the pairing, and the reflection is scaled by L as well."""
        if gen not in self._roots:
            raise ValueError(f"{self.name} has no generator {gen!r}")
        root, coroot = self._roots[gen]
        P = sum(k * c for k, c in zip(ks, coroot, strict=True))
        return P, tuple(k - P * a for k, a in zip(ks, root, strict=True))


def word_action(system: WordSystem, word, nu):
    """nu under the word applied left to right, reflected on nu scaled once."""
    L, ks = scaled(vec(nu))
    for gen in word:
        _, ks = system._reflect_scaled(gen, ks)
    return unscaled(L, ks)


def word_scalar(system: WordSystem, word, nu) -> Fraction:
    """Product of antisymmetric-line scalars along a reflection word.

    The word is applied left to right; equal Weyl elements give equal
    products wherever every factor is defined, reduced or not.  It runs on
    nu scaled once by L: the rank-one scalar on the antisymmetric line,
    (2 - p)/(2 + p) at the pairing p, is (2L - P)/(2L + P) at the scaled
    pairing P = Lp, with its pole at P = -2L.
    """
    L, ks = scaled(vec(nu))
    num = den = 1
    for gen in word:
        P, ks = system._reflect_scaled(gen, ks)
        if P == -2 * L:
            raise Pole("pairing -2")
        num, den = num * (2 * L - P), den * (2 * L + P)
    return Fraction(num, den)
