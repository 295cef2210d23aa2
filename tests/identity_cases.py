"""Fixed inputs and output digests for the byte-identity gate.

Each case set is a fixed list of inputs.  The digest of a set is the sha256
of everything the program prints or returns on it, in order:

* ``classify`` sets: ``repr`` of the verdict, its transcript and ``repr`` of
  ``to_langlands`` for every D/B table row with n <= 10, for the
  ``mixed_blocks`` inputs of the benchmark (seeds 1-3) and their Hermitian
  duals, and for a seeded set of general-rational parameters, where an
  exception is recorded by type and message, and for a seeded set of
  parameters whose texts lie past the bounds of the shared k/L table
  (common denominator L >= 16, or entries with |L v| >= 512);
* ``cli`` sets: exit code, standard output and standard error of in-process
  ``spindual.cli.main`` calls, as text and as ``--json``: ``table`` for
  n <= 8, ``classify``, ``rewrite``, ``orbit`` and ``verify-chain`` on every
  row with n <= 6 (their 3,712 calls on the rows of n = 7 and 8 would add
  ~1 s to the gate; ``table`` classifies those rows), plus a few malformed
  command lines;
* ``cli verify-chain`` sets: the same for ``verify-chain``, as text and as
  ``--json``, on every single column with n = 7 to 12 in both families and
  on every family D column pair with n = 7 and 8;
* ``cli wide`` sets: ``classify --mu/--nu`` on some of those wide
  parameters and ``verify-chain`` on the column (200; 0) in both families,
  whose start reaches 797/2, as text and as ``--json``;
* the ``cli trace`` set: exit code and ``--trace`` lines of ``classify
  --trace`` on every ``classify`` input of the ``cli`` and ``cli wide`` sets
  (``--pairs`` rows and ``--mu/--nu`` parameters), each line with its
  ``elapsed_ns`` dropped, so that the stage events' integer counters, which
  no transcript line prints, keep their values too.

``tests/test_identity.py`` compares the digests with ``identity/digests.json``.
A change that alters an output on purpose regenerates the file with

    PYTHONPATH=src python tests/identity_cases.py

which also rewrites the readable samples ``identity/table_D4.json`` and
``identity/table_B4.json`` (``table --json`` at rank 4), so that a digest
change comes with a diff that can be reviewed.
"""

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from spindual import cli
from spindual.spinclass import classify, enumerate_pairs, pairs_to_param, transcript
from spindual.weyl import GenuineParam, GroupTag, hermitian_dual, to_langlands

HERE = Path(__file__).resolve().parent / "identity"
DIGESTS = HERE / "digests.json"
SAMPLES = {f"table_{fam}4.json": ["table", "--group", fam, "--rank", "4", "--json"]
           for fam in ("D", "B")}
BENCH = Path(__file__).resolve().parents[1] / "bench"

CLASSIFY_RANKS = range(1, 11)
TABLE_RANKS = range(1, 9)
CLI_ROW_RANKS = range(1, 7)
VERIFY_COLUMN_RANKS = range(7, 13)
VERIFY_PAIR_RANKS = (7, 8)
WIDE_COUNT = 400
WIDE_CLI_COUNT = 12
MIXED_SEEDS = (1, 2, 3)
GENERAL_COUNT = 3000
MALFORMED = (
    ["table", "--group", "D"],
    ["classify", "--mu", "1/2,1/2", "--nu", "1"],
    ["classify", "--mu", "1/2", "--nu", "0/0"],
    ["classify", "--group", "D", "--pairs", "0;1"],
    ["table", "--rank", "0"],
    ["rewrite", "--group", "B", "--pairs", "1,2;0"],
    ["verify-chain", "--group", "D", "--pairs", "300;0"],
)


def _classify_record(p) -> str:
    try:
        verdict = classify(p)
        return "\n".join([repr(verdict), *transcript(verdict), repr(to_langlands(p))])
    except Exception as exc:  # the gate records failures too
        return f"{type(exc).__name__}: {exc}"


def _mixed_params(seed):
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    for family, mu, nu in workloads.gen_mixed_blocks(None, seed):
        p = GenuineParam(GroupTag(family, len(mu)), mu, nu)
        yield p
        yield hermitian_dual(p)


def _general_inputs():
    """Seeded (family, rank, mu, nu) with small rational entries.

    Most are Hermitian by construction: entries come in (m, v), (m, -v)
    couples or as (m, 0), under a random signed permutation, so that they
    reach the GL blocks and the residue classes with general denominators.
    The rest are arbitrary.  A tenth of the mu-entries are integers or
    thirds (not genuine), and a few ranks do not match the vector lengths.
    """
    rng = random.Random("identity:general")

    def mu_value():
        if rng.random() < 0.9:
            return Fraction(2 * rng.randint(0, 3) + 1, 2)
        return Fraction(rng.randint(-3, 3), rng.choice((1, 3)))

    for _ in range(GENERAL_COUNT):
        family = rng.choice("BD")
        n = rng.randint(1, 7)
        den = rng.choice((1, 2, 3, 4, 6))

        def value():
            return Fraction(rng.randint(-4 * den, 4 * den), den)

        if rng.random() < 0.7:
            entries = []
            while len(entries) < n:
                m = mu_value()
                if len(entries) + 2 <= n and rng.random() < 0.8:
                    v = value()
                    entries += [(m, v), (m, -v)]
                else:
                    entries.append((m, Fraction(0)))
            rng.shuffle(entries)
            entries = [(m, v) if rng.random() < 0.5 else (-m, -v) for m, v in entries]
            mu = tuple(m for m, _ in entries)
            nu = tuple(v for _, v in entries)
        else:
            mu = tuple(mu_value() for _ in range(n))
            nu = tuple(value() for _ in range(n))
        rank = n if rng.random() < 0.97 else n + 1
        yield family, rank, mu, nu


def _general_record(case) -> str:
    family, rank, mu, nu = case
    try:
        p = GenuineParam(GroupTag(family, rank), mu, nu)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return _classify_record(p)


def _wide_inputs():
    """Seeded (family, mu, nu) of genuine Hermitian parameters whose texts lie
    past the bounds of the shared k/L table: nu in ninths or seventeenths
    (common denominator 18 or 34), entries up to a few hundred, GL blocks at
    mu = 3/2 and 5/2, and string-like runs in the mu = 1/2 block that pass
    through 1/2 or not."""
    rng = random.Random("identity:wide")
    for _ in range(WIDE_COUNT):
        family = rng.choice("BD")
        den, n = rng.choice((2, 9, 17)), rng.randint(1, 8)
        entries = []
        while len(entries) < n:
            m = Fraction(rng.choice((1, 1, 1, 3, 5)), 2)
            shape = rng.random()
            if shape < 0.3:
                # a step-2 run of half-integers, far out or through 1/2
                top = Fraction(2 * rng.choice((rng.randint(0, 3), rng.randint(120, 320))) + 1, 2)
                for j in range(rng.randint(1, 3)):
                    entries += [(m, top - 2 * j), (m, -(top - 2 * j))]
            elif shape < 0.8:
                k = rng.choice((rng.randint(-40, 40), rng.randint(-6000, 6000)))
                v = Fraction(k, den)
                entries += [(m, v), (m, -v)]
            else:
                entries.append((m, Fraction(0)))
        rng.shuffle(entries)
        entries = [(m, v) if rng.random() < 0.5 else (-m, -v) for m, v in entries]
        yield family, tuple(m for m, _ in entries), tuple(v for _, v in entries)


def _wide_params():
    for family, mu, nu in _wide_inputs():
        yield GenuineParam(GroupTag(family, len(mu)), mu, nu)


def _wide_argvs():
    for family, mu, nu in itertools.islice(_wide_inputs(), WIDE_CLI_COUNT):
        yield ["classify", "--group", family, "--mu=" + ",".join(map(str, mu)),
               "--nu=" + ",".join(map(str, nu))]
    for family in ("D", "B"):
        yield ["verify-chain", "--group", family, "--pairs", "200;0"]


def cli_call(argv) -> str:
    """Exit code, standard output and standard error of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def _trace_call(argv) -> str:
    """Exit code and ``--trace`` lines of ``cli.main(argv + ["--trace"])``,
    each line without its ``elapsed_ns``, which differs from run to run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--trace"])
    records = [json.loads(line) for line in err.getvalue().splitlines()]
    for record in records:
        del record["elapsed_ns"]
    return "\n".join([str(code), *map(json.dumps, records)])


def _trace_argvs():
    """The ``classify`` inputs of the ``cli`` and ``cli wide`` sets."""
    for family in ("D", "B"):
        for n in TABLE_RANKS:
            yield from (argv for argv in _cli_argvs(family, n) if argv[0] == "classify")
    yield from (argv for argv in _wide_argvs() if argv[0] == "classify")


def _pairs_arg(pairs) -> str:
    return ",".join(map(str, pairs.xs)) + ";" + ",".join(map(str, pairs.ys))


def _cli_argvs(family, n):
    yield ["table", "--group", family, "--rank", str(n)]
    if n not in CLI_ROW_RANKS:
        return
    for pairs in enumerate_pairs(family, n):
        for command in ("classify", "rewrite", "orbit", "verify-chain"):
            yield [command, "--group", family, "--pairs", _pairs_arg(pairs)]


def _verify_chain_argvs():
    """Every single column with n in VERIFY_COLUMN_RANKS (both families) and
    every family D column pair with n in VERIFY_PAIR_RANKS."""
    rows = [(family, pairs) for family in ("D", "B") for n in VERIFY_COLUMN_RANKS
            for pairs in enumerate_pairs(family, n) if len(pairs.pairs) == 1]
    rows += [("D", pairs) for n in VERIFY_PAIR_RANKS
             for pairs in enumerate_pairs("D", n) if len(pairs.pairs) == 2]
    for family, pairs in rows:
        yield ["verify-chain", "--group", family, "--pairs", _pairs_arg(pairs)]


def case_sets():
    """Set name -> a zero-argument function returning the set's records."""
    sets = {}
    for family in ("D", "B"):
        for n in CLASSIFY_RANKS:
            sets[f"classify {family} {n}"] = lambda family=family, n=n: (
                _classify_record(pairs_to_param(p)) for p in enumerate_pairs(family, n))
    for seed in MIXED_SEEDS:
        sets[f"classify mixed_blocks {seed}"] = lambda seed=seed: (
            _classify_record(p) for p in _mixed_params(seed))
    sets["classify general"] = lambda: (_general_record(c) for c in _general_inputs())
    sets["classify wide"] = lambda: (_classify_record(p) for p in _wide_params())
    for family in ("D", "B"):
        for n in TABLE_RANKS:
            for fmt in ("text", "json"):
                extra = ["--json"] if fmt == "json" else []
                sets[f"cli {family} {n} {fmt}"] = lambda family=family, n=n, extra=extra: (
                    cli_call(argv + extra) for argv in _cli_argvs(family, n))
    for fmt in ("text", "json"):
        extra = ["--json"] if fmt == "json" else []
        sets[f"cli verify-chain {fmt}"] = lambda extra=extra: (
            cli_call(argv + extra) for argv in _verify_chain_argvs())
        sets[f"cli wide {fmt}"] = lambda extra=extra: (
            cli_call(argv + extra) for argv in _wide_argvs())
    sets["cli malformed"] = lambda: (cli_call(argv) for argv in MALFORMED)
    sets["cli trace"] = lambda: (_trace_call(argv) for argv in _trace_argvs())
    return sets


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record.encode())
        h.update(b"\0")
    return h.hexdigest()


def digests() -> dict:
    return {name: digest(records()) for name, records in case_sets().items()}


def sample(name) -> str:
    """The readable sample: the standard output of its command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(SAMPLES[name])
    return out.getvalue()


def main():
    HERE.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
    for name in SAMPLES:
        (HERE / name).write_text(sample(name))


if __name__ == "__main__":
    main()
