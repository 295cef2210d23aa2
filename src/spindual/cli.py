"""Command-line interface.

Subcommands: classify, table, enumerate, rewrite, orbit, verify-chain.
Parameters come from ``--pairs "x1,..;y1,.."`` with ``--group``, from a JSON
document (``--file`` or stdin) with fields {group, rank, mu, nu} or
{group, pairs: {x: [...], y: [...]}}, or from explicit ``--mu/--nu`` lists.
``classify`` reads one source, and a second one is a parse error: ``--pairs``
next to ``--mu``, ``--nu``, ``--rank`` or ``--file``, ``--mu``/``--nu`` next
to ``--file``, ``--rank`` without ``--mu``/``--nu``, ``--group`` next to a
document (``--file`` or stdin), which names its own group, and a document
that holds pairs next to mu, nu or rank.
String pairs are classified by ``classify_pairs``, which gives the verdict of
``classify`` on their parameter without extracting them again; a table row
is read off the staircase test and the doubled integers alone.
Rationals are serialized as strings like "3/2" to keep output exact.

Exit codes: 0 unitary, 3 non-unitary (or a module error: ``orbit`` on a core
that is not strict, ``verify-chain`` on pairs with no built-in script), 4 not
Hermitian or not genuine, 2 parse error, 141 standard output closed by its
reader (128 + SIGPIPE, the status a shell reports for ``yes | head -1``).
``classify --trace`` writes one JSON line per stage event of the
classification to standard error.
"""

import argparse
import functools
import json
import os
import sys
from operator import add, sub

from .halfint import frac, fmt, texts
from .weyl import GenuineParam, GroupTag
from .spinclass import (
    Status, StringPairs, Verdict, _eta_index, _pairs_form,
    classify, classify_pairs, enumerate_pairs, pairs_to_param, transcript, unitarity_test,
)
from . import intertwine, orbits, rewriter


class ParseError(ValueError):
    pass


def _string_pairs(family, xs: list, ys: list) -> StringPairs:
    """The pairs of the rows ``xs`` and ``ys``; StringPairs rejects a bad shape."""
    if len(xs) != len(ys):
        raise ParseError("x-row and y-row have different lengths")
    return StringPairs(family, tuple(zip(xs, ys)))


def _parse_pairs(text: str, family: str) -> StringPairs:
    try:  # a ValueError: not two rows, or an entry that is not an integer
        xs, ys = [[int(t) for t in row.replace(" ", ",").split(",") if t.strip()]
                  for row in text.split(";")]
    except ValueError:
        raise ParseError(f'--pairs {text!r} is not of the form "x1,..;y1,.."') from None
    try:
        pairs = _string_pairs(family, xs, ys)
    except ValueError as exc:  # the row lengths, or no string-pair shape
        raise ParseError(str(exc)) from None
    if not pairs.pairs:
        raise ParseError(f"pairs {text!r} have no columns")
    return pairs


def _json_int(value, what: str) -> int:
    """A JSON integer; booleans and floats are not silently converted."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def _json_list(value, what: str, items: str) -> list:
    """A JSON array; a string would be read one character at a time."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list of {items}")
    return value


_DOCUMENT_FORM = "a JSON object with group and either pairs: {x, y} or mu and nu"


def _json_field(obj, key: str, what: str, form: str):
    """The field ``key`` of ``what``, a JSON object of the form ``form``."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be {form}")
    if key not in obj:
        raise ParseError(f"{what} has no field {key}: it must be {form}")
    return obj[key]


def _json_row(doc: dict, key: str) -> list:
    row = _json_field(doc["pairs"], key, "pairs", "a JSON object {x: [...], y: [...]}")
    row = _json_list(row, f"pairs.{key}", "integers")
    return [_json_int(v, f"pairs.{key} entry") for v in row]


def _bounded(pairs: StringPairs, bound: int, command: str) -> StringPairs:
    """``pairs``, checked before ``command`` does any work on them."""
    if pairs.n > bound:
        raise ParseError(f"pairs of total size {pairs.n} exceed the bound {bound} of {command}")
    return pairs


def _pairs_input(pairs: StringPairs):
    """(parameter, pairs) of string-pair input to classify, which pads at
    most to n = rewriter.MAX_PADDED_N, so larger pairs are rejected first."""
    return pairs_to_param(_bounded(pairs, rewriter.MAX_PADDED_N, "classify")), pairs


def _param_from_document(doc):
    def field(key):
        return _json_field(doc, key, "the parameter document", _DOCUMENT_FORM)

    try:
        family = field("group")
        if "pairs" in doc:
            for second in ("mu", "nu", "rank"):
                if second in doc:
                    raise ParseError(f"the parameter document holds both pairs and {second}: "
                                     "give pairs, or mu and nu (with rank)")
            return _pairs_input(_string_pairs(family, _json_row(doc, "x"), _json_row(doc, "y")))
        mu = [frac(s) for s in _json_list(field("mu"), "mu", "rationals")]
        nu = [frac(s) for s in _json_list(field("nu"), "nu", "rationals")]
        rank = _json_int(doc["rank"], "rank") if "rank" in doc else len(mu)
        return GenuineParam(GroupTag(family, rank), tuple(mu), tuple(nu)), None
    except ParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise ParseError(f"invalid parameter document: {exc}") from None


def _one_source(args) -> None:
    """Reject classify options that give the parameter by two sources, or a
    --rank or --group that no --pairs or --mu/--nu reads."""
    given = [f"--{name}" for name in ("pairs", "mu", "nu", "file")
             if getattr(args, name) is not None]
    if args.rank is not None and args.mu is None and args.nu is None:
        first, second = ["--rank", *given, "a document on standard input"][:2]
    elif len(given) > 1 and given != ["--mu", "--nu"]:
        first, second = given[0], given[-1]
    elif args.group is not None and given in ([], ["--file"]):
        first, second = ["--group", *given, "a document on standard input"][:2]
    else:
        return
    raise ParseError(f"{first} and {second} cannot be given together: give --pairs, "
                     "or --mu and --nu (with --rank), or a document")


def _load_document(args):
    """The parameter to classify, and the string pairs it was built from
    (None when it was given by mu and nu)."""
    _one_source(args)
    family = args.group or "D"
    # an option given with an empty value is given: it fails to parse
    if args.pairs is not None:
        return _pairs_input(_parse_pairs(args.pairs, family))
    if args.mu is not None or args.nu is not None:
        if args.mu is None or args.nu is None:
            raise ParseError("--mu and --nu must be given together")
        try:
            mu = [frac(s) for s in args.mu.split(",")]
            nu = [frac(s) for s in args.nu.split(",")]
            if len(mu) != len(nu):
                raise ParseError("mu and nu have different lengths")
            rank = len(mu) if args.rank is None else args.rank
            return GenuineParam(GroupTag(family, rank), tuple(mu), tuple(nu)), None
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    try:
        if args.file is not None:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read the parameter document: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at position {exc.pos}: {exc.msg}") from None
    return _param_from_document(doc)


def _langlands_text(L: int, mu, nu) -> dict:
    """lambda_L = (nu+mu)/2 and lambda_R = (nu-mu)/2 as text, from the integer
    form (L, mu, nu): each entry is the shared text of k/2L."""
    return {"lambda_L": texts(2 * L, map(add, nu, mu)),
            "lambda_R": texts(2 * L, map(sub, nu, mu))}


def _verdict_document(p: GenuineParam, verdict: Verdict) -> dict:
    doc = {
        "status": verdict.status.value,
        "langlands": _langlands_text(*p.integer_form),
        "transcript": list(transcript(verdict)),
    }
    if verdict.witness is not None:
        doc["witness"] = {
            "eta_index": verdict.witness.q,
            "weight": [fmt(v) for v in verdict.witness.weight],
            "group": str(verdict.witness.group),
        }
    if verdict.certificate is not None:
        cert = verdict.certificate
        doc["certificate"] = {
            "stein_sizes": [f.a for f in cert.stein_factors],
            "gl_factors": [
                {"class": label, "kind": type(f).__name__, "size": f.a}
                for label, f in cert.gl_factors
            ],
            "core": str(cert.core) if cert.core else None,
            "orbit_columns": list(cert.orbit.cols) if cert.orbit else None,
            "orbit_dimension": orbits.orbit_dim(cert.orbit) if cert.orbit else None,
        }
    if verdict.normalized is not None:
        doc["inductions"] = [dx for dx, _ in verdict.normalized.moves]
    return doc


def _trace_record(event) -> dict:
    """A stage event as one --trace line: stage, outcome, its integer
    counters and its elapsed time."""
    counters = {name: v for name, v in event.fields().items() if type(v) is int}
    return {"stage": event.stage, "outcome": event.outcome, **counters,
            "elapsed_ns": event.elapsed_ns}


def cmd_classify(args) -> int:
    p, pairs = _load_document(args)
    verdict = classify(p) if pairs is None else classify_pairs(pairs)
    if args.trace:
        for event in verdict.chain:
            print(json.dumps(_trace_record(event)), file=sys.stderr)
    doc = _verdict_document(p, verdict)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"parameter: {p}")
        print(f"status: {doc['status']}")
        if "witness" in doc:
            w = doc["witness"]
            eta = f"eta({w['eta_index']})" if w["eta_index"] is not None else "lifted"
            print(f"witness: {eta} weight ({', '.join(w['weight'])})")
        if "certificate" in doc:
            cert = doc["certificate"]
            print(f"stein factor sizes: {cert['stein_sizes']}")
            if cert["core"]:
                print(f"core: {cert['core']}  orbit: {cert['orbit_columns']} "
                      f"dim {cert['orbit_dimension']}")
        for line in doc["transcript"]:
            print(f"  | {line}")
    if verdict.status is Status.UNITARY:
        return 0
    if verdict.status is Status.NON_UNITARY:
        return 3
    return 4


def _row_for(pairs: StringPairs):
    """A table row, from the staircase test and ``_pairs_form(pairs)``, the
    integer form of ``pairs_to_param(pairs)``: the calls the verdict of
    ``classify_pairs`` makes for its status, strictness and eta(q), without
    building the parameter, its stage events or a certificate."""
    result = unitarity_test(pairs)
    if result:
        tag, witness = ("Yes - unipotent" if result.strict else "Yes"), ""
    else:
        base = rewriter.normalize_to_base(pairs).base
        tag, witness = "No", f"eta({_eta_index(pairs.family, base)})"
    return {
        "pairs": str(pairs),
        **_langlands_text(*_pairs_form(pairs)),
        "verdict": tag,
        "witness": witness,
    }


# rows per +2 in n: x2.8-2.9 at n = 8, still x2.0 at n = 20 (D 13,602 and
# B 24,842 rows); table --rank 20 takes ~0.7 s (D) and ~1.6 s (B) in process,
# ~0.9 s and ~2.2 s with --json (fastest of 10 runs, Python 3.11, 2 CPUs)
MAX_TABLE_RANK = 20


def _table_pairs(args):
    if args.rank < 1:
        raise ParseError(f"--rank must be positive, not {args.rank}")
    if args.rank > MAX_TABLE_RANK:
        raise ParseError(f"--rank {args.rank} exceeds the table bound {MAX_TABLE_RANK}")
    return enumerate_pairs(args.group, args.rank)


def cmd_table(args) -> int:
    rows = [_row_for(pairs) for pairs in _table_pairs(args)]
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    width = max(len(r["pairs"]) for r in rows) + 2
    for r in rows:
        lam = "L=(" + ",".join(r["lambda_L"]) + ") R=(" + ",".join(r["lambda_R"]) + ")"
        witness = f"  {r['witness']}" if r["witness"] else ""
        print(f"{r['pairs']:<{width}} {r['verdict']:<16}{witness}  {lam}")
    return 0


def cmd_enumerate(args) -> int:
    for pairs in _table_pairs(args):
        print(pairs)
    return 0


def cmd_rewrite(args) -> int:
    pairs = _parse_pairs(args.pairs, args.group)
    steps, final = rewriter.full_staircase(pairs)
    if args.json:
        print(json.dumps({
            "sizes": [s.label for s in steps],
            "steps": [str(s) for s in steps],
            "final": str(final),
        }, indent=2))
        return 0
    for s in steps:
        print(s)
    print(f"induced sizes: {', '.join(str(s.label) for s in steps)}")
    print(f"final: {final}")
    return 0


def cmd_orbit(args) -> int:
    # the orbit's work grows linearly with n, so it takes classify's bound
    pairs = _bounded(_parse_pairs(args.pairs, args.group), rewriter.MAX_PADDED_N, "orbit")
    orbit = orbits.attach_orbit(pairs)
    dim = orbits.orbit_dim(orbit)
    doc = {
        "columns": list(orbit.cols),
        "ambient": orbit.ambient,
        "dimension": dim,
        "nilcone_dimension": orbits.nilcone_dim(orbit.ambient),
    }
    if pairs.family == "D":
        doc["codimension_identity"] = orbits.codim_identity_holds(pairs)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"orbit {orbit} of dimension {dim}")
        if "codimension_identity" in doc:
            print(f"codimension identity holds: {doc['codimension_identity']}")
    return 0


def cmd_verify_chain(args) -> int:
    pairs = _bounded(_parse_pairs(args.pairs, args.group), intertwine.MAX_SCRIPT_SIZE,
                     "verify-chain")
    parts = intertwine.build_case_script(args.group, pairs.pairs)
    reports = [intertwine.verify_chain(script, start) for _, start, script in parts]
    doc = [
        {
            "part": name,
            "start": [str(e) for e in start],
            "steps": [
                {
                    "move": rep.description,
                    "well_defined": rep.well_defined,
                    "injective": rep.injective,
                    "scalar": fmt(rep.scalar) if rep.scalar is not None else None,
                    "reason": rep.reason,
                }
                for rep in part_reports
            ],
        }
        for (name, start, _), part_reports in zip(parts, reports)
    ]
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    for part, part_reports in zip(doc, reports):
        print(f"[{part['part']}] start: " + " ".join(part["start"]))
        for step, rep in zip(part["steps"], part_reports):
            mark = "ok" if rep.ok else "FAIL"
            scalar = f"  scalar {step['scalar']}" if step["scalar"] is not None else ""
            reason = f"  ({step['reason']})" if step["reason"] else ""
            print(f"  {mark:<5} {step['move']}{scalar}{reason}")
    all_ok = all(rep.ok for part_reports in reports for rep in part_reports)
    print("all steps OK" if all_ok else "some steps are not certified")
    return 0


@functools.cache  # built on first use, shared by in-process main() calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindual",
        description="Unitarity of genuine representations of complex spin groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, pairs_only=False):
        sp.add_argument("--group", choices=("B", "D"), default="D")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--pairs", required=pairs_only, help='string pairs "x1,..;y1,.."')
        if not pairs_only:
            # argparse reads a value that starts with '-' as an option
            sp.add_argument("--mu", help="comma-separated rationals; a list that "
                            "starts with a minus needs the = form, --mu=-1/2,1/2")
            sp.add_argument("--nu", help="comma-separated rationals; a list that "
                            "starts with a minus needs the = form, --nu=-1,0")
            sp.add_argument("--rank", type=int)
            sp.add_argument("--file", help="JSON parameter document")

    sp = sub.add_parser("classify", help="classify one parameter")
    common(sp)
    sp.add_argument("--trace", action="store_true",
                    help="one JSON line per pipeline stage on standard error")
    # None, not D, so that a --group next to a document is seen
    sp.set_defaults(func=cmd_classify, group=None)

    sp = sub.add_parser("table", help="classification table for all pairs of a size")
    sp.add_argument("--group", choices=("B", "D"), default="D")
    sp.add_argument("--rank", type=int, required=True,
                    help=f"total size n of the pairs, 1 to {MAX_TABLE_RANK}")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("enumerate", help="list all string pairs of a size")
    sp.add_argument("--group", choices=("B", "D"), default="D")
    sp.add_argument("--rank", type=int, required=True,
                    help=f"total size n of the pairs, 1 to {MAX_TABLE_RANK}")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("rewrite", help="staircase rewriting transcript")
    common(sp, pairs_only=True)
    sp.set_defaults(func=cmd_rewrite)

    sp = sub.add_parser("orbit", help="attached nilpotent orbit of a strict core")
    common(sp, pairs_only=True)
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("verify-chain", help="replay a built-in reduction script")
    common(sp, pairs_only=True)
    sp.set_defaults(func=cmd_verify_chain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse before 3.12 drops a '--' value, so --rank=-- parses to []
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{name}: expected one argument")
    try:
        code = args.func(args)
        # a reader that closed the pipe early is found here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes standard output once more at exit: point
        # it at the null device so that flush neither fails nor reports
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (rewriter.PaddingBoundExceeded, orbits.NotStrictCore, intertwine.ScriptError) as exc:
        # padding past its bound is input too large; the other two are module errors
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, rewriter.PaddingBoundExceeded) else 3


if __name__ == "__main__":
    sys.exit(main())
