"""Self-test of the benchmark: the checker rejects wrong outputs, and every
workload generator gives the same inputs for the same seed.

    python3 bench/selftest.py

Exits 0 when every wrong output was rejected and every generator repeated,
1 otherwise.  ``run.py`` runs :func:`checker_rejections` before it measures.
"""

import copy
import dataclasses
import sys

import checker
import workloads


def _forced(obj, **fields):
    """A copy of a frozen dataclass with fields overwritten unchecked."""
    out = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def checker_rejections(sd) -> list:
    """Feed the checker right outputs and deliberately wrong ones.

    Returns a list of problems: a right output rejected, or a wrong one
    accepted.  An empty list means the checker works.
    """
    sc = sd.spinclass
    problems = []

    def verdict(fam, cols):
        return sc.classify(sc.pairs_to_param(sc.StringPairs(fam, cols)))

    def must(label, accept, fn, *args):
        try:
            fn(*args)
            accepted = True
        except checker.CheckFailure:
            accepted = False
        if accepted != accept:
            problems.append(f"{label}: {'rejected' if accept else 'accepted'}")

    check = checker.check_string_pair_verdict
    unitary = ("D", ((4, 0),))
    nonunitary = ("D", ((1, 3),))
    padded = ("D", ((3, 0), (2, 0), (2, 0)))   # two inductions before the base
    for fam, cols in (unitary, nonunitary, padded):
        must(f"{fam} {cols} as classified", True, check, fam, cols, verdict(fam, cols))

    v = verdict(*unitary)
    must("Unitary flipped to NonUnitary", False, check, *unitary,
         _forced(v, status=sc.Status.NON_UNITARY))
    v = verdict(*nonunitary)
    must("NonUnitary flipped to Unitary", False, check, *nonunitary,
         _forced(v, status=sc.Status.UNITARY))

    for fam, cols in (nonunitary, padded):
        v = verdict(fam, cols)
        q, weight = v.witness.q, v.witness.weight
        m = len(weight)
        shifted = checker.eta_weight(fam, m, q + 1)
        must(f"{cols}: witness q + 1 with its own weight", False, check, fam, cols,
             dataclasses.replace(v, witness=sc.SpinRelevantKType(q + 1, shifted)))
        must(f"{cols}: witness q + 1 on the old weight", False, check, fam, cols,
             dataclasses.replace(v, witness=sc.SpinRelevantKType(q + 1, weight)))

    v = verdict(*padded)
    steps = list(v.normalized.steps)
    wrong = steps[1].after
    steps[0] = dataclasses.replace(steps[0], after=wrong)
    normal = dataclasses.replace(v.normalized, steps=tuple(steps))
    must("an induction step with a wrong after", False, check, *padded,
         dataclasses.replace(v, normalized=normal))
    first = v.normalized.steps[0]
    x, y = first.after.pairs[0]
    bumped = sc.StringPairs("D", ((x + 1, y),) + first.after.pairs[1:])
    steps = (dataclasses.replace(first, after=bumped),) + v.normalized.steps[1:]
    must("an induction step with a bumped column", False, check, *padded,
         dataclasses.replace(v, normalized=dataclasses.replace(v.normalized, steps=steps)))

    v = verdict("D", ((5, 1),))
    cert = v.certificate
    must("a certificate with an extra shift-1/2 factor", False, checker.check_certificate,
         "D", 6, _forced(cert, stein_factors=(sc.CompParams(1, checker.HALF),)))

    code, text = workloads.cli_call(sd, ["table", "--group", "D", "--rank", "4", "--json"])
    must("the D 4 table", True, checker.check_table, "D", 4, code, text)
    must("the D 4 table with a row flipped", False, checker.check_table, "D", 4, code,
         text.replace('"Yes - unipotent"', '"Yes"', 1))
    code, text = workloads.cli_call(sd, ["verify-chain", "--group", "D", "--pairs", "4;2"])
    must("verify-chain (4; 2)", True, checker.check_verify_chain, 4, 2, code, text)
    must("verify-chain (4; 2) read as (3; 2)", False, checker.check_verify_chain, 3, 2,
         code, text)
    code, text = workloads.cli_call(sd, ["rewrite", "--group", "D", "--pairs", "5,4,4;2,2,0", "--json"])
    cols = ((5, 2), (4, 2), (4, 0))
    must("rewrite (5 4 4; 2 2 0)", True, checker.check_rewrite_json, cols, code, text)
    must("rewrite with a wrong after", False, checker.check_rewrite_json, cols, code,
         text.replace("--3--> (5 4 4 3; 3 2 2 0)", "--3--> (5 4 4 3; 3 3 2 0)", 1))

    fam, mu, nu = workloads.mixed_param(workloads._rng("selftest", 0), 0)
    p = sd.weyl.GenuineParam(sd.weyl.GroupTag(fam, len(mu)), mu, nu)
    v = sc.classify(p)
    other = "Unitary" if v.status.value == "NonUnitary" else "NonUnitary"
    must("a mixed verdict", True, checker.check_mixed_verdict, fam, mu, v,
         (v.status.value, v.status.value))
    must("a mixed status that changes under duality", False, checker.check_mixed_verdict,
         fam, mu, v, (other, v.status.value))
    return problems


def generator_repeats(sd, seeds=(1, 2)) -> list:
    """Each generator gives equal inputs for equal seeds and, where a seed
    draws inputs, different inputs for different seeds."""
    problems = []
    for name, w in workloads.WORKLOADS.items():
        a, b = w.generate(sd, seeds[0]), w.generate(sd, seeds[0])
        if a != b:
            problems.append(f"{name}: seed {seeds[0]} gave two different inputs")
        if w.generate(sd, seeds[1]) == a:
            problems.append(f"{name}: seeds {seeds} gave the same inputs")
    return problems


def main() -> int:
    from run import import_spindual
    sd = import_spindual()
    problems = checker_rejections(sd) + generator_repeats(sd)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
