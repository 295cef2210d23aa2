"""The public names of the package, pinned: a name is added or removed on
purpose, with this list, not as a side effect."""

import ast
from pathlib import Path
from types import ModuleType

import spindual

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "CaseI", "CaseII", "CompParams", "DimensionError", "GLStatus", "GLVerdict",
    "GenuineParam", "GroupTag", "InductionStep", "LanglandsPair", "MalformedParameter",
    "NormalizedBase", "NotStrictCore", "OrbitColumns", "SpinRelevantKType", "StageEvent",
    "Status", "SteinPair", "StringPairs", "TrivialString", "UnitaryCertificate", "Verdict",
    "WeylElement", "apply", "attach_orbit", "classify", "classify_gl",
    "classify_gl_genuine_block", "classify_pairs", "codim_identity_holds", "comp_nu",
    "decompose_alpha_beta", "dominantize", "enumerate_pairs", "eta_weight", "extract_pairs",
    "full_staircase", "glclass", "halfint", "hermitian_dual", "hermitian_witness",
    "nilcone_dim", "normalize_to_base", "orbit_dim", "orbits", "pairs_to_param",
    "partition_nt", "peel_stein_factors", "rewriter", "rho", "spinclass", "staircase_slacks",
    "stringpairs", "to_langlands", "transcript", "unitarity_test", "weyl",
    "witness",
]


def test_public_names_are_pinned():
    assert sorted(spindual.__all__) == PUBLIC_NAMES


def _references(path: Path) -> set:
    """The names a file reads: every Name, Attribute and ImportFrom name, and
    every string constant that is an identifier (a patch named as a string)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_public_name_has_a_reader():
    # a public name must be read by the package, the benchmark, a demo or the
    # acceptance tests: one read only by its own tests is removed
    files = [p for p in (ROOT / "src" / "spindual").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*map(_references, files))
    public = [name for name in spindual.__all__
              if not isinstance(getattr(spindual, name), ModuleType)]
    assert [name for name in public if name not in read] == []


def test_every_private_helper_has_a_reader():
    # a top-level _name function or class must be read by the package, the
    # benchmark or a demo: one read only by tests is removed
    package = list((ROOT / "src" / "spindual").glob("*.py"))
    files = [*package, *(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    read = set().union(*map(_references, files))
    helpers = [node.name for path in package for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    assert [name for name in helpers if name not in read] == []
