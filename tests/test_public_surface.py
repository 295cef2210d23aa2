"""The public names of the package, pinned: a name is added or removed on
purpose, with this list, not as a side effect."""

import spindual

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
    "stringpairs", "to_langlands", "transcript", "transpose", "unitarity_test", "weyl",
    "witness",
]


def test_public_names_are_pinned():
    assert sorted(spindual.__all__) == PUBLIC_NAMES
