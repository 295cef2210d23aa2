"""Exact classification of genuine unitary representations of complex spin groups.

The public surface: parameters and Weyl actions (:mod:`spindual.weyl`), the
GL building blocks (:mod:`spindual.glclass`), the classification core
(:mod:`spindual.spinclass`), rewriting by complementary-series induction
(:mod:`spindual.rewriter`), attached nilpotent orbits (:mod:`spindual.orbits`)
and intertwining-operator scalars and predicates (:mod:`spindual.intertwine`).
"""

from .weyl import (
    DimensionError, GenuineParam, GroupTag, LanglandsPair, WeylElement,
    apply, dominantize, hermitian_dual, hermitian_witness, rho, to_langlands,
)
from .glclass import (
    CompParams, GLStatus, GLVerdict, SteinPair, TrivialString, classify_gl,
    classify_gl_genuine_block, comp_nu,
)
from .spinclass import (
    MalformedParameter, SpinRelevantKType, StageEvent, Status, StringPairs,
    UnitaryCertificate, Verdict, classify, classify_pairs, decompose_alpha_beta,
    enumerate_pairs, eta_weight, extract_pairs, pairs_to_param, partition_nt,
    peel_stein_factors, staircase_slacks, transcript, unitarity_test, witness,
)
from .rewriter import (
    CaseI, CaseII, InductionStep, NormalizedBase, full_staircase,
    normalize_to_base,
)
from .orbits import (
    NotStrictCore, OrbitColumns, attach_orbit, codim_identity_holds,
    nilcone_dim, orbit_dim, transpose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
