"""Exact arithmetic on a truncated formal disk in characteristic p.

The package computes with connections and twisted endomorphisms over
F_{p^k}[[z]] / z^N: the p-fold composite of a connection, its
characteristic data and their descent along the p-th power map, the
scalar descent operator with its obstruction theory, and the two-way
construction linking flat connections with descended eigenvalue data.

Everything is exact; reported precisions are sharp and every failure
carries a structured certificate.
"""

from .backend import BACKEND
from .cartier import cartier_op, flat_matrix_section, hp_map, kernel_unit, solve_hp
from .connection import Connection, FHiggs, check_horizontality, dlog, gauge, pcurv
from .errors import (
    BaseMismatch,
    CurvatureNonzero,
    CurvatureNotCancelled,
    DerivationUnavailable,
    DimensionMismatch,
    FieldMismatch,
    InsufficientPrecision,
    InternalInconsistency,
    NonSplitResidue,
    NonUnit,
    NonUnitConstantTerm,
    NonzeroPCurvature,
    NotAPthPower,
    PdiskError,
    RankTooLarge,
    RepeatedResidueRoot,
    SchemaError,
    SingularGauge,
    VarMismatch,
    ZeroPrecision,
)
from .field import FieldSpec
from .harmonic import (
    CorrespondencePackage,
    HarmonicDatum,
    cinv,
    cmap,
    inverse,
    pcurv_in_ring,
    solve_harmonic,
    torsor_difference,
)
from .hitchin import (
    InvariantTuple,
    char_invariants,
    companion_section,
    descend_invariants,
    phitchin,
)
from .matrix import SeriesMatrix
from .rng import SplitMix64
from .series import TruncSeries, VAR_DISK, VAR_TWIST
from .spectral import EigenData, SpectralElement, SpectralRing, hensel_eigen
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BaseMismatch",
    "Connection",
    "CorrespondencePackage",
    "CurvatureNonzero",
    "CurvatureNotCancelled",
    "DerivationUnavailable",
    "DimensionMismatch",
    "EigenData",
    "FHiggs",
    "FieldMismatch",
    "FieldSpec",
    "HarmonicDatum",
    "InsufficientPrecision",
    "InternalInconsistency",
    "InvariantTuple",
    "NonSplitResidue",
    "NonUnit",
    "NonUnitConstantTerm",
    "NonzeroPCurvature",
    "NotAPthPower",
    "PdiskError",
    "RankTooLarge",
    "RepeatedResidueRoot",
    "SchemaError",
    "SeriesMatrix",
    "SingularGauge",
    "SpectralElement",
    "SpectralRing",
    "SplitMix64",
    "TruncSeries",
    "VAR_DISK",
    "VAR_TWIST",
    "VarMismatch",
    "ZeroPrecision",
    "cartier_op",
    "char_invariants",
    "check_horizontality",
    "cinv",
    "cmap",
    "companion_section",
    "descend_invariants",
    "dlog",
    "flat_matrix_section",
    "gauge",
    "hensel_eigen",
    "hp_map",
    "inverse",
    "kernel_unit",
    "pcurv",
    "pcurv_in_ring",
    "phitchin",
    "run_suite",
    "solve_harmonic",
    "solve_hp",
    "torsor_difference",
    "__version__",
]
