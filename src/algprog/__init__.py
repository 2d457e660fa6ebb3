"""Polynomial reformulation of optimization problems with radical expressions.

The pipeline: parse a radical expression (`radicals`), build its defining
polynomial by resultant elimination (`defpoly` on top of `polycore` and
`resultants`), certify which root of that polynomial the expression is
(`isolation`), and rewrite whole optimization problems (`program`).  The
`verify` module re-derives everything it checks from scratch — Sturm
sequences, exact sampling — so certificates never audit themselves.
"""

from .defpoly import DefiningPolynomial, defining_polynomial
from .isolation import (
    DomainSpec,
    IsolateConfig,
    IsolationCertificate,
    SignCondition,
    certificate_from_json,
    isolate,
    merge_components,
)
from .polycore import MultiPoly, VarRegistry
from .program import (
    AlgebraicProgram,
    PolynomialProgram,
    ReformulateConfig,
    ReformulationResult,
    baseline_reformulate,
    emit,
    extract_algebraic_parts,
    load_program,
    reformulate,
    result_from_json,
)
from .radicals import Expr, degree_bounds, parse, to_text
from .resultants import resultant
from .verify import (
    isolate_real_roots,
    verify_certificate,
    verify_defining,
)

__all__ = [
    "AlgebraicProgram",
    "DefiningPolynomial",
    "DomainSpec",
    "Expr",
    "IsolateConfig",
    "IsolationCertificate",
    "MultiPoly",
    "PolynomialProgram",
    "ReformulateConfig",
    "ReformulationResult",
    "SignCondition",
    "VarRegistry",
    "baseline_reformulate",
    "certificate_from_json",
    "defining_polynomial",
    "degree_bounds",
    "emit",
    "extract_algebraic_parts",
    "isolate",
    "isolate_real_roots",
    "load_program",
    "merge_components",
    "parse",
    "reformulate",
    "resultant",
    "result_from_json",
    "to_text",
    "verify_certificate",
    "verify_defining",
]

__version__ = "0.1.0"
