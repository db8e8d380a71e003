"""Exact-arithmetic degree-3 Jordan algebra laboratory.

Builds cubic norm structures via the first and second Tits constructions
over exact field towers (Q, prime fields, quadratic/cyclic-cubic etale
extensions), computes isotopes and verified automorphisms, and machine
checks every structural identity symbolically.
"""

from .errors import (
    AlbertLabError,
    ConfigError,
    DescentFailure,
    NonPrimeModulus,
    NotAdmissible,
    NotGaloisClosure,
    NotInvertible,
    NotIrreducible,
    NotSecondKind,
    NoVerifiedMap,
    TwistNotHermitian,
    VerificationFailure,
)

__version__ = "0.1.0"
