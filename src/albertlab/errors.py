"""Exception hierarchy for the whole package."""


class AlbertLabError(Exception):
    """Base class for all package errors."""


class ConfigError(AlbertLabError):
    """Malformed configuration or descriptor (CLI exit code 2)."""


class VerificationFailure(AlbertLabError):
    """A machine check that must hold failed (CLI exit code 1)."""


# field tower errors

class NonPrimeModulus(ConfigError):
    pass


class NotIrreducible(ConfigError):
    pass


class NotGaloisClosure(ConfigError):
    """f(rho(alpha)) is not 0 mod f, or rho does not generate Gal(L/k)."""


class LevelMismatch(AlbertLabError):
    """The extension has no automorphism of the name the caller gave."""


# associative algebra errors

class DescentFailure(AlbertLabError):
    """A value that must lie in a subfield failed the descent check."""


class NotSecondKind(ConfigError):
    pass


class TwistNotHermitian(ConfigError):
    pass


class NotInvertible(AlbertLabError):
    pass


# Tits construction errors

class ZeroLambda(ConfigError):
    pass


class NotAdmissible(ConfigError):
    """(u, mu) fails N_B(u) = mu * bar(mu)."""


class NoVerifiedMap(VerificationFailure):
    """A closed-form isomorphism failed the norm-pullback certificate."""


# isotope and Galois errors

class SingularMap(ConfigError):
    pass


class NormConditionFailed(ConfigError):
    pass
