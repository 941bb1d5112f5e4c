"""Exception types shared across the package."""


class DoubleLambdaError(ValueError):
    """Base class for all domain errors raised by this package."""


class SingularSystem(DoubleLambdaError):
    """Steady state is underdetermined (lossless ground coherence, no controls)."""


class NonFinite(DoubleLambdaError):
    """An input or result overflowed or is not a finite number."""


class InvalidAlpha(DoubleLambdaError):
    """Optical density outside its valid range."""


class InvalidZbar(DoubleLambdaError):
    """Adiabatic length scale outside its valid range."""


class ProfileDomainMismatch(DoubleLambdaError):
    """Mixing-angle profile not defined on the requested propagation interval."""


class InvalidSearchSettings(DoubleLambdaError):
    """Settings of the direct search (segments, budget, starts, seed) or of
    the sampled dominance check (profile count, seed) out of range."""
