"""Exception types shared across the package."""


class GreedyratError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # Pickle args and attributes without calling __init__ again: the
        # subclasses' __init__ take z, not their message, and an error made
        # in a worker process (greedyrat.parallel) must arrive unchanged.
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls, args, state):
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class ResonanceError(GreedyratError):
    """The pencil z*E - A is (numerically) singular at the queried frequency."""

    def __init__(self, z, message=None):
        self.z = z
        super().__init__(message or f"pencil z*E - A is singular at z = {z}")


class SurrogatePoleError(GreedyratError):
    """The barycentric denominator vanishes at a non-support frequency."""

    def __init__(self, z):
        self.z = z
        super().__init__(f"surrogate has a pole at z = {z}")


class SupportCollisionError(GreedyratError):
    """A frequency coincides with a support point where the request is undefined."""

    def __init__(self, z):
        self.z = z
        super().__init__(f"frequency z = {z} collides with a support point")


class GridExhaustedError(GreedyratError):
    """Every test-grid point has already been sampled or excluded."""
