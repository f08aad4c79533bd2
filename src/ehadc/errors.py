"""Exception types shared across the package."""


class ConfigError(Exception):
    """Raised for malformed or inconsistent configuration input.

    Carries an optional file path and 1-based line number so command-line
    messages can point at the offending line.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.message = message
        self.path = path
        self.line = line
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.path is not None and self.line is not None:
            return f"{self.path}:{self.line}: {self.message}"
        if self.path is not None:
            return f"{self.path}: {self.message}"
        return self.message


class ValidationError(Exception):
    """Raised when a scenario violates a cross-parameter constraint."""


class NotConverged(Exception):
    """Raised when a transient run is too short to define steady-state metrics."""
