"""Exception hierarchy for microfold.

Every error carries enough context to be printed as a one-line diagnostic.
Each class declares the stable exit code the CLI returns for it: 1 user
error, 2 verification failure, 3 environment/IO failure.  A class exists
only when code tells it apart: some code catches it by name, it carries
fields, or it exits with its own code.
"""


class MicrofoldError(Exception):
    """Base class for all microfold errors."""

    exit_code = 1


# --- store ---------------------------------------------------------------

class InvalidLabel(MicrofoldError):
    """A store label or path component breaks its rule (store.LABEL_RE)."""


class InvalidHash(MicrofoldError):
    """Text does not parse as a 64-char lowercase hex digest."""


class StoreCorruption(MicrofoldError):
    """A store path disagrees with its recorded hash, or a state file is damaged."""

    exit_code = 2


class DanglingReference(MicrofoldError):
    """A recorded reference points at a path missing from the store."""


# --- derivation / build --------------------------------------------------

class InvariantViolation(MicrofoldError):
    """A Derivation value violates its structural invariants."""


class StepFailure(MicrofoldError):
    """Step `index` of the derivation labelled `label` failed."""

    exit_code = 3

    def __init__(self, index, label, detail):
        super().__init__(f"step {index} of {label}: {detail}")
        self.index = index
        self.label = label
        self.detail = detail


class EscapedClosure(MicrofoldError):
    """An exec program does not resolve inside the input closure or seeds."""


class OutputCollision(MicrofoldError):
    """Output path already exists with a different output hash."""

    exit_code = 2


class SourceUnavailable(MicrofoldError):
    """Both the upstream URL and the archive failed to provide a source."""

    exit_code = 3

    def __init__(self, legs):
        super().__init__("; ".join(legs))
        self.legs = legs


# --- channel -------------------------------------------------------------

class UnreachableRemote(MicrofoldError):
    exit_code = 3


class CorruptRevision(MicrofoldError):
    """Transferred revision or object bytes do not hash to their id."""

    exit_code = 2


# --- parsing -------------------------------------------------------------

class ParseError(MicrofoldError):
    """Syntax error in a manifest, pin file, or serialized value."""

    def __init__(self, detail, position=None):
        at = f" at {position}" if position is not None else ""
        super().__init__(f"{detail}{at}")
        self.position = position
        self.detail = detail


# --- resolution ----------------------------------------------------------

class DependencyCycle(MicrofoldError):
    def __init__(self, chain):
        super().__init__("dependency cycle: " + " -> ".join(map(str, chain)))
        self.chain = list(chain)


# --- profile -------------------------------------------------------------

class ProfileCollision(MicrofoldError):
    def __init__(self, path, provider1, provider2):
        super().__init__(f"{path}: provided by both {provider1} and {provider2}")
        self.path = path
        self.provider1 = provider1
        self.provider2 = provider2


# --- substitute / archive ------------------------------------------------

class CorruptItem(MicrofoldError):
    exit_code = 2


class CacheWriteError(MicrofoldError):
    exit_code = 3


class SubstituteNotFound(MicrofoldError):
    exit_code = 3


class AllProvidersCorrupt(MicrofoldError):
    exit_code = 2


class ArchiveWriteError(MicrofoldError):
    exit_code = 3
