"""Exception hierarchy for microfold.

Every error carries enough context to be printed as a one-line diagnostic.
The CLI maps each class onto a stable exit code (see cli.EXIT_CODES).
"""


class MicrofoldError(Exception):
    """Base class for all microfold errors."""


# --- store ---------------------------------------------------------------

class InvalidLabel(MicrofoldError):
    """A store label or path component breaks its rule (store.LABEL_RE)."""


class InvalidHash(MicrofoldError):
    """Text does not parse as a 64-char lowercase hex digest."""


class UnsupportedNode(MicrofoldError):
    """A file tree contains something other than file/dir/symlink."""


class StoreCorruption(MicrofoldError):
    """A store path disagrees with its recorded hash, or a state file is damaged."""


class DanglingReference(MicrofoldError):
    """A recorded reference points at a path missing from the store."""


# --- derivation / build --------------------------------------------------

class InvariantViolation(MicrofoldError):
    """A Derivation value violates its structural invariants."""


class StepFailure(MicrofoldError):
    """Step `index` of the derivation labelled `label` failed."""

    def __init__(self, index, label, detail):
        super().__init__(f"step {index} of {label}: {detail}")
        self.index = index
        self.label = label
        self.detail = detail


class EscapedClosure(MicrofoldError):
    """An exec program does not resolve inside the input closure or seeds."""


class OutputCollision(MicrofoldError):
    """Output path already exists with a different output hash."""


class SourceUnavailable(MicrofoldError):
    """Both the upstream URL and the archive failed to provide a source."""

    def __init__(self, legs):
        super().__init__("; ".join(legs))
        self.legs = legs


# --- channel -------------------------------------------------------------

class DuplicatePackage(MicrofoldError):
    pass


class UnknownParent(MicrofoldError):
    pass


class UnknownRevision(MicrofoldError):
    pass


class UnreachableRemote(MicrofoldError):
    pass


class CorruptRevision(MicrofoldError):
    """Transferred revision or object bytes do not hash to their id."""


class NoHead(MicrofoldError):
    pass


# --- parsing -------------------------------------------------------------

class ParseError(MicrofoldError):
    """Syntax error in a manifest, pin file, or serialized value."""

    def __init__(self, detail, position=None):
        at = f" at {position}" if position is not None else ""
        super().__init__(f"{detail}{at}")
        self.position = position
        self.detail = detail


class UnsupportedForm(ParseError):
    """A Scheme construct outside the supported declarative subset."""


class BadCommit(ParseError):
    """A pin commit is not a 64-char hex revision id."""


class DuplicateSpec(ParseError):
    pass


class EmptyName(ParseError):
    pass


class EmptyVersion(ParseError):
    pass


# --- resolution ----------------------------------------------------------

class UnknownPackage(MicrofoldError):
    pass


class UnknownVersion(MicrofoldError):
    pass


class DependencyCycle(MicrofoldError):
    def __init__(self, chain):
        super().__init__(" -> ".join(map(str, chain)))
        self.chain = list(chain)


class ReplacementCycle(MicrofoldError):
    pass


# --- profile -------------------------------------------------------------

class ProfileCollision(MicrofoldError):
    def __init__(self, path, provider1, provider2):
        super().__init__(f"{path}: provided by both {provider1} and {provider2}")
        self.path = path
        self.provider1 = provider1
        self.provider2 = provider2


class UnknownGeneration(MicrofoldError):
    pass


# --- substitute / archive ------------------------------------------------

class CorruptItem(MicrofoldError):
    pass


class CacheWriteError(MicrofoldError):
    pass


class SubstituteNotFound(MicrofoldError):
    pass


class AllProvidersCorrupt(MicrofoldError):
    pass


class ArchiveWriteError(MicrofoldError):
    pass
