"""Content identity: SHA-256 digests rendered as 64 lowercase hex chars."""

from __future__ import annotations

import hashlib
import re

from .errors import InvalidHash

HEX64 = re.compile(r"[0-9a-f]{64}")  # a digest: match it whole (fullmatch)

# Store path components carry the first 32 hex chars of a digest.
PREFIX_LEN = 32


class ContentHash:
    """A SHA-256 digest, the sole notion of identity in the system."""

    __slots__ = ("hex",)

    def __init__(self, hex: str):
        if not HEX64.fullmatch(hex):
            raise InvalidHash(f"not a 64-char lowercase hex digest: {hex!r}")
        self.hex = hex

    def __eq__(self, other):
        return isinstance(other, ContentHash) and self.hex == other.hex

    def __hash__(self):
        return hash(self.hex)

    def __repr__(self):
        return f"ContentHash(hex={self.hex!r})"

    @classmethod
    def of_bytes(cls, data: bytes) -> "ContentHash":
        return cls(hashlib.sha256(data).hexdigest())

    @classmethod
    def of_blocks(cls, blocks) -> "ContentHash":
        """The hash of the bytes of an iterable of blocks, read to its end."""
        sha = hashlib.sha256()
        for block in blocks:
            sha.update(block)
        return cls(sha.hexdigest())

    @property
    def prefix(self) -> str:
        return self.hex[:PREFIX_LEN]

    def __str__(self) -> str:
        return self.hex
