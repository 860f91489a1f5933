"""One implementation per job: each of these calls lives in one module."""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "microfold"


@pytest.mark.parametrize("needle, home", [
    ("fcntl.flock", "store.py"),          # the one lock helper
    ("create_connection", "transport.py"),  # the one HTTP GET
    (".get_derivation_bytes(", "derivation.py"),  # the one derivation loader
    ("_write_record(", "store.py"),       # store records are written once
    ("load_tree(", "carc.py"),            # trees on disk are streamed
    ('"drvs"', "store.py"),               # only the store knows db/drvs
])
def test_single_home(needle, home):
    assert (SRC / home).is_file()
    offenders = sorted(p.name for p in SRC.glob("*.py")
                       if p.name != home and needle in p.read_text())
    assert offenders == []


def test_no_dataclasses():
    """Value types are NamedTuples or plain classes: generating dataclass
    methods at import would cost every command tens of milliseconds."""
    assert sorted(p.name for p in SRC.glob("*.py") if "dataclass" in p.read_text()) == []
