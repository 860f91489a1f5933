"""Cost counted, not timed: the file and process events an operation makes.

    with counting(store=store.root) as counts:
        Store(store.root).seeds()
    assert counts.where({"open-read"}, {"store"}) == 2

`counting` yields a `Counts`, a Counter keyed by (kind, root).  The kinds
are the audit events (PEP 578) that touch the file system or start a
process, plus "stream", one call of `transport.stream`, counted by wrapping
it.  The root is the one of the named directories that the event's path
lies under, the deepest first ("tmp" is the store's tmp), or "other".

One audit hook is installed when this module is imported.  A hook cannot
be removed, so it returns at once while no counter is open.  It sees every
thread of this process, but not a child process.
"""

import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager

from microfold import transport

_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND
# audit event -> (kind, index of the argument whose path names the root)
_EVENTS = {
    "os.mkdir": ("mkdir", 0),
    "os.rename": ("rename", 1),  # os.replace raises it too
    "os.link": ("link", 1),
    "os.symlink": ("symlink", 1),
    "os.remove": ("remove", 0),  # os.unlink raises it too
    "shutil.rmtree": ("rmtree", 0),
    "subprocess.Popen": ("popen", 2),  # its cwd
}
WRITES = frozenset({"open-write", "mkdir", "rename", "link", "symlink",
                    "remove", "rmtree"})

_lock = threading.Lock()
_open = None  # (Counts, [(root name, root path)], deepest first) while counting


class Counts(Counter):
    def under(self, roots) -> "Counts":
        """The counts of the events under any of roots."""
        return Counts({(kind, root): n for (kind, root), n in self.items()
                       if root in roots})

    def where(self, kinds, roots) -> int:
        """The number of events of any of kinds under any of roots."""
        return sum(n for (kind, _), n in self.under(roots).items() if kind in kinds)


def _root(path, roots) -> str:
    if isinstance(path, int) or path is None:
        return "other"
    path = os.path.abspath(os.fsdecode(path))
    for name, root in roots:
        if path == root or path.startswith(root + os.sep):
            return name
    return "other"


def _count(state, kind, path):
    counts, roots = state
    root = _root(path, roots)
    with _lock:
        counts[kind, root] += 1


def _hook(event, args):
    state = _open  # read once: another thread may close the counter
    if state is None:
        return
    if event == "open":
        _count(state, "open-write" if args[2] & _WRITE_FLAGS else "open-read", args[0])
    elif event in _EVENTS:
        kind, at = _EVENTS[event]
        _count(state, kind, args[at])


sys.addaudithook(_hook)


@contextmanager
def counting(store=None, archive=None, channel=None, profile=None):
    """Count the events of the body under these roots; yields the Counts."""
    global _open
    assert _open is None, "counters do not nest"
    named = {"store": store, "tmp": store and os.path.join(store, "tmp"),
             "archive": archive, "channel": channel, "profile": profile}
    roots = sorted(((name, os.path.abspath(os.fspath(root)))
                    for name, root in named.items() if root is not None),
                   key=lambda r: -len(r[1]))
    state, real = (Counts(), roots), transport.stream

    def stream(location, *args):
        _count(state, "stream", None if transport.is_url(str(location)) else location)
        return real(location, *args)
    transport.stream = stream
    _open = state
    try:
        yield state[0]
    finally:
        _open = None
        transport.stream = real
