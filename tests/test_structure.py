"""One implementation per job: each of these calls lives in one module."""

import ast
from pathlib import Path

import pytest

from microfold import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "microfold"


@pytest.mark.parametrize("needle, home", [
    ("fcntl.flock", "store.py"),          # the one lock helper
    ("create_connection", "transport.py"),  # the one HTTP GET
    (".get_derivation_bytes(", "derivation.py"),  # the one derivation loader
    ("canonical_serialize(", "derivation.py"),  # derivations enter the store
    (".put_derivation(", "derivation.py"),     # one way: register_derivation
    ("_write_record(", "store.py"),       # store records are written once
    ("load_tree(", "carc.py"),            # trees on disk are streamed
    ('"drvs"', "store.py"),               # only the store knows db/drvs
    ('"seeds"', "store.py"),              # only the store knows db/seeds
    ("Thread(", "builder.py"),            # the one build scheduler
    ("heapq", "builder.py"),              # and the program's only heap
    ("os.link(", "carc.py"),              # one link helper shares inodes
    ("quote_string(", "sexpr.py"),        # the one s-expression writer
    ('b"("', "sexpr.py"),                 # no form is joined by hand
    ("MAGIC +", "carc.py"),               # one single-file archive encoder
    ('"outputhash"', "store.py"),         # one item record codec
    ('"storepath"', "substitute.py"),     # a cache's info names its item
    (".head()", "channel.py"),            # commands reach HEAD through pin()
    ("[0-9a-f]{64}", "hashing.py"),       # one digest rule
    ("0123456789abcdef", "hashing.py"),   # and no hex test by hand
    ("[0-9a-f]{32}", "store.py"),         # one path component rule
    ("A-Za-z0-9._+-", "store.py"),        # one label rule
    ("drv_hash.prefix", "derivation.py"),  # one output path: output_path
    (".prefix}-", "derivation.py"),       # one source path: source_path
])
def test_single_home(needle, home):
    assert (SRC / home).is_file()
    offenders = sorted(p.name for p in SRC.glob("*.py")
                       if p.name != home and needle in p.read_text())
    assert offenders == []


def test_one_carc_encoder():
    """Trees are encoded only by streaming them from disk; the in-memory
    model is the tests' reference (tests/carc_model.py), not the program's."""
    needles = ("serialize_tree", "serialize_bytes", "class File", "class Dir",
               "class Symlink")
    assert sorted((p.name, n) for p in SRC.glob("*.py") for n in needles
                  if n in p.read_text()) == []


def test_builder_has_one_file_writer():
    """Steps write files through one writer, which replaces what is there
    instead of writing through a file that a store item may share."""
    assert (SRC / "builder.py").read_text().count("write_bytes(") == 1


def test_no_dataclasses():
    """Value types are NamedTuples or plain classes: generating dataclass
    methods at import would cost every command tens of milliseconds."""
    assert sorted(p.name for p in SRC.glob("*.py") if "dataclass" in p.read_text()) == []


def _recursive_functions(source: str) -> set:
    """The functions of a module (methods and nested functions too, by
    name) that reach themselves by calling or naming functions of the
    module (`self.f` or `cls.f` for a method)."""
    defs = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    uses = {name: {n.id if isinstance(n, ast.Name) else n.attr
                   for fn in fns for n in ast.walk(fn)
                   if isinstance(n, ast.Name) and n.id in defs
                   or isinstance(n, ast.Attribute) and n.attr in defs
                   and isinstance(n.value, ast.Name)
                   and n.value.id in ("self", "cls")}
            for name, fns in defs.items()}
    found = set()
    for name in defs:
        reached, todo = set(), list(uses[name])
        while todo:
            n = todo.pop()
            if n not in reached:
                reached.add(n)
                todo.extend(uses[n])
        if name in reached:
            found.add(name)
    return found


def test_graph_walks_keep_their_own_stack():
    """A graph of any depth is walked with an explicit stack (store.postorder
    or a worklist), never by recursion, and no module raises Python's
    recursion limit.  The exceptions walk trees that carc.MAX_DEPTH bounds,
    or, for unparse, forms whose shapes the program's writers fix."""
    bounded = {"carc.walk", "carc.link", "profile._merge", "sexpr.unparse"}
    recursive = {f"{p.stem}.{name}" for p in SRC.glob("*.py")
                 for name in _recursive_functions(p.read_text())}
    assert recursive == bounded
    assert [p.name for p in SRC.glob("*.py")
            if "setrecursionlimit" in p.read_text()] == []


def test_items_enter_by_one_door():
    """Every tree that is fetched, built or restored enters the store by
    Store.register_output; add_fixed, which copies a path in and passes it
    on, serves only seeds."""
    assert sorted(p.name for p in SRC.glob("*.py") if "add_fixed(" in p.read_text()) == [
        "bootstrap.py", "store.py"]


def test_every_error_is_raised():
    """An error class that no module raises is dead code: every class in
    errors.py is raised somewhere else in the program."""
    classes = ast.parse((SRC / "errors.py").read_text()).body
    others = "".join(p.read_text() for p in SRC.glob("*.py") if p.name != "errors.py")
    assert [c.name for c in classes if isinstance(c, ast.ClassDef)
            and f"raise {c.name}(" not in others] == []


def _opens_to_read(node) -> bool:
    """node is a call of the builtin open whose mode does not write."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    return not any("w" in m.value for m in modes)


def test_small_state_files_have_one_reader():
    """Small state files are read only through store.read_state, which
    decodes strict UTF-8 and turns a damaged file into its owner's error:
    no module reads a file as text, or opens one to read, by itself
    (transport.stream opens the entries it streams)."""
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert [name for name, text in sources.items() if ".read_text(" in text] == []
    assert sorted(name for name, text in sources.items()
                  if any(map(_opens_to_read, ast.walk(ast.parse(text))))) == [
        "store.py", "transport.py"]


def test_no_handler_catches_every_error():
    """No `except Exception` and no bare `except:`: run_command maps each
    error it knows to an exit code, and a defect it does not know ends in a
    traceback, where it is seen."""
    def catches_all(handler):
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(t is None or isinstance(t, ast.Name) and t.id == "Exception"
                   for t in types)

    assert sorted(p.name for p in SRC.glob("*.py")
                  for node in ast.walk(ast.parse(p.read_text()))
                  if isinstance(node, ast.ExceptHandler) and catches_all(node)) == []


def _error_classes() -> dict:
    return {name: c for name, c in vars(errors).items()
            if isinstance(c, type) and issubclass(c, errors.MicrofoldError)}


def test_cli_names_no_other_error_class():
    """Each error class declares its exit code, so cli.py keeps no table of
    classes: it names only the two it catches and raises."""
    tree = ast.parse((SRC / "cli.py").read_text())
    named = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
             | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
             | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for a in n.names})
    assert sorted(named & set(_error_classes())) == ["MicrofoldError", "ParseError"]


def test_every_error_class_is_told_apart():
    """A class other than MicrofoldError is caught by name somewhere in the
    program, carries fields (its own __init__), or exits with a code other
    than its base's; one that is told apart only by tests is a message, and
    raises its base class instead."""
    caught = {n.id for p in SRC.glob("*.py") for h in ast.walk(ast.parse(p.read_text()))
              if isinstance(h, ast.ExceptHandler) and h.type is not None
              for n in ast.walk(h.type) if isinstance(n, ast.Name)}
    assert [name for name, c in _error_classes().items()
            if c is not errors.MicrofoldError and name not in caught
            and "__init__" not in vars(c) and c.exit_code == c.__base__.exit_code] == []
