import string
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from microfold import carc, derivation as d
from microfold.channel import PackageDef
from microfold.derivation import canonical_serialize, load_derivation, parse_derivation
from microfold.errors import DependencyCycle, InvariantViolation, MicrofoldError, ParseError
from microfold.hashing import ContentHash
from microfold.manifest import (Instantiator, Manifest, Spec, instantiate,
                                parse_manifest, parse_spec, resolve_spec,
                                rewrite_inputs, version_key)

from conftest import build_hash, fixture_packages, fixture_packages_v2

REFERENCE_MANIFEST = """(specifications->manifest
 '("python"
   "python-scipy"
   "python-numpy"))
"""


# -- parsing ---------------------------------------------------------------

def test_reference_manifest_parses():
    m = parse_manifest(REFERENCE_MANIFEST)
    assert [s.render() for s in m.specs] == ["python", "python-scipy",
                                             "python-numpy"]


def test_manifest_render_round_trips():
    m = Manifest([Spec("python"), Spec("gcc", "12.2")])
    assert parse_manifest(m.render()) == m


def test_manifest_comments_ignored():
    text = "; environment\n(specifications->manifest '(\"a\")) ; trailing\n"
    assert parse_manifest(text).specs == [Spec("a")]


def test_unsupported_forms_rejected():
    for bad, what in [("(packages->manifest (list python))", "unsupported form"),
                      ("(specifications->manifest (list \"a\"))", "quoted list"),
                      ("(specifications->manifest '(\"a\") '(\"b\"))", "quoted list"),
                      ("(specifications->manifest '(x))", "must be strings"),
                      ("\"just a string\"", "must be a")]:
        with pytest.raises(ParseError, match=what):
            parse_manifest(bad)


def test_duplicate_specs_rejected():
    with pytest.raises(ParseError, match="duplicate spec a"):
        parse_manifest("(specifications->manifest '(\"a\" \"a\"))")


def test_spec_parsing():
    assert parse_spec("gcc") == Spec("gcc")
    assert parse_spec("gcc@12.2") == Spec("gcc", "12.2")
    assert parse_spec("lib@weird@2") == Spec("lib@weird", "2")
    with pytest.raises(ParseError, match="empty name"):
        parse_spec("@2")
    with pytest.raises(ParseError, match="empty version"):
        parse_spec("gcc@")
    with pytest.raises(ParseError, match="empty spec"):
        parse_spec("")


# -- version ordering ------------------------------------------------------

def test_version_comparisons():
    assert version_key("1.9") < version_key("1.10")  # numeric, not lexicographic
    assert version_key("1.10") > version_key("1.9")
    assert version_key("2.0") == version_key("2.0")
    assert version_key("1.0") < version_key("1.0.1")  # shorter prefix loses
    assert version_key("1.0a") < version_key("1.0b")  # bytewise when non-numeric
    assert version_key("1.a") != version_key("1.10")


version_part = st.text(alphabet=string.ascii_lowercase + string.digits,
                       min_size=1, max_size=4)
versions = st.lists(version_part, min_size=1, max_size=4).map(".".join)


@given(versions, versions, versions)
@example("2", "10", "1a")
@example("01", "1", "1")
def test_version_order_is_total_and_transitive(a, b, c):
    ka, kb = version_key(a), version_key(b)
    assert (ka < kb) == (kb > ka) and (ka == kb) == (kb == ka)
    assert version_key(a) == version_key(a)
    trio = sorted([a, b, c], key=version_key)
    assert version_key(trio[0]) <= version_key(trio[1])
    assert version_key(trio[1]) <= version_key(trio[2])
    assert version_key(trio[0]) <= version_key(trio[2])


# -- resolution ------------------------------------------------------------

def _pkgset(*defs):
    return {p.key: p for p in defs}


def test_resolve_picks_highest_version():
    pkgs = _pkgset(PackageDef(name="z", version="1.9"),
                   PackageDef(name="z", version="1.10"),
                   PackageDef(name="z", version="1.2"))
    assert resolve_spec(Spec("z"), pkgs).version == "1.10"
    assert resolve_spec(Spec("z", "1.2"), pkgs).version == "1.2"


def test_resolve_errors():
    pkgs = _pkgset(PackageDef(name="z", version="1.0"))
    with pytest.raises(MicrofoldError, match="unknown package missing"):
        resolve_spec(Spec("missing"), pkgs)
    with pytest.raises(MicrofoldError, match="unknown version z@9.9"):
        resolve_spec(Spec("z", "9.9"), pkgs)


def test_resolve_manifest(packages):
    m = parse_manifest(REFERENCE_MANIFEST)
    picked = [resolve_spec(s, packages) for s in m.specs]
    assert [(p.name, p.version) for p in picked] == [
        ("python", "3.9"), ("python-scipy", "1.6"), ("python-numpy", "1.20")]


# -- instantiation ---------------------------------------------------------

def test_instantiate_pins_dependency_hashes(packages, store, archive, toolchain):
    scipy = load_derivation(store, instantiate(packages["python-scipy@1.6"], packages,
                                               store=store, archive=archive))
    dep_labels = {i.label for i in scipy.inputs}
    assert dep_labels == {"python", "python-numpy"}
    # dependency store components are spliced into the step bytes
    numpy_hash = instantiate(packages["python-numpy@1.20"], packages,
                             store=store, archive=archive)
    numpy_comp = f"{numpy_hash.prefix}-python-numpy-1.20"
    deps_step = [s for s in scipy.steps if s.args[0] == "lib/scipy-deps.txt"][0]
    assert numpy_comp.encode() in deps_step.args[1]


def test_inline_source_is_encoded_and_hashed_once(packages, store, archive, toolchain,
                                                   monkeypatch):
    """With an archive, the hash Archive.ingest returns names an inline
    source: app-alpha's graph has 4 inline sources, each hashed once."""
    archive_hashes = []
    real = ContentHash.of_bytes.__func__

    def counting(cls, data):
        if data.startswith(carc.MAGIC):
            archive_hashes.append(data)
        return real(cls, data)
    monkeypatch.setattr(ContentHash, "of_bytes", classmethod(counting))
    drv_hash = instantiate(packages["app-alpha@1.0"], packages, store=store, archive=archive)
    assert len(archive_hashes) == 4 == len(set(archive_hashes))
    assert archive.has(load_derivation(store, drv_hash).sources[0].expected_hash)


def test_instantiation_is_deterministic(packages, store, archive, toolchain):
    h1 = instantiate(packages["app-alpha@1.0"], packages, store=store, archive=archive)
    h2 = instantiate(packages["app-alpha@1.0"], packages, store=store, archive=archive)
    assert h1 == h2


def test_dependency_cycle_detected(store):
    pkgs = _pkgset(
        PackageDef(name="a", version="1", deps=["b"]),
        PackageDef(name="b", version="1", deps=["a"]))
    with pytest.raises(DependencyCycle) as exc:
        instantiate(pkgs["a@1"], pkgs, store=store)
    assert exc.value.chain[0] == exc.value.chain[-1]


def test_self_cycle_detected(store):
    pkgs = _pkgset(PackageDef(name="a", version="1", deps=["a"]))
    with pytest.raises(DependencyCycle, match="dependency cycle: a -> a"):
        instantiate(pkgs["a@1"], pkgs, store=store)


def test_a_version_ending_in_a_newline_registers_nothing(store):
    """A label is checked whole: a dependency versioned "1.0\n" is refused
    before any derivation of the graph enters the store, so no record can
    name its output."""
    pkgs = _pkgset(PackageDef(name="low", version="1.0\n"),
                   PackageDef(name="top", version="1", deps=["low"]))
    with pytest.raises(InvariantViolation):
        instantiate(pkgs["top@1"], pkgs, store=store)
    assert store.list_derivations() == []


def test_an_unclosed_seed_placeholder_registers_nothing(store):
    pkgs = _pkgset(PackageDef("q", "1", steps=[d.write("f", b"{seed:abc")]))
    with pytest.raises(InvariantViolation, match="{seed:abc"):
        instantiate(pkgs["q@1"], pkgs, store=store)
    assert store.list_derivations() == []


# -- input rewriting -------------------------------------------------------

def _diamond():
    return _pkgset(
        PackageDef(name="base", version="1.0",
                   steps=[d.write("f", b"base-1.0")]),
        PackageDef(name="base", version="2.0",
                   steps=[d.write("f", b"base-2.0")]),
        PackageDef(name="left", version="1.0", deps=["base@1.0"],
                   steps=[d.write("f", b"left {base}")]),
        PackageDef(name="right", version="1.0", deps=["base@1.0"],
                   steps=[d.write("f", b"right {base}")]),
        PackageDef(name="top", version="1.0", deps=["left", "right"],
                   steps=[d.write("f", b"top {left} {right}")]),
        PackageDef(name="other", version="1.0", deps=["base@1.0"],
                   steps=[d.write("f", b"other {base}")]))


def _hashes(pkgs, store, archive):
    inst_pkgs = {}
    for key in pkgs:
        inst_pkgs[key] = instantiate(pkgs[key], pkgs, store=store, archive=archive).hex
    return inst_pkgs


def test_rewrite_changes_exactly_the_dependents(store, archive):
    pkgs = _diamond()
    before = _hashes(pkgs, store, archive)
    rewritten = rewrite_inputs(Spec("top"), {"base": Spec("base", "2.0")},
                               pkgs)
    after = _hashes(rewritten, store, archive)
    changed = {k for k in before if after[k] != before[k]}
    # reachable-from-top dependents change; `other` and both base defs don't
    assert changed == {"left@1.0", "right@1.0", "top@1.0"}
    # the original package set is untouched
    assert pkgs["left@1.0"].deps == ["base@1.0"]


def test_rewrite_requires_known_replacement():
    with pytest.raises(MicrofoldError, match="unknown version base@9.9"):
        rewrite_inputs(Spec("top"), {"base": Spec("base", "9.9")}, _diamond())
    with pytest.raises(MicrofoldError, match="unknown package nothing"):
        rewrite_inputs(Spec("top"), {"base": Spec("nothing")}, _diamond())


def test_rewrite_cycle_detected():
    pkgs = _pkgset(
        PackageDef(name="a", version="1", deps=["b"]),
        PackageDef(name="b", version="1"),
        PackageDef(name="c", version="1", deps=["a"]))
    with pytest.raises(MicrofoldError, match="replacement cycle: a@1 -> c@1 -> a@1"):
        rewrite_inputs(Spec("a"), {"b": Spec("c")}, pkgs)


def test_rewritten_graph_builds(store, archive, toolchain, packages):
    rewritten = rewrite_inputs(Spec("app-beta"),
                               {"libmath": Spec("libmath", "1.0")}, packages)
    drv_hash = instantiate(rewritten["app-beta@1.0"], rewritten,
                           store=store, archive=archive)
    path = build_hash(drv_hash, store, archive=archive)
    assert store.verify_item(path).ok


# -- the instantiator's derivations are the parsed ones --------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_sets(name, tmp_path, monkeypatch) -> list:
    """The package sets (one per channel revision) of the fixture channel
    or of a perfbench workload."""
    if name == "fixture":
        sets = [fixture_packages(), fixture_packages_v2()]
    else:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        workload = workloads.WORKLOADS[name](1)
        (tmp_path / "inputs").mkdir()
        workload.make_inputs(tmp_path / "inputs")
        sets = [workload.packages(rev) for rev in (1, 2)]
    return [{p.key: p for p in pkgs} for pkgs in sets]


@pytest.mark.parametrize("name", ["fixture", "chain", "blobs", "fanout"])
def test_instantiated_derivations_are_kept_as_parsed(name, store, toolchain, tmp_path,
                                                      monkeypatch):
    for packages in _package_sets(name, tmp_path, monkeypatch):
        inst = Instantiator(packages, store=store)
        for pkg in packages.values():
            inst.instantiate(pkg)
        for key, drv_hash in inst.hashes.items():
            drv = store.derivations[drv_hash.hex]
            assert drv is load_derivation(store, drv_hash)
            assert drv == parse_derivation(canonical_serialize(drv).decode())
            assert canonical_serialize(drv) == store.get_derivation_bytes(drv_hash)
