import pytest

import carc_model
from microfold import derivation as d
from microfold.bootstrap import audit_trust, register_seed
from microfold.builder import build
from microfold.channel import PackageDef
from microfold.derivation import Derivation, load_derivation, register_derivation
from microfold.manifest import Instantiator
from microfold.profile import Profile, build_profile
from microfold.store import StorePath

from conftest import build_hash, instantiated, on_disk, seed_tree


def test_register_seed_records_kind_and_size(tmp_path, store):
    rec = register_seed(store, on_disk(seed_tree(), tmp_path), "toolchain-1.0",
                        description="cc")
    item = store.get_record(rec.path)
    assert item.kind == "seed"
    assert rec.size == len(carc_model.serialize_tree(seed_tree()))
    assert rec.description == "cc"


def test_pure_derivation_is_trusted(store):
    drv = Derivation(name="pure", version="1",
                     steps=[d.write("f", b"bytes from nowhere but the drv")])
    path = build(drv, store)
    report = audit_trust(path, store)
    assert report.trusted
    assert report.offending == []
    assert report.total_seed_bytes == 0


def test_seed_built_closure_is_trusted(store, archive, toolchain, packages):
    inst = Instantiator(packages, store=store, archive=archive)
    alpha = inst.instantiate(packages["app-alpha@1.0"])
    path = build_hash(alpha, store, archive=archive)
    report = audit_trust(path, store)
    assert report.trusted
    assert [s.path.component for s in report.seed_list] == \
        [toolchain.path.component]
    assert report.total_seed_bytes == toolchain.size
    assert report.leaf_counts.get("seed") == 1
    assert report.leaf_counts.get("fixed", 0) >= 4  # one source per package


def test_verdict_before_the_build_is_the_verdict_after(store, archive, toolchain,
                                                      packages):
    """Steps name their inputs' outputs; before the build those are not in
    the store, but the derivations in the graph explain them."""
    inst = Instantiator(packages, store=store, archive=archive)
    for key in ("app-alpha@1.0", "python-scipy@1.6"):
        drv_hash = inst.instantiate(packages[key])
        before = audit_trust(drv_hash, store)
        assert before.trusted, before.offending
        build_hash(drv_hash, store, archive=archive)
        assert audit_trust(drv_hash, store) == before


def test_seed_counted_once_across_diamond(store, archive, toolchain, packages):
    # Both libmath and libio run the same seed compiler; the seed mass is
    # the CARC size of the distinct seed, not a per-use sum.
    inst = Instantiator(packages, store=store, archive=archive)
    alpha = inst.instantiate(packages["app-alpha@1.0"])
    build_hash(alpha, store, archive=archive)
    report = audit_trust(alpha, store)
    assert len(report.seed_list) == 1
    assert report.total_seed_bytes == toolchain.size


def test_opaque_binary_flags_exactly_the_dependents(tmp_path, store, toolchain):
    # A binary dropped into the store with no provenance at all.
    opaque = store.add_fixed(on_disk(
        carc_model.Dir({"bin": carc_model.Dir({"mystery": carc_model.File(
            b"#!/bin/sh\n/bin/cat > \"$1\" <<EOF\nartifact\nEOF\n",
            executable=True)})}), tmp_path),
        "mystery-tool", kind="fixed")

    user = Derivation(name="user", version="1", steps=[
        d.exec_(f"{opaque.component}/bin/mystery", "@out@/f"),
    ])
    clean = Derivation(name="clean", version="1", steps=[
        d.exec_(f"{toolchain.path.component}/bin/cc", "@out@/f"),
    ])
    user_path = build(user, store)
    clean_path = build(clean, store)

    tainted = audit_trust(user_path, store)
    assert not tainted.trusted
    assert (opaque.component, "no-source-provenance") in tainted.offending

    untouched = audit_trust(clean_path, store)
    assert untouched.trusted


def test_unknown_component_is_opaque(store):
    drv = Derivation(name="ghost", version="1", steps=[
        d.exec_("ab" * 16 + "-phantom-1.0/bin/tool", "@out@/h"),
    ])
    report = audit_trust(register_derivation(store, drv), store)
    assert not report.trusted
    assert ("ab" * 16 + "-phantom-1.0", "unknown-component") in report.offending


def test_component_named_in_bytes_is_audited(store):
    drv = Derivation(name="ghost", version="1", steps=[
        d.write("run", b"#!/bin/sh\nexec ../" + b"ab" * 16 + b"-phantom-1.0/bin/tool\n"),
    ])
    report = audit_trust(register_derivation(store, drv), store)
    assert not report.trusted
    assert ("ab" * 16 + "-phantom-1.0", "unknown-component") in report.offending


def test_verdict_does_not_depend_on_input_order(store, archive):
    """r depends on a and b@V; a names the source that b declares.  Which
    of a and b comes first in r's inputs depends on V's hash; the source is
    explained by b whichever it is."""
    orders = set()
    for version in map(str, range(1, 10)):
        source_label = f"b-{version}-source"
        pkgs = {p.key: p for p in (
            PackageDef(name="b", version=version, source=b"b's source\n",
                       steps=[d.write("f", b"b")]),
            PackageDef(name="a", version=version, steps=[]),
            PackageDef(name="r", version=version, deps=["a", "b"],
                       steps=[d.write("f", b"r")]))}
        inst = Instantiator(pkgs, store=store, archive=archive)
        source = load_derivation(store, inst.instantiate(pkgs[f"b@{version}"])).sources[0]
        pkgs[f"a@{version}"].steps.append(d.mkdir(
            f"share-{source.expected_hash.prefix}-{source_label}"))
        root = inst.instantiate(pkgs[f"r@{version}"])
        orders.add(tuple(i.label for i in load_derivation(store, root).inputs))
        report = audit_trust(build_hash(root, store, archive=archive), store)
        assert report.trusted, (version, report.offending)
    assert orders == {("a", "b"), ("b", "a")}


def test_derived_without_deriver_is_opaque(store):
    drv = Derivation(name="orphan", version="1",
                     steps=[d.write("f", b"data")])
    path = build(drv, store)
    rec = store.get_record(path)
    rec.deriver = None
    store._write_record(rec)
    report = audit_trust(path, store)
    assert not report.trusted
    assert (path.component, "derived-without-deriver") in report.offending


def test_profile_audit_recurses_into_members(store, archive, toolchain,
                                             packages, tmp_path):
    inst = Instantiator(packages, store=store, archive=archive)
    drvs = instantiated(inst, [packages[k] for k in ("app-alpha@1.0", "libio@1.0")])
    gen = build_profile(drvs, store, Profile(tmp_path / "prof"),
                        archive=archive)
    report = audit_trust(gen.profile_tree, store)
    assert report.trusted
    assert report.total_seed_bytes == toolchain.size


def test_every_member_of_a_library_profile_is_trusted(store, archive, toolchain,
                                                      packages, tmp_path):
    """Members built by hash from the library carry derivers whose bytes
    the store holds, so the audit explains each of them."""
    inst = Instantiator(packages, store=store, archive=archive)
    hand = register_derivation(store, Derivation(name="hand", version="1",
                                                 steps=[d.write("f", b"by hand")]))
    members = instantiated(inst, [packages[k] for k in ("app-alpha@1.0", "python@3.9")])
    gen = build_profile(members + [hand], store, Profile(tmp_path / "prof"),
                        archive=archive)
    references = store.get_record(gen.profile_tree).references
    assert len(references) == 3
    for member in references:
        report = audit_trust(member, store)
        assert report.trusted, (member.component, report.offending)


def test_audit_monotone_under_injection(tmp_path, store, archive, toolchain, packages):
    """Opacity is monotone: adding an opaque input never cleans a closure."""
    inst = Instantiator(packages, store=store, archive=archive)
    beta = inst.instantiate(packages["app-beta@1.0"])
    beta_path = build_hash(beta, store, archive=archive)
    assert audit_trust(beta_path, store).trusted

    opaque = store.add_fixed(on_disk(carc_model.File(b"blob"), tmp_path), "wild-blob",
                             kind="fixed")
    wrapper = Derivation(name="wrapper", version="1", steps=[
        d.copy(f"{beta_path.component}/share/deps.txt", "deps.txt"),
        d.write("note", f"uses {opaque.component}\n".encode()),
        d.concat("both", "out/deps.txt", f"{opaque.component}"),
    ])
    wrapper_path = build(wrapper, store)
    report = audit_trust(wrapper_path, store)
    assert not report.trusted
    # the previously trusted closure stays trusted
    assert audit_trust(beta_path, store).trusted


def test_render_lists_offenders(tmp_path, store):
    opaque = store.add_fixed(on_disk(carc_model.File(b"blob"), tmp_path), "rogue",
                             kind="fixed")
    report = audit_trust(opaque, store)
    text = report.render()
    assert "verdict: opaque" in text
    assert f"opaque {opaque.component} no-source-provenance" in text
