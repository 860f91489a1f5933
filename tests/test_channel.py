import hashlib
from pathlib import Path

import pytest

from microfold import derivation as d
from microfold.channel import (ChannelPin, ChannelRepo, PackageDef, parse_package,
                               parse_pin, render_pin, serialize_package)
from microfold.cli import run_command
from microfold.derivation import SourceRef
from microfold.errors import (CorruptRevision, MicrofoldError, ParseError,
                              UnreachableRemote)
from microfold.hashing import ContentHash

# Frozen fixture: package and revision bytes were written by hand against
# the grammar and hashed with plain hashlib (independent oracle).
GOLDEN_PKG_A = b'(package (name "a") (version "1.0") (synopsis "pkg a") (source (inline "aa")) (deps) (steps (write "a.txt" "aa")))'
GOLDEN_REV_ID = "bc2b6d37b83dfe700e21f53a8c7afc3a5aa917751a32d4af60e7837fc3aed6a4"


def golden_tree():
    a = PackageDef(name="a", version="1.0", synopsis="pkg a", source=b"aa",
                   steps=[d.write("a.txt", b"aa")])
    b = PackageDef(name="b", version="2.0", synopsis="pkg b", deps=["a"],
                   steps=[d.write("b.txt", b"bb")])
    c = PackageDef(name="c", version="0.1", synopsis="pkg c",
                   deps=["a", "b@2.0"], steps=[d.write("c.txt", b"cc")])
    return [a, b, c]


def test_golden_package_serialization():
    assert serialize_package(golden_tree()[0]) == GOLDEN_PKG_A


def test_golden_revision_id(repo):
    rev = repo.commit_revision(golden_tree(), message="init")
    assert rev.id.hex == GOLDEN_REV_ID


def test_commit_is_content_addressed(repo, tmp_path):
    r1 = repo.commit_revision(golden_tree(), message="init")
    other = ChannelRepo(tmp_path / "other")
    r2 = other.commit_revision(golden_tree(), message="init")
    assert r1.id == r2.id

    pkgs = golden_tree()
    pkgs[0] = PackageDef(name="a", version="1.1", synopsis="pkg a",
                         source=b"aa", steps=pkgs[0].steps)
    r3 = other.commit_revision(pkgs, message="init")
    assert r3.id != r1.id


def test_duplicate_package_rejected(repo):
    pkgs = golden_tree() + [PackageDef(name="a", version="1.0")]
    with pytest.raises(MicrofoldError, match="duplicate package a@1.0"):
        repo.commit_revision(pkgs)


def test_unknown_parent_rejected(repo):
    with pytest.raises(MicrofoldError, match="unknown parent revision " + "ab" * 32):
        repo.commit_revision(golden_tree(), parent=ContentHash("ab" * 32))


def test_checkout_round_trip(repo):
    rev = repo.commit_revision(golden_tree(), message="init")
    pkgs = repo.checkout(rev.id)
    assert set(pkgs) == {"a@1.0", "b@2.0", "c@0.1"}
    assert serialize_package(pkgs["a@1.0"]) == GOLDEN_PKG_A
    # repeated checkouts identical
    assert {k: serialize_package(v) for k, v in repo.checkout(rev.id).items()} \
        == {k: serialize_package(v) for k, v in pkgs.items()}


def test_checkout_parent_unaffected_by_child(repo):
    r1 = repo.commit_revision(golden_tree(), message="one")
    pkgs2 = golden_tree()
    pkgs2.append(PackageDef(name="extra", version="9"))
    repo.commit_revision(pkgs2, parent=r1.id, message="two")
    assert set(repo.checkout(r1.id)) == {"a@1.0", "b@2.0", "c@0.1"}


def test_checkout_unknown_revision(repo):
    with pytest.raises(MicrofoldError, match="unknown revision " + "cd" * 32):
        repo.checkout(ContentHash("cd" * 32))


def test_history_immutable_on_commit(repo):
    r1 = repo.commit_revision(golden_tree(), message="one")
    before = {p.name: p.read_bytes()
              for p in (repo.root / "revisions").iterdir()}
    repo.commit_revision(golden_tree()[:2], parent=r1.id, message="two")
    for name, data in before.items():
        assert (repo.root / "revisions" / name).read_bytes() == data


@pytest.mark.parametrize("kind", ["objects", "revisions"])
def test_a_commit_repairs_a_damaged_file_it_names(repo, kind):
    """A package object or revision is named by the hash of its bytes: a
    commit that names one again rewrites it when it is damaged."""
    rev = repo.commit_revision(golden_tree(), message="one")
    victim = sorted((repo.root / kind).iterdir())[0]
    intact = victim.read_bytes()
    victim.write_bytes(intact[:-1] + bytes([intact[-1] ^ 1]))
    assert repo.commit_revision(golden_tree(), message="one").id == rev.id
    assert victim.read_bytes() == intact
    assert set(repo.checkout(rev.id)) == {"a@1.0", "b@2.0", "c@0.1"}


def test_package_serialization_round_trips():
    src = SourceRef("http://u/s.tar", ContentHash("ef" * 32), "s")
    pkg = PackageDef(name="x", version="1", synopsis='with "quotes"',
                     source=src, deps=["a", "b@2"],
                     steps=[d.exec_("a/bin/t", "@out@/f")])
    assert serialize_package(parse_package(serialize_package(pkg))) \
        == serialize_package(pkg)


# -- pull ------------------------------------------------------------------

def test_pull_fresh_and_idempotent(repo, tmp_path):
    r1 = repo.commit_revision(golden_tree(), message="one")
    r2 = repo.commit_revision(golden_tree()[:2], parent=r1.id, message="two")

    clone = ChannelRepo(tmp_path / "clone")
    head = clone.pull(repo.root)
    assert head == r2.id == clone.head()
    assert clone.pull(repo.root) == head  # idempotent
    assert set(clone.checkout(r1.id)) == {"a@1.0", "b@2.0", "c@0.1"}


def test_pull_from_a_file_url(repo, tmp_path):
    """A file:// URL reads the repo it names; the clone's URL is the one a
    pull of the plain path records."""
    rev = repo.commit_revision(golden_tree(), message="one")
    clone = ChannelRepo(tmp_path / "clone")
    assert clone.pull(f"file://{repo.root}/") == rev.id == clone.head()
    assert clone.url == f"file://{repo.root}"
    assert set(clone.checkout(rev.id)) == {"a@1.0", "b@2.0", "c@0.1"}


def test_pull_detects_tampering(repo, tmp_path):
    rev = repo.commit_revision(golden_tree(), message="one")
    rev_file = repo.root / "revisions" / rev.id.hex
    rev_file.write_bytes(rev_file.read_bytes().replace(b"one", b"two"))
    clone = ChannelRepo(tmp_path / "clone")
    with pytest.raises(CorruptRevision):
        clone.pull(repo.root)


def test_pull_repairs_a_damaged_revision_and_object(repo, tmp_path):
    """A local revision or object counts as held only when its bytes hash
    to its name: a pull that walks a damaged one fetches it again."""
    r1 = repo.commit_revision(golden_tree()[:1], message="one")
    clone = ChannelRepo(tmp_path / "clone")
    clone.pull(repo.root)
    [obj] = (clone.root / "objects").iterdir()
    for victim in (obj, clone.root / "revisions" / r1.id.hex):
        intact = victim.read_bytes()
        victim.write_bytes(intact[:-1] + bytes([intact[-1] ^ 1]))
    r2 = repo.commit_revision(golden_tree()[:2], parent=r1.id, message="two")
    assert clone.pull(repo.root) == r2.id
    assert set(clone.checkout(r2.id)) == {"a@1.0", "b@2.0"}
    assert clone.ancestry(r2.id) == [r2.id, r1.id]


def test_pull_repairs_a_damaged_revision_below_an_intact_one(repo, tmp_path):
    """The walk does not stop at the first intact local revision: a damaged
    one further down the chain is fetched again too."""
    r1 = repo.commit_revision(golden_tree()[:1], message="one")
    r2 = repo.commit_revision(golden_tree()[:2], parent=r1.id, message="two")
    clone = ChannelRepo(tmp_path / "clone")
    clone.pull(repo.root)
    victim = clone.root / "revisions" / r1.id.hex
    intact = victim.read_bytes()
    victim.write_bytes(intact[:-1] + bytes([intact[-1] ^ 1]))
    r3 = repo.commit_revision(golden_tree(), parent=r2.id, message="three")
    assert clone.pull(repo.root) == r3.id
    assert clone.ancestry(r3.id) == [r3.id, r2.id, r1.id]
    assert victim.read_bytes() == intact


def test_pull_repairs_a_damaged_object_of_an_intact_revision(repo, tmp_path):
    """pull checks the objects of every revision on the chain it walks, not
    only of those it fetches: an object that only an intact local revision
    names is fetched again when it is damaged."""
    r1 = repo.commit_revision(golden_tree(), message="one")
    clone = ChannelRepo(tmp_path / "clone")
    clone.pull(repo.root)
    victim = clone.root / "objects" / r1.tree["c@0.1"].hex
    intact = victim.read_bytes()
    victim.write_bytes(intact[:-1] + bytes([intact[-1] ^ 1]))
    r2 = repo.commit_revision(golden_tree()[:1], parent=r1.id, message="two")
    assert clone.pull(repo.root) == r2.id
    assert victim.read_bytes() == intact
    assert set(clone.checkout(r1.id)) == {"a@1.0", "b@2.0", "c@0.1"}


def _serve(remote: Path, revision: bytes, objects=()) -> str:
    """A remote channel whose HEAD is a revision with these bytes; every
    file hashes to its name, however malformed its contents."""
    for sub in ("revisions", "objects"):
        (remote / sub).mkdir(parents=True)
    for data in objects:
        (remote / "objects" / hashlib.sha256(data).hexdigest()).write_bytes(data)
    rev_id = hashlib.sha256(revision).hexdigest()
    (remote / "revisions" / rev_id).write_bytes(revision)
    (remote / "HEAD").write_text(rev_id + "\n")
    return rev_id


@pytest.mark.parametrize("revision", [
    b"(revision)",
    b"(revision 1)",
    b"(revision \xff\xfe)",
    b'(revision (parent nil) (message "m") (tree ("a@1" "not-a-hash")))',
    b'(revision (parent nil) (parent nil) (message "m") (tree))',
])
def test_pull_of_malformed_revision_is_a_verification_error(tmp_path, monkeypatch,
                                                           capsys, revision):
    """A revision that hashes to its id but does not parse fails `pull`
    with exit 2 and one line, not a traceback."""
    _serve(tmp_path / "remote", revision)
    monkeypatch.setenv("MICROFOLD_HOME", str(tmp_path))
    assert run_command(["pull", "--url", str(tmp_path / "remote")]) == 2
    assert capsys.readouterr().err.startswith("microfold: error: malformed revision")


def test_pull_of_a_revision_that_repeats_a_tree_key_is_a_verification_error(
        tmp_path, monkeypatch, capsys):
    """With one key twice, which package would the revision id name?"""
    objects = [serialize_package(PackageDef(name="a", version="1", synopsis=synopsis))
               for synopsis in ("one", "two")]
    tree = " ".join(f'("a@1" {hashlib.sha256(o).hexdigest()})' for o in objects)
    _serve(tmp_path / "remote", f'(revision (parent nil) (message "m") (tree {tree}))'.encode(),
           objects)
    monkeypatch.setenv("MICROFOLD_HOME", str(tmp_path))
    assert run_command(["pull", "--url", str(tmp_path / "remote")]) == 2
    assert capsys.readouterr().err.startswith("microfold: error: malformed revision")


@pytest.mark.parametrize("package", [
    b"(package)",
    b'(package (name a) (version "1") (synopsis "") (source nil) (deps) (steps))',
    b'(package (name "a") (version "1") (synopsis "") (source (inline)) (deps) (steps))',
    b'(package (name "a") (version "1") (synopsis "") (source nil) (deps) (steps (write "f")))',
    b'(package (name "a") (version "1") (synopsis "") (source nil) (deps) (steps) (x "y"))',
])
def test_checkout_of_malformed_package_object_is_a_verification_error(
        tmp_path, monkeypatch, capsys, package):
    obj = hashlib.sha256(package).hexdigest()
    rev = f'(revision (parent nil) (message "m") (tree ("a@1" {obj})))'.encode()
    rev_id = _serve(tmp_path / "remote", rev, [package])
    clone = ChannelRepo(tmp_path / "clone")
    assert clone.pull(tmp_path / "remote").hex == rev_id
    with pytest.raises(CorruptRevision, match="malformed package object"):
        clone.checkout(ContentHash(rev_id))
    monkeypatch.setenv("MICROFOLD_HOME", str(tmp_path))
    monkeypatch.setenv("MICROFOLD_CHANNEL_REPO", str(clone.root))
    assert run_command(["build", "a"]) == 2
    assert capsys.readouterr().err.startswith("microfold: error: malformed package object")


def _crash_at_write(monkeypatch, k):
    """Make the k-th file write from now on stop halfway and fail, as a
    process killed in the middle of it would."""
    writes = []
    for method in ("write_bytes", "write_text"):
        real = getattr(Path, method)

        def crash(self, data, *args, _real=real, **kwargs):
            writes.append(self.name)
            if len(writes) == k:
                with self.open("wb" if isinstance(data, bytes) else "w") as f:
                    f.write(data[:len(data) // 2])
                raise OSError(f"crashed writing {self.name}")
            return _real(self, data, *args, **kwargs)
        monkeypatch.setattr(Path, method, crash)


@pytest.mark.parametrize("action", ["commit", "pull"])
def test_crash_at_any_write_keeps_head_and_files_whole(tmp_path, action):
    """HEAD is written last and every file through a tmp file and a rename:
    a commit or pull that dies at any write leaves HEAD at the old revision
    and no object or revision file that does not hash to its name."""
    old_remote, new_remote = ChannelRepo(tmp_path / "old"), ChannelRepo(tmp_path / "new")
    r1 = old_remote.commit_revision(golden_tree()[:1], message="one")
    new_remote.commit_revision(golden_tree()[:1], message="one")
    r2 = new_remote.commit_revision(golden_tree(), parent=r1.id, message="two")
    k = 0
    while True:
        k += 1
        repo = ChannelRepo(tmp_path / f"repo-{k}")
        repo.pull(old_remote.root)
        with pytest.MonkeyPatch.context() as mp:
            _crash_at_write(mp, k)
            try:
                if action == "commit":
                    repo.commit_revision(golden_tree(), parent=r1.id, message="two")
                else:
                    repo.pull(new_remote.root)
            except OSError:
                pass
            else:
                break
        assert ChannelRepo(repo.root).head() == r1.id
        for sub in ("objects", "revisions"):
            for path in (repo.root / sub).iterdir():
                assert hashlib.sha256(path.read_bytes()).hexdigest() == path.name
    assert repo.head() == r2.id
    assert k > 4  # the crash hit two objects, the revision and HEAD


def test_a_failed_fetch_leaves_no_revision_without_its_parent(tmp_path):
    """A revision is written after its parent, so a pull that fails part
    way leaves nothing that a later pull would take as complete."""
    remote = ChannelRepo(tmp_path / "remote")
    r1 = remote.commit_revision(golden_tree(), message="one")
    r2 = remote.commit_revision(golden_tree()[:1], parent=r1.id, message="two")
    hidden = remote.root / "revisions" / r1.id.hex
    hidden.rename(tmp_path / "r1")
    clone = ChannelRepo(tmp_path / "clone")
    with pytest.raises(UnreachableRemote):
        clone.pull(remote.root)
    assert not clone.has_revision(r2.id)
    (tmp_path / "r1").rename(hidden)
    assert clone.pull(remote.root) == r2.id
    assert clone.ancestry(r2.id) == [r2.id, r1.id]


def test_pull_unreachable(tmp_path):
    clone = ChannelRepo(tmp_path / "clone")
    with pytest.raises(UnreachableRemote, match="unreachable remote .*nowhere"):
        clone.pull(tmp_path / "nowhere")


# -- pins ------------------------------------------------------------------

def test_describe_pin_round_trips(repo):
    rev = repo.commit_revision(golden_tree(), message="one")
    text = render_pin([repo.pin()])
    assert f'(commit "{rev.id.hex}")' in text
    assert f'(url "{repo.url}")' in text
    pins = parse_pin(text)
    assert pins == [ChannelPin("microfold", repo.url, rev.id.hex)]
    assert render_pin(pins) == text


def test_describe_without_head(repo):
    with pytest.raises(MicrofoldError, match="no HEAD"):
        render_pin([repo.pin()])


def test_parse_pin_minimal():
    text = ('(channels (channel (name "c") (url "file:///tmp/x") '
            '(commit "' + "ab" * 32 + '")))')
    pins = parse_pin(text)
    assert len(pins) == 1
    assert pins[0].commit == "ab" * 32


def test_parse_pin_rejects_40_hex():
    text = ('(channels (channel (name "c") (url "u") '
            '(commit "' + "ab" * 20 + '")))')
    with pytest.raises(ParseError, match="commit must be 64 hex chars"):
        parse_pin(text)


def test_parse_pin_rejects_garbage():
    with pytest.raises(ParseError):
        parse_pin("")
    with pytest.raises(ParseError):
        parse_pin("(channels)")
    with pytest.raises(ParseError):
        parse_pin('(channels (channel (name "c") (url "u") '
                  '(commit "' + "ab" * 32 + '") (branch "x")))')
    with pytest.raises(ParseError):
        parse_pin("(specifications->manifest '())")


# -- time machine ----------------------------------------------------------

def test_time_machine_uses_pinned_tree(repo):
    r1 = repo.commit_revision(golden_tree(), message="one")
    pin_text = render_pin([repo.pin()])
    newer = golden_tree()
    newer[0] = PackageDef(name="a", version="2.0", synopsis="pkg a",
                          source=b"aa", steps=newer[0].steps)
    repo.commit_revision(newer, parent=r1.id, message="two")

    seen = repo.pinned_packages(parse_pin(pin_text))
    assert "a@1.0" in seen and "a@2.0" not in seen


def test_time_machine_unknown_revision(repo, tmp_path):
    repo.commit_revision(golden_tree(), message="one")
    pin = [ChannelPin("c", "file://" + str(tmp_path / "gone"), "ab" * 32)]
    with pytest.raises(MicrofoldError, match="unknown revision " + "ab" * 32):
        repo.pinned_packages(pin)


def test_time_machine_pulls_from_pin_url(repo, tmp_path):
    rev = repo.commit_revision(golden_tree(), message="one")
    clone = ChannelRepo(tmp_path / "clone")
    pin = [ChannelPin("c", "file://" + str(repo.root), rev.id.hex)]
    result = set(clone.pinned_packages(pin))
    assert result == {"a@1.0", "b@2.0", "c@0.1"}


@pytest.mark.parametrize("kind", ["revision", "object"])
def test_time_machine_repairs_a_damaged_pinned_revision_from_the_pin_url(
        repo, tmp_path, kind):
    """A pinned revision, or an object it names, that is damaged here is
    fetched again from the pin's URL, and the pin's packages are read."""
    r1 = repo.commit_revision(golden_tree(), message="one")
    clone = ChannelRepo(tmp_path / "clone")
    clone.pull(repo.root)
    name = r1.id if kind == "revision" else r1.tree["a@1.0"]
    victim = clone.root / f"{kind}s" / name.hex
    intact = victim.read_bytes()
    victim.write_bytes(intact[:-1] + bytes([intact[-1] ^ 1]))
    pin = [ChannelPin("c", "file://" + str(repo.root), r1.id.hex)]
    assert set(clone.pinned_packages(pin)) == {"a@1.0", "b@2.0", "c@0.1"}
    assert victim.read_bytes() == intact


def test_time_machine_leaves_head_and_url_alone(tmp_path):
    other = ChannelRepo(tmp_path / "other")
    remote = other.commit_revision(golden_tree(), message="remote only")
    repo = ChannelRepo(tmp_path / "mine")
    (repo.root / "URL").write_text("file:///srv/channel\n")
    own = repo.commit_revision(golden_tree()[:1], message="local")
    url_before = (repo.root / "URL").read_bytes()
    pin = [ChannelPin("c", "file://" + str(other.root), remote.id.hex)]
    seen = set(repo.pinned_packages(pin))
    assert seen == {"a@1.0", "b@2.0", "c@0.1"}
    assert repo.head() == own.id
    assert (repo.root / "URL").read_bytes() == url_before


def test_describe_human_mentions_commit(repo):
    rev = repo.commit_revision(golden_tree(), message="one")
    text = repo.describe_human([repo.pin()])
    assert rev.id.hex in text
    assert "Generation 1" in text


def test_ancestry_hashes_each_revision_once(repo, monkeypatch):
    """A revision's bytes are hashed once per read, to check its name."""
    rev_id = None
    for i in range(5):
        rev_id = repo.commit_revision(golden_tree(), parent=rev_id, message=str(i)).id
    hashed = []
    real = ContentHash.of_bytes
    monkeypatch.setattr(ContentHash, "of_bytes",
                        staticmethod(lambda data: hashed.append(data) or real(data)))
    assert len(repo.ancestry(rev_id)) == 5
    assert len(hashed) == 5
