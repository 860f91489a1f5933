"""The benchmark's three workloads: generated inputs and expected outputs.

Each workload writes its sources under an inputs directory, returns the
package definitions of channel revisions r1 and r2, and says which bytes
every file of the profile must hold.  Expected bytes are computed here from
the generated inputs, never read back from the program.

Why these three: `chain` has many tiny derivations, so time goes to
per-derivation bookkeeping; `blobs` has few derivations over large files and
thousands of small ones, so time goes to archiving, hashing and moving bytes;
`fanout` is the only one that runs `exec` steps and the `--workers`
scheduler, and its fixed tool wait makes its time depend on how well builds
overlap rather than on the speed of a shared CPU.
"""

from __future__ import annotations

import random
from pathlib import Path

import refcarc
from microfold import derivation as d
from microfold.channel import PackageDef
from microfold.derivation import SourceRef
from microfold.hashing import ContentHash

SEED_LABEL = "toolchain-1.0"
SEED_REF = "{seed:%s}" % SEED_LABEL
WAIT_S = "0.1"
# The seed's one tool: wait a fixed time, then write its arguments (one a
# line) to the file named by the first.  /bin paths because the build PATH
# holds only input bin directories.
WAIT_TOOL = (b"#!/bin/sh\n/bin/sleep " + WAIT_S.encode() + b"\n"
             b"out=\"$1\"; shift\nprintf '%s\\n' \"$@\" > \"$out\"\n")


def write_seed(root: Path):
    """The toolchain seed tree, registered in every store during set-up."""
    (root / "bin").mkdir(parents=True)
    tool = root / "bin" / "wait"
    tool.write_bytes(WAIT_TOOL)
    tool.chmod(0o755)


def _token(rng: random.Random) -> str:
    return "%016x" % rng.getrandbits(64)


class Workload:
    """Inputs and expectations shared by every round of one run."""

    name = ""
    workers = 1
    # How many times each short operation runs in a round, so that its
    # samples add up to enough work to be steady.
    repeats = {"warm": 1, "publish": 1, "substitute": 1, "replay": 1}

    def make_inputs(self, inputs: Path):
        """Write sources under inputs; called once per round."""

    def packages(self, rev: int) -> list:
        raise NotImplementedError

    def manifest(self) -> list:
        raise NotImplementedError

    def top(self) -> str:
        raise NotImplementedError

    def changed(self) -> set:
        """Package names whose derivations differ between r1 and r2."""
        raise NotImplementedError

    def expected_files(self, rev: int, comps: dict) -> dict:
        """Profile-relative path -> bytes.  comps maps a package name to
        its store component, and SEED_LABEL to the seed's."""
        raise NotImplementedError


class Chain(Workload):
    """N pure-step packages, each depending on the previous three."""

    name = "chain"
    N = 40
    CHANGED = 2
    repeats = {"warm": 3, "publish": 3, "substitute": 2, "replay": 3}

    def __init__(self, seed):
        rng = random.Random(seed)
        self.names = ["c%03d" % i for i in range(self.N)]
        self.tokens = [_token(rng) for _ in self.names]

    def _deps(self, i):
        return self.names[max(0, i - 3):i]

    def _text(self, i, rev, ref):
        lines = [f"pkg {self.names[i]} token {self.tokens[i]}"]
        lines += [f"dep {ref(dep)}" for dep in self._deps(i)]
        lines.append(f"tool {ref(SEED_LABEL)}")
        if rev == 2 and i == self.CHANGED:
            lines.append("revision 2")
        return ("\n".join(lines) + "\n").encode()

    def packages(self, rev):
        template = lambda name: SEED_REF if name == SEED_LABEL else "{%s}" % name
        return [PackageDef(name=name, version="1.0", deps=self._deps(i),
                           steps=[d.write(f"share/{name}.txt",
                                          self._text(i, rev, template))])
                for i, name in enumerate(self.names)]

    def manifest(self):
        return list(self.names)

    def top(self):
        return self.names[-1]

    def changed(self):
        return set(self.names[self.CHANGED:])

    def expected_files(self, rev, comps):
        return {f"share/{name}.txt": self._text(i, rev, comps.__getitem__)
                for i, name in enumerate(self.names)}


class Blobs(Workload):
    """One large file and a tree of many small files, copied and concatenated."""

    name = "blobs"
    BIG = 4 << 20
    DIRS, FILES, SMALL = 40, 50, 256
    repeats = {"warm": 2, "publish": 2, "substitute": 2, "replay": 2}

    def __init__(self, seed):
        rng = random.Random(seed)
        self.big = rng.randbytes(self.BIG)
        self.tree = {f"d{i:02d}/f{j:03d}": rng.randbytes(self.SMALL)
                     for i in range(self.DIRS) for j in range(self.FILES)}
        # The bundle concatenates the big file with every 50th small file.
        self.picked = sorted(self.tree)[::50]

    def make_inputs(self, inputs):
        big = inputs / "big.bin"
        big.write_bytes(self.big)
        tree = inputs / "tree"
        for rel, data in self.tree.items():
            path = tree / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        self.sources = {}
        for label, path in (("big-src", big), ("tree-src", tree)):
            hex_digest, _ = refcarc.digest(path)
            self.sources[label] = SourceRef(url="file://" + str(path),
                                            expected_hash=ContentHash(hex_digest),
                                            label=label)

    def packages(self, rev):
        tree_steps = [d.copy("{src}", "share/tree")]
        if rev == 2:
            tree_steps.append(d.write("share/tree-news.txt", b"revision 2\n"))
        return [
            PackageDef(name="blob-big", version="1.0", source=self.sources["big-src"],
                       steps=[d.copy("{src}", "share/big.bin")]),
            PackageDef(name="blob-tree", version="1.0",
                       source=self.sources["tree-src"], steps=tree_steps),
            PackageDef(name="blob-bundle", version="1.0",
                       deps=["blob-big", "blob-tree"],
                       steps=[d.concat("share/bundle.bin", "{blob-big}/share/big.bin",
                                       *(f"{{blob-tree}}/share/tree/{rel}"
                                         for rel in self.picked)),
                              d.write("share/bundle-deps.txt",
                                      b"{blob-big}\n{blob-tree}\n")]),
        ]

    def manifest(self):
        return ["blob-big", "blob-tree", "blob-bundle"]

    def top(self):
        return "blob-bundle"

    def changed(self):
        return {"blob-tree", "blob-bundle"}

    def expected_files(self, rev, comps):
        files = {f"share/tree/{rel}": data for rel, data in self.tree.items()}
        files["share/big.bin"] = self.big
        files["share/bundle.bin"] = self.big + b"".join(self.tree[rel]
                                                        for rel in self.picked)
        files["share/bundle-deps.txt"] = (
            f"{comps['blob-big']}\n{comps['blob-tree']}\n".encode())
        if rev == 2:
            files["share/tree-news.txt"] = b"revision 2\n"
        return files


class Fanout(Workload):
    """W independent exec leaves and one package that concatenates them."""

    name = "fanout"
    W = 16
    workers = 2
    repeats = {"warm": 3, "publish": 3, "substitute": 2, "replay": 3}

    def __init__(self, seed):
        rng = random.Random(seed)
        self.leaves = ["fan-%02d" % i for i in range(self.W)]
        self.tokens = [_token(rng) for _ in self.leaves]

    def _args(self, i, rev):
        args = [self.tokens[i], self.leaves[i]]
        return args + ["revision-2"] if rev == 2 and i == 0 else args

    def packages(self, rev):
        leaves = [PackageDef(name=name, version="1.0",
                             steps=[d.mkdir("share"),
                                    d.exec_(SEED_REF + "/bin/wait",
                                            f"@out@/share/{name}.txt",
                                            *self._args(i, rev))])
                  for i, name in enumerate(self.leaves)]
        deps_text = "".join("{%s}\n" % name for name in self.leaves).encode()
        collector = PackageDef(
            name="fan-all", version="1.0", deps=list(self.leaves),
            steps=[d.concat("share/fan-all.txt",
                            *(f"{{{name}}}/share/{name}.txt" for name in self.leaves)),
                   d.write("share/fan-all-deps.txt", deps_text)])
        return leaves + [collector]

    def manifest(self):
        # The collector comes first, so its inputs are what the scheduler
        # builds in parallel.
        return ["fan-all"] + self.leaves

    def top(self):
        return "fan-all"

    def changed(self):
        return {self.leaves[0], "fan-all"}

    def expected_files(self, rev, comps):
        files = {f"share/{name}.txt": "".join(a + "\n" for a in self._args(i, rev)).encode()
                 for i, name in enumerate(self.leaves)}
        files["share/fan-all.txt"] = b"".join(files[f"share/{name}.txt"]
                                              for name in self.leaves)
        files["share/fan-all-deps.txt"] = "".join(
            comps[name] + "\n" for name in self.leaves).encode()
        return files


WORKLOADS = {w.name: w for w in (Chain, Blobs, Fanout)}
