"""Golden corpus: ``--format machine`` output and exit code of the CLI.

``golden_machine.json`` maps each command line (arguments joined by
single spaces) to ``"<exit code>:<digest>"``, the digest being the first
16 hex digits of the sha256 of stdout.  The corpus has one seeded
query per (command, cell) of the documented window, every filtration
stage (1, 2, 3 and inf) of every cell, ``validate-db``, odd-rank
Grassmannian queries and ``classify --space grassmann``.  Refactors
must keep it byte-identical.

Regenerate after a deliberate output change, from the repository root::

    PYTHONPATH=src python tests/test_golden_corpus.py

It prints every changed, added or removed entry and their count; each
changed entry is a changed answer.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout
from pathlib import Path

from coincalc import cli

CORPUS_PATH = Path(__file__).with_name("golden_machine.json")

N_MAX, STEM_MAX = 12, 8
FIELD_DIM = {"rp": 1, "cp": 2, "hp": 4}
Q_STAGES = ("1", "2", "3", "inf")
FREE_RANGE = (-2, 2)


def run_machine(argv: list[str]) -> tuple[str, str]:
    """``"<exit code>:<digest>"`` and the stdout of one query."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["--format", "machine"] + argv)
    out = buf.getvalue()
    return f"{code}:{hashlib.sha256(out.encode()).hexdigest()[:16]}", out


def test_golden_corpus(monkeypatch):
    # ``cli.main`` keeps one parser and one loaded table per process
    monkeypatch.delenv(cli.ENV_DB, raising=False)
    corpus = json.loads(CORPUS_PATH.read_text("utf-8"))
    assert len(corpus) > 2000
    mismatches = []
    for line, expected in corpus.items():
        actual, out = run_machine(line.split(" "))
        if actual != expected:
            mismatches.append(f"{line}\n  expected {expected}\n  got {actual}: {out}")
    assert not mismatches, (f"{len(mismatches)} golden mismatch(es):\n"
                            + "\n".join(mismatches[:20]))


# ---------------------------------------------------------------------------
# corpus generation


def _cells():
    """``(family, flag, dim, m)`` for every cell of the documented window."""
    for n in range(1, N_MAX + 1):
        for m in range(1, n + STEM_MAX + 1):
            yield "sphere", "--n", n, m
    for fam, d in FIELD_DIM.items():
        n_prime = 1
        while d * (n_prime + 1) - 1 <= N_MAX:
            for m in range(1, d * (n_prime + 1) - 1 + STEM_MAX + 1):
                yield fam, "--nprime", n_prime, m
            n_prime += 1
    for r in range(4, N_MAX + 1, 2):
        for m in range(1, r - 2 + STEM_MAX + 1):
            yield "grassmann", "--r", r, m


def _shape(fam, dim, m):
    """``(free_rank, torsion)`` of pi_m of the cell, ``None`` if unknown.

    Cells the CLI refuses still get coordinates where the group is known
    (``KP(1)`` is the sphere ``S^d``; pi_1 of ``KP(n')`` is C2 for K = R
    and trivial otherwise), so their refusals are pinned too.
    """
    flag = {"sphere": "--n"}.get(fam, "--nprime")
    _, out = run_machine(["pi-space", "--space", fam, flag, str(dim),
                                    "--m", str(m)])
    doc = json.loads(out)
    if doc["status"] == "ok":
        group = doc["payload"]["group"]
        return group["free_rank"], tuple(group["torsion"])
    if fam in FIELD_DIM and dim == 1:
        return _shape("sphere", FIELD_DIM[fam], m)
    if fam in FIELD_DIM and m == 1:
        return (0, (2,)) if fam == "rp" else (0, ())
    return None


def _coords(rng, shape) -> str:
    free, torsion = shape
    parts = [rng.randint(*FREE_RANGE) for _ in range(free)]
    parts += [rng.randrange(t) for t in torsion]
    return ",".join(map(str, parts)) or "()"


def corpus_argvs() -> list[list[str]]:
    rng = random.Random("golden-corpus")
    argvs = []
    for fam, flag, dim, m in _cells():
        target = ["--space", fam, flag, str(dim), "--m", str(m)]
        if fam == "sphere":
            argvs.append(["pi-sphere", "--m", str(m), "--n", str(dim)])
        if fam == "grassmann":
            argvs.append(["grassmann", "--r", str(dim), "--m", str(m)])
            argvs.append(["loose"] + target)
        argvs.append(["pi-space"] + target)
        argvs += [["filtration"] + target + ["--q", q] for q in Q_STAGES]
        shape = None if fam == "grassmann" else _shape(fam, dim, m)
        if shape is not None:
            for cmd in ("classify", "loose"):
                argvs.append([cmd] + target + ["--f1", _coords(rng, shape),
                                               "--f2", _coords(rng, shape)])
    for r in range(3, N_MAX + 1, 2):
        argvs.append(["grassmann", "--r", str(r)])
        for m in (3, r):
            target = ["--space", "grassmann", "--r", str(r), "--m", str(m)]
            argvs += [["loose"] + target, ["pi-space"] + target,
                      ["filtration"] + target + ["--q", "2"]]
    for r in (4, 6):
        argvs.append(["classify", "--space", "grassmann", "--r", str(r),
                      "--m", "5", "--f1", "0", "--f2", "0"])
    argvs.append(["validate-db"])
    return argvs


def main() -> None:
    os.environ.pop(cli.ENV_DB, None)  # the corpus pins the shipped table
    old = json.loads(CORPUS_PATH.read_text("utf-8")) if CORPUS_PATH.exists() else {}
    corpus = {}
    for argv in corpus_argvs():
        line = " ".join(argv)
        assert line.split(" ") == argv, argv
        corpus.setdefault(line, run_machine(argv)[0])
    changes = [f"changed {line}: {old[line]} -> {value}"
               for line, value in corpus.items() if old.get(line, value) != value]
    changes += [f"added {line}: {corpus[line]}" for line in corpus if line not in old]
    changes += [f"removed {line}: {old[line]}" for line in old if line not in corpus]
    print("\n".join(changes + [f"{len(changes)} entries changed, added or removed"]))
    CORPUS_PATH.write_text(json.dumps(corpus, indent=0) + "\n", "utf-8")
    print(f"{len(corpus)} entries written to {CORPUS_PATH.name}")


if __name__ == "__main__":
    main()
