"""Seeded query generation over the documented coincalc window.

The window is every target whose spheres lie in the shipped table's
dimension range (``1 <= n <= 12``, stems up to 8), with the source
dimension running from ``m = 1``:

* spheres ``S^n``, ``1 <= n <= 12``, ``1 <= m <= n + 8``;
* ``KP(n')`` with lift sphere ``S^L``, ``L = d(n'+1) - 1 <= 12``,
  ``1 <= m <= L + 8`` (``n' >= 1``, so ``KP(1)`` is included);
* ``G(r,2)`` for even ``4 <= r <= 12``, ``1 <= m <= r + 6``.

Trivial cells (``m`` below the dimension), gap cells and the known
refusal cells (``m = 1``, ``n' = 1``) are all kept at their natural
share.  The shape of ``pi_m`` of each cell is derived here, from the
table file and the splitting formulas, independently of the package;
it is used to draw coordinates and to check ``pi-space`` answers.  A
cell whose shape the table cannot give has ``shape = None``.

Only the generated queries reach the program.  A query is a tuple
``(command, family, dim, m, f1, f2, q)``; unused fields are ``None``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

FIELD_DIM = {"rp": 1, "cp": 2, "hp": 4}
FREE_RANGE = (-2, 2)  # free coordinates are drawn from this interval
Q_STAGES = ("1", "2", "3", "inf")
ZIPF_S = 1.0
PHASE_BLOCKS = 2  # pair-stream passes over the window between hot-set draws

CLI_COMMANDS = ("pi-sphere", "pi-space", "filtration", "classify", "loose",
                "grassmann")
STREAM_OPS = ("classify", "loose", "filtration")


@dataclass(frozen=True)
class Cell:
    family: str
    dim: int  # n for spheres, n' for projective spaces, r for G(r,2)
    m: int
    shape: tuple | None  # (free_rank, torsion tuple) of pi_m, None = unknown

    @property
    def key(self) -> tuple:
        return (self.family, self.dim, self.m)


def _factor(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def direct_sum_shape(a, b):
    """Invariant factors of the direct sum of two groups in
    ``(free_rank, torsion)`` form; ``None`` when either is unknown."""
    if a is None or b is None:
        return None
    powers: dict[int, list[int]] = {}
    for t in a[1] + b[1]:
        for p, e in _factor(t).items():
            powers.setdefault(p, []).append(p ** e)
    count = max((len(v) for v in powers.values()), default=0)
    factors = [1] * count
    for v in powers.values():
        v.sort(reverse=True)
        for i, q in enumerate(v):
            factors[i] *= q
    return (a[0] + b[0], tuple(sorted(factors)))


class Table:
    """``pi_m(S^n)`` shapes from the shipped table file plus the analytic
    rules the table documents."""

    def __init__(self, data_path: Path):
        doc = json.loads(Path(data_path).read_text("utf-8"))
        self.n_max = doc["range"]["n_max"]
        self.stem_max = doc["range"]["stem_max"]
        self._groups = {
            (g["m"], g["n"]): (g["free_rank"], tuple(g["torsion"]))
            for g in doc["sphere_groups"]
        }

    def sphere(self, m: int, n: int):
        if m < n:
            return (0, ())
        if m == n:
            return (1, ())
        if n == 1:
            return (0, ())
        return self._groups.get((m, n))

    def projective(self, family: str, m: int, n_prime: int):
        d = FIELD_DIM[family]
        if n_prime == 1:
            return self.sphere(m, d)  # KP(1) is the sphere S^d
        if m == 1:
            return (0, (2,)) if d == 1 else (0, ())
        lift = self.sphere(m, d * n_prime + d - 1)
        c = (0, ()) if d == 1 else self.sphere(m - 1, d - 1)
        return direct_sum_shape(lift, c)

    def grassmann(self, m: int, r: int):
        half = r // 2 - 1
        cp = self.sphere(m, 2) if half == 1 else self.projective("cp", m, half)
        return direct_sum_shape(self.projective("rp", m, r - 2), cp)


def window(table: Table) -> list[Cell]:
    cells = []
    top = table.n_max
    for n in range(1, top + 1):
        for m in range(1, n + table.stem_max + 1):
            cells.append(Cell("sphere", n, m, table.sphere(m, n)))
    for fam, d in FIELD_DIM.items():
        n_prime = 1
        while d * (n_prime + 1) - 1 <= top:
            lift = d * (n_prime + 1) - 1
            for m in range(1, lift + table.stem_max + 1):
                cells.append(Cell(fam, n_prime, m,
                                  table.projective(fam, m, n_prime)))
            n_prime += 1
    for r in range(4, top + 1, 2):
        for m in range(1, r - 2 + table.stem_max + 1):
            cells.append(Cell("grassmann", r, m, table.grassmann(m, r)))
    return cells


def _coords(rng: random.Random, shape) -> str:
    free, torsion = shape
    parts = [rng.randint(*FREE_RANGE) for _ in range(free)]
    parts += [rng.randrange(t) for t in torsion]
    return ",".join(map(str, parts))


def _query(rng: random.Random, cmd: str, cell: Cell) -> tuple:
    f1 = f2 = q = None
    if cmd in ("classify", "loose") and cell.family != "grassmann":
        f1, f2 = _coords(rng, cell.shape), _coords(rng, cell.shape)
    elif cmd == "filtration":
        q = rng.choice(Q_STAGES)
    return (cmd, cell.family, cell.dim, cell.m, f1, f2, q)


def _applies(cmd: str, cell: Cell) -> bool:
    if cmd == "pi-sphere":
        return cell.family == "sphere"
    if cmd == "grassmann":
        return cell.family == "grassmann"
    if cmd == "classify":
        return cell.family != "grassmann" and cell.shape is not None
    if cmd == "loose":
        return cell.family == "grassmann" or cell.shape is not None
    return True


def cli_queries(cells: list[Cell], seed: int):
    """Endless ``cli-single`` stream: the six commands in equal shares
    (shuffled blocks, so every seed has the same mix), each on a cell
    drawn uniformly from the cells the command applies to."""
    rng = random.Random(f"cli-single:{seed}")
    pools = {c: [cell for cell in cells if _applies(c, cell)]
             for c in CLI_COMMANDS}
    while True:
        block = list(CLI_COMMANDS)
        rng.shuffle(block)
        for cmd in block:
            yield _query(rng, cmd, rng.choice(pools[cmd]))


def region(cell: Cell) -> str:
    """Coarse cell class the program's cost and outcome depend on: the
    window edge (``m = 1``, ``KP(1)``, ``G(r,2)`` below ``m = 3``), cells
    whose group is unknown or trivial, and the rest."""
    if cell.m == 1 or (cell.family in FIELD_DIM and cell.dim == 1) or (
            cell.family == "grassmann" and cell.m < 3):
        return "edge"
    if cell.shape is None:
        return "unknown"
    return "trivial" if cell.shape == (0, ()) else "main"


def stream_queries(cells: list[Cell], seed: int):
    """Endless ``pair-stream`` stream.

    Cells are split into strata by family and :func:`region`.  Strata are
    visited in shuffled blocks holding each stratum once per cell it has,
    so every seed sees each at its natural share.  Within a stratum, cells
    follow a Zipf law over a seeded permutation, which makes most calls
    revisit an instance.  The permutations are drawn afresh every
    ``PHASE_BLOCKS`` blocks: the hot set drifts, and a run averages over
    many hot sets instead of hanging on one seed's few hottest cells.  The
    operation is drawn among those the cell supports.
    """
    rng = random.Random(f"pair-stream:{seed}")
    strata: dict[tuple, list[Cell]] = {}
    for c in cells:
        strata.setdefault((c.family, region(c)), []).append(c)
    cum = {k: list(accumulate(1.0 / (rank ** ZIPF_S)
                              for rank in range(1, len(members) + 1)))
           for k, members in strata.items()}
    block = [(c.family, region(c)) for c in cells]
    while True:
        for members in strata.values():
            rng.shuffle(members)
        for _ in range(PHASE_BLOCKS):
            rng.shuffle(block)
            for key in block:
                cell = rng.choices(strata[key], cum_weights=cum[key])[0]
                ops = [op for op in STREAM_OPS if _applies(op, cell)]
                yield _query(rng, rng.choice(ops), cell)


def cli_argv(query: tuple) -> list[str]:
    """Command-line arguments (after ``--format machine``) for a query."""
    cmd, fam, dim, m, f1, f2, q = query
    if cmd == "pi-sphere":
        return [cmd, "--m", str(m), "--n", str(dim)]
    if cmd == "grassmann":
        return [cmd, "--r", str(dim), "--m", str(m)]
    flag = {"sphere": "--n", "grassmann": "--r"}.get(fam, "--nprime")
    argv = [cmd, "--space", fam, flag, str(dim), "--m", str(m)]
    if q is not None:
        argv += ["--q", q]
    if f1 is not None:
        argv += ["--f1", f1, "--f2", f2]
    return argv


def instance_key(query: tuple) -> tuple:
    """The instance a query builds data for: its target and ``m``."""
    return query[1:4]


def query_key(query: tuple) -> str:
    return "|".join("" if v is None else str(v) for v in query)
