"""Mass transport on colored degrees.

A colored degree sequence is a matrix with one column per vertex and one row
per colour: p diagonal-colour rows with even sums, then m conjugate pairs of
rows with equal sums.  The transport rewrites it so its column sums match a
prescribed target vector while touching few columns: a bounded number
depending only on the entry bounds L and M and on how many columns already
disagree, never on n.

The matrix is held by column, as each vertex's (colour, count) row.  Cost:
one O(nnz) pass finds the row sums, each colour's positive columns, the max
entry and the mismatch set I, and ends the work when I is empty.  After it,
each row block reads only the columns of I and the few columns it draws mass
from, so the rest costs O(|I|) per block plus the touched columns, never a
scan of all n.  ``DegreeMatrix`` is the dense file format of the
``transport`` subcommand, which ``transport_general`` feeds to the same
algorithm.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence, TextIO

from .colored import Color, ColorSet, ColoredDegreeSequence
from .errors import Infeasible, InvalidSequence, LocalGraphsError
from .graphs import DegreeSequence


@dataclass(frozen=True)
class DegreeMatrix:
    """Rows 1..p are diagonal-color rows; rows p+2i-1, p+2i are conjugate pairs."""

    p: int
    m: int
    a: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.a) != self.p + 2 * self.m:
            raise InvalidSequence(
                f"expected {self.p + 2 * self.m} rows, got {len(self.a)}"
            )
        widths = {len(row) for row in self.a}
        if len(widths) > 1:
            raise InvalidSequence("ragged rows")
        if any(x < 0 for row in self.a for x in row):
            raise InvalidSequence("negative entry")
        for i in range(self.p):
            if sum(self.a[i]) % 2 != 0:
                raise InvalidSequence(f"row {i + 1} has odd sum")
        for i in range(self.m):
            r = self.p + 2 * i
            if sum(self.a[r]) != sum(self.a[r + 1]):
                raise InvalidSequence(f"rows {r + 1} and {r + 2} have unequal sums")

    @property
    def n(self) -> int:
        return len(self.a[0]) if self.a else 0

    @property
    def rows(self) -> int:
        return self.p + 2 * self.m

    def max_entry(self) -> int:
        return max((x for row in self.a for x in row), default=0)


@dataclass(frozen=True)
class TargetDegrees:
    beta: tuple[int, ...]
    bound: int

    def __post_init__(self):
        if any(b < 0 for b in self.beta):
            raise InvalidSequence("negative target entry")
        if any(b > self.bound for b in self.beta):
            raise InvalidSequence(f"target entry exceeds bound {self.bound}")
        if sum(self.beta) % 2 != 0:
            raise InvalidSequence("target sum must be even")

    @classmethod
    def of(cls, beta: tuple[int, ...]) -> "TargetDegrees":
        return cls(beta, max(beta, default=0))


def column_degrees(A: DegreeMatrix) -> tuple[int, ...]:
    return tuple(sum(row[j] for row in A.a) for j in range(A.n))


def mismatch_columns(A: DegreeMatrix, beta: TargetDegrees) -> list[int]:
    deg = column_degrees(A)
    return [j for j in range(A.n) if deg[j] != beta.beta[j]]


def changed_columns(A: DegreeMatrix, B: DegreeMatrix) -> int:
    return sum(
        1
        for j in range(A.n)
        if any(A.a[i][j] != B.a[i][j] for i in range(A.rows))
    )


def _change_bound(blocks: int, L: int, M: int, s: int) -> int:
    return blocks * ((2 * L + M) * (s + 1) + s + 2)


def change_bound(A: DegreeMatrix, beta: TargetDegrees) -> int:
    """Worst-case number of columns the transport may touch."""
    return _change_bound(A.p + A.m, A.max_entry(), beta.bound, len(mismatch_columns(A, beta)))


Row = tuple[tuple[Hashable, int], ...]


def _transport(
    rows: Sequence[Row], beta: TargetDegrees, blocks_of: Callable[[Iterable], list[tuple]]
) -> tuple[dict[int, Row], int]:
    """Rewrite the columns ``rows`` so column v sums to beta[v].

    ``blocks_of`` maps the colours with a positive entry to the solver's rows:
    a 1-tuple per diagonal colour, then (c, conj c) per conjugate pair.  Block
    0 takes what the mismatch set I needs; every other block keeps its column
    sums outside I, less one unit at its first positive column outside I when
    its mass on I is odd.  Returns the sorted, zero-free rows of the columns
    that changed, and the bound on how many may change.
    """
    sums: dict = {}
    support: dict = {}  # colour -> ascending columns where it is positive
    L = 0
    I = []
    for v, row in enumerate(rows):
        deg = 0
        for c, k in row:
            if k:
                sums[c] = sums.get(c, 0) + k
                support.setdefault(c, []).append(v)
                deg += k
                if k > L:
                    L = k
        if deg != beta.beta[v]:
            I.append(v)
    blocks = blocks_of(sums)
    bound = _change_bound(len(blocks), L, beta.bound, len(I))
    if not I:
        return {}, bound
    if not blocks:
        raise Infeasible("no colour can carry the target degrees")
    cache: dict[int, dict] = {}

    def at(v: int) -> dict:
        if v not in cache:
            cache[v] = dict(rows[v])
        return cache[v]

    def block_sum(block: tuple, v: int) -> int:
        return sum(at(v).get(c, 0) for c in block)

    # each target is the block's own column sums, overridden on a few columns
    targets = [{v: beta.beta[v] for v in I}]
    for block in blocks[1:]:
        tgt = dict.fromkeys(I, 0)
        if sum(block_sum(block, v) for v in I) % 2:
            # the block's total is even, so its mass outside I is odd and the
            # parity fix always finds a positive column there
            firsts = (next((v for v in support.get(c, ()) if v not in tgt), None) for c in block)
            j = min(v for v in firsts if v is not None)
            tgt[j] = block_sum(block, j) - 1
            targets[0][j] = targets[0].get(j, block_sum(blocks[0], j)) + 1
        targets.append(tgt)

    out: dict[int, dict] = {}
    for block, tgt in zip(blocks, targets):
        moved = {v: t for v, t in tgt.items() if t != block_sum(block, v)}
        if len(block) == 2 and moved:
            total = sum(sums.get(c, 0) for c in block) + sum(
                t - block_sum(block, v) for v, t in tgt.items()
            )
            moved = _pair(block, moved, total, len(rows), sums, support, at)
        else:
            moved = {v: (t,) for v, t in moved.items()}
        for v, entries in moved.items():
            out.setdefault(v, {}).update(zip(block, entries))

    changed = {}
    for v, new in out.items():
        row = tuple(sorted((c, k) for c, k in {**at(v), **new}.items() if k))
        if sum(k for _, k in row) != beta.beta[v]:
            raise LocalGraphsError("transport missed the target column degrees")
        if row != rows[v]:
            changed[v] = row
    if not set(I) <= changed.keys():
        raise LocalGraphsError("transport missed the target column degrees")
    if len(changed) > bound:
        raise LocalGraphsError(f"transport changed {len(changed)} columns, above its bound {bound}")
    return changed, bound


def _pair(block, tgt, total, n, sums, support, at) -> dict[int, list[int]]:
    """Two-row transport of the pair ``block`` onto the targets ``tgt`` of its
    mismatch columns, its other columns keeping their sums.

    The anchor is the lowest column outside the mismatch set.  The mismatch
    columns take their whole target in the first row; the anchor balances the
    two row sums and parks an even excess, which moves out two units at a
    time through the lowest column whose entry in the lighter row is >= 1;
    in that scan column 0 stands where the anchor would.
    """
    anchor = next(j for j in range(len(tgt) + 1) if j not in tgt)
    if anchor >= n:
        raise Infeasible("every column mismatches; no anchor column available")
    c0, c1 = block
    P1 = sums.get(c0, 0) - sum(at(v).get(c0, 0) for v in (*tgt, anchor))
    P2 = sums.get(c1, 0) - sum(at(v).get(c1, 0) for v in (*tgt, anchor))
    Q = sum(tgt.values())
    R = max(P1 + Q, P2, -(-total // 2))
    b = {v: [t, 0] for v, t in tgt.items()}
    x = b[anchor] = [R - P1 - Q, R - P2]
    r = 2 * R - total
    if r < 0 or r % 2 != 0:
        raise LocalGraphsError(f"excess {r} parked in the anchor column is not a nonnegative even number")
    while r > 0:
        if x[0] == x[1]:
            x[0] -= r // 2
            x[1] -= r // 2
            break
        hi, lo = (0, 1) if x[0] > x[1] else (1, 0)
        # the two rows have equal sums and the lighter one is lighter at the
        # anchor, so it has a unit elsewhere: a column already rewritten, or
        # else the first of its untouched positive columns
        candidates = [v for v, y in b.items() if v != anchor and y[lo] >= 1]
        candidates += [next((v for v in support.get(block[lo], ()) if v not in b), None)]
        k = min((v for v in candidates if v is not None), key=lambda v: anchor if v == 0 else v)
        if k not in b:
            b[k] = [at(k).get(c0, 0), at(k).get(c1, 0)]
        x[hi] -= 2
        b[k][hi] += 1
        b[k][lo] -= 1
        r -= 2
    return b


def transport_general(A: DegreeMatrix, beta: TargetDegrees) -> DegreeMatrix:
    """Transport the dense matrix A onto the column sums beta; its rows are
    the colours 0 .. p + 2m - 1."""
    if len(beta.beta) != A.n:
        raise InvalidSequence("target length mismatch")
    columns = [tuple((i, row[v]) for i, row in enumerate(A.a) if row[v]) for v in range(A.n)]
    blocks = [(i,) for i in range(A.p)] + [(i, i + 1) for i in range(A.p, A.rows, 2)]
    changed, _ = _transport(columns, beta, lambda present: blocks)
    if not changed:
        return A
    a = [list(row) for row in A.a]
    for v, column in changed.items():
        entries = dict(column)
        for i, row in enumerate(a):
            row[v] = entries.get(i, 0)
    return DegreeMatrix(A.p, A.m, tuple(map(tuple, a)))


def _colour_blocks(present: Iterable[Color]) -> list[tuple[Color, ...]]:
    """Sorted diagonal colours, then sorted conjugate pairs c < conj(c)."""
    diagonal = sorted(c for c in present if c[0] == c[1])
    pairs = sorted(c for c in present if c[0] < c[1])
    return [(c,) for c in diagonal] + [(c, ColorSet.conjugate(c)) for c in pairs]


@dataclass(frozen=True)
class ColoredModification:
    sequence: ColoredDegreeSequence
    changed_vertices: int
    bound: int


def modify_colored_degrees(
    D: ColoredDegreeSequence, ell: DegreeSequence
) -> ColoredModification:
    """Adjust per-vertex colored degrees so their totals match ell exactly;
    D itself comes back when they already do."""
    if D.n != ell.n:
        raise InvalidSequence("vertex count mismatch")
    changed, bound = _transport(D.degrees, TargetDegrees.of(ell.ell), _colour_blocks)
    if not changed:
        return ColoredModification(D, 0, bound)
    rows = list(D.degrees)
    for v, row in changed.items():
        rows[v] = row
    return ColoredModification(ColoredDegreeSequence(D.colors, tuple(rows)), len(changed), bound)


# --- text formats -----------------------------------------------------------


def write_matrix(A: DegreeMatrix, fh: TextIO):
    fh.write(f"dmat {A.p} {A.m} {A.n}\n")
    for row in A.a:
        fh.write(" ".join(str(x) for x in row) + "\n")


def read_matrix(fh: TextIO) -> DegreeMatrix:
    header = fh.readline().split()
    if len(header) != 4 or header[0] != "dmat":
        raise InvalidSequence("expected 'dmat <p> <m> <n>' header")
    p, m, n = int(header[1]), int(header[2]), int(header[3])
    rows = []
    for _ in range(p + 2 * m):
        parts = fh.readline().split()
        if len(parts) != n:
            raise InvalidSequence("row width does not match header")
        rows.append(tuple(int(x) for x in parts))
    return DegreeMatrix(p, m, tuple(rows))


def write_targets(beta: TargetDegrees, fh: TextIO):
    fh.write(f"beta {len(beta.beta)}\n")
    fh.write(" ".join(str(x) for x in beta.beta) + "\n")


def read_targets(fh: TextIO) -> TargetDegrees:
    header = fh.readline().split()
    if len(header) != 2 or header[0] != "beta":
        raise InvalidSequence("expected 'beta <n>' header")
    n = int(header[1])
    parts = fh.readline().split()
    if len(parts) != n:
        raise InvalidSequence("target width does not match header")
    return TargetDegrees.of(tuple(int(x) for x in parts))
