"""Mass transport on colored-degree matrices.

A (p+2m) x n nonnegative integer matrix whose first p rows have even sums and
whose remaining rows pair up with equal sums encodes a colored degree
sequence.  The transport algorithm rewrites such a matrix so its column sums
match a prescribed target vector while touching few columns: a bounded number
depending only on the entry bounds L and M and on how many columns already
disagree, never on n.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

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


def change_bound(A: DegreeMatrix, beta: TargetDegrees) -> int:
    """Worst-case number of columns the transport may touch."""
    L = A.max_entry()
    M = beta.bound
    s = len(mismatch_columns(A, beta))
    return (A.p + A.m) * ((2 * L + M) * (s + 1) + s + 2)


def transport_case_p1(A: DegreeMatrix, beta: TargetDegrees) -> DegreeMatrix:
    """Single even-sum row: the row is its own column-degree vector."""
    if A.p != 1 or A.m != 0:
        raise InvalidSequence("expected p=1, m=0")
    if len(beta.beta) != A.n:
        raise InvalidSequence("target length mismatch")
    return DegreeMatrix(1, 0, (beta.beta,))


def _swap_columns(rows: list[list[int]], j: int, k: int):
    for row in rows:
        row[j], row[k] = row[k], row[j]


def _case_m1_core(a: list[list[int]], beta: list[int], I: list[int]) -> list[list[int]]:
    """Two-row transport assuming column 0 is not in the mismatch set I."""
    n = len(beta)
    inside = set(I) | {0}
    total_beta = sum(beta)
    # route everything in the mismatch columns (and column 0) to column 0,
    # keeping the two row sums equal
    P1 = sum(a[0][j] for j in range(n) if j not in inside)
    P2 = sum(a[1][j] for j in range(n) if j not in inside)
    Q = sum(beta[j] for j in I if j != 0)
    R = max(P1 + Q, P2, -(-total_beta // 2))
    b = [list(a[0]), list(a[1])]
    for j in I:
        if j != 0:
            b[0][j] = beta[j]
            b[1][j] = 0
    b[0][0] = R - P1 - Q
    b[1][0] = R - P2
    r = 2 * R - total_beta  # excess parked in column 0; even since sum(beta) is
    if r < 0 or r % 2 != 0:
        raise LocalGraphsError(f"excess {r} parked in column 0 is not a nonnegative even number")
    while r > 0:
        if b[0][0] == b[1][0]:
            half = r // 2
            b[0][0] -= half
            b[1][0] -= half
            r = 0
            continue
        hi, lo = (0, 1) if b[0][0] > b[1][0] else (1, 0)
        k = next((j for j in range(1, n) if b[lo][j] >= 1), None)
        if k is None:
            raise Infeasible("no column available for the excess move")
        b[hi][0] -= 2
        b[hi][k] += 1
        b[lo][k] -= 1
        r -= 2
    return b


def transport_case_m1(A: DegreeMatrix, beta: TargetDegrees) -> DegreeMatrix:
    """One conjugate pair of rows with equal sums."""
    if A.p != 0 or A.m != 1:
        raise InvalidSequence("expected p=0, m=1")
    if len(beta.beta) != A.n:
        raise InvalidSequence("target length mismatch")
    I = mismatch_columns(A, beta)
    if not I:
        return A
    a = [list(A.a[0]), list(A.a[1])]
    bvec = list(beta.beta)
    anchor = next((j for j in range(A.n) if j not in set(I)), None)
    if anchor is None:
        raise Infeasible("every column mismatches; no anchor column available")
    if anchor != 0:
        _swap_columns(a, 0, anchor)
        bvec[0], bvec[anchor] = bvec[anchor], bvec[0]
        I = [0 if j == anchor else (anchor if j == 0 else j) for j in I]
    out = _case_m1_core(a, bvec, I)
    if anchor != 0:
        _swap_columns(out, 0, anchor)
    return DegreeMatrix(0, 1, (tuple(out[0]), tuple(out[1])))


def _sub_target(rows: list[tuple[int, ...]], outside: list[int], inside: set[int]) -> list[int]:
    """Target for a non-first subproblem: retain out-of-mismatch column sums,
    decrementing one entry when the retained total is odd."""
    n = len(rows[0])
    tgt = [sum(row[j] for row in rows) if j not in inside else 0 for j in range(n)]
    if sum(tgt) % 2 != 0:
        j_star = next((j for j in outside if tgt[j] > 0), None)
        if j_star is None:
            raise Infeasible("no positive entry outside the mismatch set for a parity fix")
        tgt[j_star] -= 1
    return tgt


def transport_general(A: DegreeMatrix, beta: TargetDegrees) -> DegreeMatrix:
    """Dispatch to the single-row and row-pair solvers via submatrix targets."""
    if len(beta.beta) != A.n:
        raise InvalidSequence("target length mismatch")
    if A.p == 1 and A.m == 0:
        return transport_case_p1(A, beta)
    if A.p == 0 and A.m == 1:
        return transport_case_m1(A, beta)
    I = mismatch_columns(A, beta)
    if not I:
        return A
    inside = set(I)
    outside = [j for j in range(A.n) if j not in inside]

    blocks: list[list[tuple[int, ...]]] = []
    for i in range(A.p):
        blocks.append([A.a[i]])
    for i in range(A.m):
        blocks.append([A.a[A.p + 2 * i], A.a[A.p + 2 * i + 1]])

    targets: list[list[int]] = [None] * len(blocks)  # type: ignore[list-item]
    for i in range(1, len(blocks)):
        targets[i] = _sub_target(blocks[i], outside, inside)
    first = list(beta.beta)
    for i in range(1, len(blocks)):
        for j in range(A.n):
            first[j] -= targets[i][j]
    if any(x < 0 for x in first):
        raise Infeasible("residual target for the first subproblem went negative")
    targets[0] = first

    out_rows: list[tuple[int, ...]] = []
    for i, block in enumerate(blocks):
        tgt = TargetDegrees.of(tuple(targets[i]))
        if len(block) == 1:
            sub = transport_case_p1(DegreeMatrix(1, 0, (block[0],)), tgt)
        else:
            sub = transport_case_m1(DegreeMatrix(0, 1, tuple(block)), tgt)
        out_rows.extend(sub.a)
    # reassemble in original row order: diagonal rows first, then the pairs
    diag = out_rows[: A.p]
    rest = out_rows[A.p :]
    result = DegreeMatrix(A.p, A.m, tuple(diag + rest))
    if column_degrees(result) != beta.beta:
        raise LocalGraphsError("transport missed the target column degrees")
    if changed_columns(A, result) > change_bound(A, beta):
        raise LocalGraphsError("transport changed more columns than its bound")
    return result


# --- colored-sequence wrapper -----------------------------------------------


def color_row_order(colors: ColorSet, present: set[Color]) -> tuple[list[Color], int, int]:
    """Row order: sorted diagonal colors, then sorted conjugate pairs."""
    diag = sorted(c for c in present if c == ColorSet.conjugate(c))
    pairs = sorted(c for c in present if c < ColorSet.conjugate(c))
    order = list(diag)
    for c in pairs:
        order.append(c)
        order.append(ColorSet.conjugate(c))
    return order, len(diag), len(pairs)


def colored_to_matrix(D: ColoredDegreeSequence) -> tuple[DegreeMatrix, list[Color]]:
    present: set[Color] = set()
    for v in range(D.n):
        for c, k in D.degrees[v]:
            if k:
                present.add(c)
                present.add(ColorSet.conjugate(c))
    order, p, m = color_row_order(D.colors, present)
    index = {c: i for i, c in enumerate(order)}
    rows = [[0] * D.n for _ in order]
    # scatter each vertex's nonzero entries; a zero entry's colour may have no row
    for v in range(D.n):
        for c, k in D.degrees[v]:
            if k:
                rows[index[c]][v] = k
    return DegreeMatrix(p, m, tuple(map(tuple, rows))), order


def matrix_to_colored(
    A: DegreeMatrix, order: list[Color], colors: ColorSet
) -> ColoredDegreeSequence:
    maps: list[dict[Color, int]] = []
    for v in range(A.n):
        row_map: dict[Color, int] = {}
        for i, c in enumerate(order):
            if A.a[i][v]:
                row_map[c] = A.a[i][v]
        maps.append(row_map)
    return ColoredDegreeSequence.from_maps(colors, maps)


@dataclass(frozen=True)
class ColoredModification:
    sequence: ColoredDegreeSequence
    changed_vertices: int
    bound: int


def modify_colored_degrees(
    D: ColoredDegreeSequence, ell: DegreeSequence
) -> ColoredModification:
    """Adjust per-vertex colored degrees so their totals match ell exactly."""
    if D.n != ell.n:
        raise InvalidSequence("vertex count mismatch")
    A, order = colored_to_matrix(D)
    beta = TargetDegrees.of(tuple(ell.ell))
    out = transport_general(A, beta)
    seq = matrix_to_colored(out, order, D.colors)
    changed = sum(1 for v in range(D.n) if seq.degrees[v] != D.degrees[v])
    bound = change_bound(A, beta)
    if changed > bound:
        raise LocalGraphsError(f"transport changed {changed} vertices, above its bound {bound}")
    return ColoredModification(seq, changed, bound)


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
