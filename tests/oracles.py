"""Independent brute-force oracles used by the tests.

Nothing here shares logic with the package's canonical-code machinery: the
isomorphism oracle is a plain backtracking search over vertex bijections and
the BFS is written from scratch, so agreement is meaningful evidence.  The
exceptions below each take one piece from the package and check another
against a slower reference:

- ``lp_flow_oracle`` takes the per-truncation radius profiles and checks the
  closed form of d_LP against the general max-flow formulation;
- ``ir_certificate_oracle`` takes the certificate serialization and checks the
  pruned search against the full one;
- ``refine_oracle`` takes the neighbour keys and checks the cell-wise
  refinement against the round-synchronous one it replaced;
- ``unimodular_all_pairs_oracle`` takes the pair classes and balances every
  ordered pair of a component, where the package balances edges only;
- ``dense_transport`` takes the matrix and target types and the postcondition
  checks, and checks the column-sparse transport against the dense
  colours x n algorithm it replaced;
- ``depth_classes_oracle``, ``direction_element_oracle``,
  ``truncate_measure_oracle`` and ``radius_profile_oracle`` take ``ball``
  and ``canonicalize`` and check the depth-k codes written from the
  directed-entry memo against the per-ball path they replaced;
- ``tree_orders_oracle`` takes the tree entries and walks each root's
  preorder with a stack, where the package joins shared subtree preorders;
- ``weights_valid_oracle``, ``total_variation_oracle``,
  ``levy_prokhorov_oracle`` and ``unimodular_edge_pairs_oracle`` sum
  ``Fraction`` weights one by one, and check the measure layer's sums of
  integer numerators over a common denominator; ``levy_prokhorov_oracle``
  also reads every radius of every rep, where the package scans radii
  upward from the atoms' sources and stops at the crossing.

``exact_law`` runs a sampler under every sequence of choices a
``BranchingRandom`` can make, so a sampler's law at tiny n is an exact sum of
``Fraction`` weights, not a Monte Carlo estimate.
"""
import random
from fractions import Fraction

from localgraphs.errors import AttemptsExhausted, InvalidSequence
from localgraphs.graphs import MarkedGraph, RootedMarkedGraph


def isomorphic_oracle(a: RootedMarkedGraph, b: RootedMarkedGraph) -> bool:
    """Root-preserving marked isomorphism via backtracking over mappings."""
    ga, gb = a.graph, b.graph
    if ga.n != gb.n or len(ga.edges) != len(gb.edges):
        return False
    if ga.tau[a.root] != gb.tau[b.root]:
        return False

    mapping = {a.root: b.root}
    used = {b.root}

    def compatible(u: int, v: int) -> bool:
        if ga.tau[u] != gb.tau[v] or ga.degree(u) != gb.degree(v):
            return False
        for w in ga.adjacency[u]:
            if w in mapping:
                z = mapping[w]
                if (min(v, z), max(v, z)) not in gb.edges:
                    return False
                if ga.xi[(u, w)] != gb.xi[(v, z)] or ga.xi[(w, u)] != gb.xi[(z, v)]:
                    return False
        return True

    order = [v for v in ga.component(a.root) if v != a.root]

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        u = order[idx]
        for v in range(gb.n):
            if v in used:
                continue
            if compatible(u, v):
                mapping[u] = v
                used.add(v)
                if extend(idx + 1):
                    return True
                del mapping[u]
                used.discard(v)
        return False

    if not compatible(a.root, b.root):
        return False
    return extend(0)


def partition_by_isomorphism(rooted: list[RootedMarkedGraph]) -> list[list[int]]:
    """Group indices into isomorphism classes by pairwise oracle calls."""
    groups: list[list[int]] = []
    for i, g in enumerate(rooted):
        for grp in groups:
            if isomorphic_oracle(g, rooted[grp[0]]):
                grp.append(i)
                break
        else:
            groups.append([i])
    return groups


def girth_oracle(adj: list[set[int]]) -> float:
    """Exact girth of a simple graph: for every edge, remove it and find the
    shortest remaining path between its endpoints."""
    from collections import deque

    best = float("inf")
    for u in range(len(adj)):
        for v in adj[u]:
            if v < u:
                continue
            dist = {u: 0}
            queue = deque([u])
            while queue:
                a = queue.popleft()
                for b in adj[a]:
                    if (a, b) in ((u, v), (v, u)):
                        continue
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        queue.append(b)
            if v in dist:
                best = min(best, dist[v] + 1)
    return best


def bfs_layers_oracle(g: MarkedGraph, root: int, radius: int) -> set[int]:
    """Vertices within the given distance of root, independent BFS."""
    seen = {root}
    frontier = [root]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for (a, b) in g.edges:
                other = None
                if a == u:
                    other = b
                elif b == u:
                    other = a
                if other is not None and other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


def _induced_oracle(g: MarkedGraph, verts: set[int], root: int) -> RootedMarkedGraph:
    """Subgraph of g induced by verts, in ascending order, rooted at root."""
    pos = {v: i for i, v in enumerate(sorted(verts))}
    edges = frozenset((pos[a], pos[b]) for (a, b) in g.edges if a in pos and b in pos)
    xi = {(pos[a], pos[b]): x for (a, b), x in g.xi.items() if a in pos and b in pos}
    tau = tuple(g.tau[v] for v in sorted(verts))
    return RootedMarkedGraph(MarkedGraph(len(pos), edges, tau, xi, g.alphabets), pos[root])


def local_distance_oracle(a: RootedMarkedGraph, b: RootedMarkedGraph) -> Fraction:
    """1/(1 + r) for the first r at which the radius-r balls of the two roots
    are not isomorphic, 0 when they are isomorphic at every radius.  Balls come
    from ``bfs_layers_oracle`` and are compared with ``isomorphic_oracle``."""
    r = 0
    while True:
        va = bfs_layers_oracle(a.graph, a.root, r)
        vb = bfs_layers_oracle(b.graph, b.root, r)
        if not isomorphic_oracle(
            _induced_oracle(a.graph, va, a.root), _induced_oracle(b.graph, vb, b.root)
        ):
            return Fraction(1, 1 + r)
        if len(va) == a.n and len(vb) == b.n:
            return Fraction(0)
        r += 1


def cm_pairings_oracle(D) -> list[tuple]:
    """Every half-edge pairing of the colored configuration model CM(D), one
    entry per labelled pairing: each perfect matching of every diagonal color
    times each bijection W_c -> W_conj(c) of every conjugate pair c < conj(c).

    A pairing is a sorted tuple of (c, u, v): a half-edge of color c at u meets
    one of color conj(c) at v, with u <= v on diagonal colors.  Built from the
    raw degree rows, so it shares nothing with the sampler.
    """
    from itertools import permutations, product

    stubs: dict = {}
    for v, row in enumerate(D.degrees):
        for c, k in row:
            stubs.setdefault(c, []).extend([v] * k)

    def matchings(w):
        if not w:
            yield []
            return
        for i in range(1, len(w)):
            for rest in matchings(w[1:i] + w[i + 1:]):
                yield [(min(w[0], w[i]), max(w[0], w[i]))] + rest

    factors = []
    for c in sorted(stubs):
        cb = (c[1], c[0])
        if c == cb:
            factors.append([[(c, u, v) for u, v in m] for m in matchings(stubs[c])])
        elif c < cb:
            factors.append(
                [[(c, u, v) for u, v in zip(stubs[c], p)] for p in permutations(stubs.get(cb, []))]
            )
    return [tuple(sorted(x for part in choice for x in part)) for choice in product(*factors)]


class BranchingRandom(random.Random):
    """A generator whose integer draws replay a list of choices.

    Each ``_randbelow(m)`` returns the next listed choice, or 0 past the end
    of the list, and records m.  ``random()`` is one such draw below 2, read
    as 0.25 or 0.75: exact for a test against 0.5, not for a float law.
    ``Random.shuffle`` and ``choice`` draw through ``_randbelow``.
    """

    def __init__(self, choices: list[int]):
        super().__init__(0)
        self.choices = choices
        self.bounds: list[int] = []

    def _randbelow(self, m: int) -> int:
        i = len(self.bounds)
        self.bounds.append(m)
        if i == len(self.choices):
            self.choices.append(0)
        return self.choices[i]

    def random(self) -> float:
        return (2 * self._randbelow(2) + 1) / 4


def exact_law(sample) -> dict:
    """{outcome: probability} of ``sample(rng)`` as exact Fractions, over
    every sequence of choices of a ``BranchingRandom``; a run weighs the
    product of 1/m over its draws.  Runs are walked depth first, like an
    odometer: the last draw that can still grow grows, and the draws after
    it are forgotten.  A run that raises ``AttemptsExhausted`` has the
    outcome None.  ``sample`` must make finitely many draws."""
    law: dict = {}
    choices: list[int] = []
    while True:
        rng = BranchingRandom(choices)
        try:
            outcome = sample(rng)
        except AttemptsExhausted:
            outcome = None
        weight = Fraction(1)
        for m in rng.bounds:
            weight /= m
        law[outcome] = law.get(outcome, 0) + weight
        while choices and choices[-1] == rng.bounds[len(choices) - 1] - 1:
            choices.pop()
        if not choices:
            return law
        choices[-1] += 1


def colored_axioms_oracle(g) -> None:
    """Check a colored multigraph's axioms on its raw multiplicities: each
    omega_c(u, v) equals omega_conj(c)(v, u), and a diagonal colour's loops
    at a vertex come in an even count.  Raises ``InvalidSequence`` at the
    first violation."""
    for c, entries in g.omega.items():
        cb = (c[1], c[0])
        for (u, v), k in entries.items():
            if k != g.omega.get(cb, {}).get((v, u), 0):
                raise InvalidSequence(f"omega_{c}({u},{v}) != omega_{cb}({v},{u})")
            if c == cb and u == v and k % 2:
                raise InvalidSequence(f"odd diagonal loop at {u}")


def erdos_gallai_oracle(ell) -> bool:
    """The Erdos-Gallai inequalities checked term by term, in O(n^2): for
    every k, the k largest degrees sum to at most k(k - 1) plus the sum of
    min(d, k) over the remaining degrees."""
    seq = sorted(ell, reverse=True)
    n = len(seq)
    if n and seq[0] >= n:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += seq[k - 1]
        if prefix > k * (k - 1) + sum(min(d, k) for d in seq[k:]):
            return False
    return True


def lp_flow_oracle(mu, nu) -> Fraction:
    """d_LP by a maximum flow at every realized distance threshold.

    At threshold v the worst-case excess max_A [mu(A) - nu(A^v)] is one minus
    the maximum flow from mu's atoms to nu's atoms over the pairs within v;
    the excess is constant on each interval [v, next v), where the feasible
    infimum is max(v, excess), and threshold 1 admits every pair.
    """
    from localgraphs.lp_distance import max_flow

    mu_atoms, nu_atoms = mu.support(), nu.support()
    profile = {a: radius_profile_oracle(mu.rep(a), a) for a in mu_atoms}
    profile.update((b, radius_profile_oracle(nu.rep(b), b)) for b in nu_atoms if b not in profile)
    dist = [[profile_distance(profile[a], profile[b]) for b in nu_atoms] for a in mu_atoms]
    p, q = len(mu_atoms), len(nu_atoms)
    s, t = p + q, p + q + 1

    def excess(threshold: Fraction) -> Fraction:
        cap = {(s, i): mu.atoms[a] for i, a in enumerate(mu_atoms)}
        cap.update(((p + j, t), nu.atoms[b]) for j, b in enumerate(nu_atoms))
        # capacity 2 exceeds the total mass, so it acts as infinity
        cap.update(
            ((i, p + j), Fraction(2))
            for i in range(p)
            for j in range(q)
            if dist[i][j] <= threshold
        )
        return 1 - max_flow(p + q + 2, cap, s, t)

    best = Fraction(1)
    for v in sorted({Fraction(0)} | {d for row in dist for d in row}):
        e = excess(v)
        best = min(best, max(v, e))
        if e <= v:
            break
    return best


def _balance_oracle(mu, partners):
    """Mass-transport balance over the ordered pairs (o, v), v in
    ``partners(rep)``, of each atom's rep rooted at o, each pair searched
    afresh and each weight added as a ``Fraction``: for each doubly-rooted
    class, the mass of (o, v) orderings must equal the mass of (v, o)
    orderings.  The first unbalanced class in sorted order is the witness."""
    from localgraphs.canonical import canonicalize_pair
    from localgraphs.measures import UnimodularityReport

    balance: dict = {}
    for atom, w in mu.atoms.items():
        rg = mu.rep(atom)
        for v in partners(rg):
            forward = canonicalize_pair(rg.graph, rg.root, v)
            backward = canonicalize_pair(rg.graph, v, rg.root)
            balance[forward] = balance.get(forward, Fraction(0)) + w
            balance[backward] = balance.get(backward, Fraction(0)) - w
    for cls in sorted(balance):
        if balance[cls] != 0:
            return UnimodularityReport(False, cls, balance[cls])
    return UnimodularityReport(True, None, Fraction(0))


def unimodular_all_pairs_oracle(mu):
    """The balance over every vertex v of each atom's component, not only
    the root's neighbours."""
    return _balance_oracle(mu, lambda rg: range(rg.n))


def unimodular_edge_pairs_oracle(mu):
    """The balance over the root's neighbours v, as ``check_unimodular``
    takes it, with ``Fraction`` sums."""
    return _balance_oracle(mu, lambda rg: rg.graph.adjacency[rg.root])


def weights_valid_oracle(weights) -> bool:
    """Whether every weight is positive and their ``Fraction`` sum is one."""
    return all(w > 0 for w in weights) and sum(weights, Fraction(0)) == 1


def _half_l1_oracle(x: dict, y: dict) -> Fraction:
    return sum((abs(x.get(k, 0) - y.get(k, 0)) for k in set(x) | set(y)), Fraction(0)) / 2


def total_variation_oracle(mu, nu) -> Fraction:
    """Half the L1 distance between the atom weights, summed as ``Fraction``s."""
    return _half_l1_oracle(mu.atoms, nu.atoms)


def levy_prokhorov_oracle(mu, nu) -> Fraction:
    """d_LP as min(d_TV, min over r of max(1/(2 + r), e_r)) over every r
    below the largest eccentricity, with no stop or skip rule, each atom's
    depth-r class read from its rep's radius profile, and the depth-r masses
    summed as ``Fraction``s over ``radius_profile_oracle``."""
    profile = {a: radius_profile_oracle(mu.rep(a), a) for a in mu.support()}
    profile.update((b, radius_profile_oracle(nu.rep(b), b)) for b in nu.support())

    def at_depth(m, r: int) -> dict:
        out: dict = {}
        for a, w in m.atoms.items():
            key = profile[a][min(r, len(profile[a]) - 1)]
            out[key] = out.get(key, Fraction(0)) + w
        return out

    best = total_variation_oracle(mu, nu)
    for r in range(max(len(p) for p in profile.values()) - 1):
        best = min(best, max(Fraction(1, 2 + r), _half_l1_oracle(at_depth(mu, r), at_depth(nu, r))))
    return best


def ir_certificate_oracle(g: MarkedGraph, roots: tuple[int, ...]) -> str:
    """Minimal certificate over refinement-consistent orderings, by the full
    individualization-refinement tree: no automorphism pruning, and a
    refinement that sorts (xi(v, u), xi(u, v), colour) string triples."""
    from localgraphs.canonical import _certificate

    def refine(colors: list) -> list[int]:
        while True:
            sigs = []
            for v in range(g.n):
                neigh = sorted(
                    (g.xi[(v, u)], g.xi[(u, v)], colors[u]) for u in g.adjacency[v]
                )
                sigs.append((colors[v], tuple(neigh)))
            ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [ranking[s] for s in sigs]
            if new == colors:
                return new
            colors = new

    def search(colors: list[int]) -> str:
        colors = refine(colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            return _certificate(g, roots, sorted(range(g.n), key=lambda v: colors[v]))
        return min(search(colors[:v] + [g.n] + colors[v + 1:]) for v in target)

    # a root is labelled by its positions in roots, every other vertex by ()
    labels = [(tuple(i for i, r in enumerate(roots) if r == v), g.tau[v]) for v in range(g.n)]
    ranking = {s: i for i, s in enumerate(sorted(set(labels)))}
    return search([ranking[s] for s in labels])


def refine_oracle(keys, colors: list[int]) -> list[int]:
    """Round-synchronous colour refinement: every round re-signs every vertex
    by (colour, sorted neighbour keys) and renumbers by signature order, until
    a round changes no colour."""
    while True:
        sigs = [
            (colors[v], tuple(sorted([k + colors[u] for u, k in row])))
            for v, row in enumerate(keys)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def certificate_oracle(g: MarkedGraph, roots: tuple[int, ...], order: list[int]) -> str:
    """The certificate of g under ``order`` (new id = position), written with
    a position dict and the edge marks looked up per call."""
    pos = {v: i for i, v in enumerate(order)}
    tau = ",".join(g.tau[v] for v in order)
    edges = []
    for (u, v) in g.edges:
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        edges.append(f"{a}.{b}.{g.xi[(order[a], order[b])]}.{g.xi[(order[b], order[a])]}")
    edges.sort()
    rts = ",".join(str(pos[r]) for r in roots)
    return f"n={g.n};r={rts};t={tau};e={'|'.join(edges)}"


def tree_orders_oracle(g: MarkedGraph) -> list[list[int]]:
    """The canonical order of the tree g from each root in turn: one preorder
    stack walk per root, each vertex visiting its neighbours, its parent
    excepted, in ascending entry order, over the entries of every directed
    edge from one down pass and one rerooting pass."""
    from localgraphs.canonical import _tree_entries

    entry = _tree_entries(g)[2]
    # descending, so the stack pops the least entry first
    kids = [sorted(a, key=lambda c: entry[(v, c)], reverse=True) for v, a in enumerate(g.adjacency)]
    orders = []
    for root in range(g.n):
        order: list[int] = []
        stack = [(root, -1)]
        while stack:
            v, p = stack.pop()
            order.append(v)
            stack.extend([(c, v) for c in kids[v] if c != p])
        orders.append(order)
    return orders


def depth_classes_oracle(g: MarkedGraph, k: int) -> list:
    """Depth-k class of every vertex, each ball built and canonicalized."""
    from localgraphs.canonical import canonicalize
    from localgraphs.graphs import ball

    return [canonicalize(ball(g, v, k)) for v in range(g.n)]


def direction_element_oracle(g: MarkedGraph, u: int, v: int, k: int) -> tuple[str, bytes]:
    """The F-element of the directed edge (u, v): its mark and the code of
    v's depth-(k-1) ball in g minus uv, built and canonicalized."""
    from localgraphs.canonical import canonicalize
    from localgraphs.graphs import ball

    return (g.xi[(u, v)], canonicalize(ball(g, v, k - 1, exclude_edge=(u, v))).code)


def radius_profile_oracle(g: RootedMarkedGraph, cls=None) -> tuple:
    """The class of ``truncate(g, r)`` for r = 0 .. eccentricity - 1, each
    truncation built and canonicalized, then the class of g itself."""
    from localgraphs.canonical import canonicalize
    from localgraphs.graphs import truncate

    full = canonicalize(g) if cls is None else cls
    return tuple(canonicalize(truncate(g, r)) for r in range(g.eccentricity())) + (full,)


def profile_distance(p: tuple, q: tuple) -> Fraction:
    """1/(1 + j) where j is the first radius at which two radius profiles
    differ, and 0 when their classes agree; a profile reads its last entry
    past its end, since truncating beyond the eccentricity gives g back."""
    if p[-1] == q[-1]:
        return Fraction(0)
    j = 0
    # stops by j = max(len(p), len(q)) - 1, where both read their last entry
    while p[min(j, len(p) - 1)] == q[min(j, len(q) - 1)]:
        j += 1
    return Fraction(1, 1 + j)


def truncate_measure_oracle(mu, k: int):
    """Pushforward of mu under depth-k truncation, every rep's ball built."""
    from localgraphs.graphs import truncate
    from localgraphs.measures import pushforward

    return pushforward(mu, lambda rg: truncate(rg, k))


# --- the dense colours x n transport ------------------------------------------


def _dense_case_m1(a: list[list[int]], beta: list[int]) -> list[list[int]]:
    """Two-row transport on the whole matrix: anchor at the lowest column that
    already matches, swapped into column 0."""
    from localgraphs.errors import Infeasible, LocalGraphsError

    n = len(beta)
    I = [j for j in range(n) if a[0][j] + a[1][j] != beta[j]]
    if not I:
        return a
    anchor = next((j for j in range(n) if j not in set(I)), None)
    if anchor is None:
        raise Infeasible("every column mismatches; no anchor column available")
    swap = [anchor if j == 0 else 0 if j == anchor else j for j in range(n)]
    a = [[row[swap[j]] for j in range(n)] for row in a]
    beta = [beta[swap[j]] for j in range(n)]
    inside = {0} | {swap[j] for j in I}
    P1 = sum(a[0][j] for j in range(n) if j not in inside)
    P2 = sum(a[1][j] for j in range(n) if j not in inside)
    Q = sum(beta[j] for j in inside if j != 0)
    R = max(P1 + Q, P2, -(-sum(beta) // 2))
    b = [list(a[0]), list(a[1])]
    for j in inside - {0}:
        b[0][j], b[1][j] = beta[j], 0
    b[0][0], b[1][0] = R - P1 - Q, R - P2
    r = 2 * R - sum(beta)
    if r < 0 or r % 2:
        raise LocalGraphsError(f"excess {r} parked in column 0 is not a nonnegative even number")
    while r > 0:
        if b[0][0] == b[1][0]:
            b[0][0] -= r // 2
            b[1][0] -= r // 2
            break
        hi, lo = (0, 1) if b[0][0] > b[1][0] else (1, 0)
        k = next((j for j in range(1, n) if b[lo][j] >= 1), None)
        if k is None:
            raise Infeasible("no column available for the excess move")
        b[hi][0] -= 2
        b[hi][k] += 1
        b[lo][k] -= 1
        r -= 2
    return [[row[swap[j]] for j in range(n)] for row in b]


def dense_transport(A, beta):
    """The transport on the dense matrix: one sub-target per diagonal row and
    per conjugate pair, each solved on all n columns."""
    from localgraphs.errors import Infeasible, InvalidSequence, LocalGraphsError
    from localgraphs.transport import (
        DegreeMatrix,
        change_bound,
        changed_columns,
        column_degrees,
    )

    if len(beta.beta) != A.n:
        raise InvalidSequence("target length mismatch")
    I = [j for j, d in enumerate(column_degrees(A)) if d != beta.beta[j]]
    if not I:
        return A
    blocks = [[list(A.a[i])] for i in range(A.p)]
    blocks += [[list(A.a[i]), list(A.a[i + 1])] for i in range(A.p, A.rows, 2)]
    targets = []
    for block in blocks[1:]:
        # keep the block's sums outside I, with one unit off the first
        # positive one when their total is odd
        tgt = [0 if j in I else sum(row[j] for row in block) for j in range(A.n)]
        if sum(tgt) % 2:
            j_star = next((j for j in range(A.n) if tgt[j] > 0), None)
            if j_star is None:
                raise Infeasible("no positive entry outside the mismatch set for a parity fix")
            tgt[j_star] -= 1
        targets.append(tgt)
    first = [beta.beta[j] - sum(t[j] for t in targets) for j in range(A.n)]
    rows = []
    for block, tgt in zip(blocks, [first] + targets):
        rows.extend([tgt] if len(block) == 1 else _dense_case_m1(block, tgt))
    result = DegreeMatrix(A.p, A.m, tuple(map(tuple, rows)))
    if column_degrees(result) != beta.beta:
        raise LocalGraphsError("transport missed the target column degrees")
    if changed_columns(A, result) > change_bound(A, beta):
        raise LocalGraphsError("transport changed more columns than its bound")
    return result


def colored_to_matrix(D):
    """D as a dense matrix, one row per colour present: sorted diagonal
    colours, then each sorted pair c < conj(c) followed by conj(c)."""
    from localgraphs.transport import DegreeMatrix

    present = {c for row in D.degrees for c, k in row if k}
    order = sorted(c for c in present if c[0] == c[1])
    p = len(order)
    for c in sorted(c for c in present if c[0] < c[1]):
        order += [c, (c[1], c[0])]
    index = {c: i for i, c in enumerate(order)}
    rows = [[0] * D.n for _ in order]
    for v, row in enumerate(D.degrees):
        for c, k in row:
            if k:
                rows[index[c]][v] = k
    return DegreeMatrix(p, (len(order) - p) // 2, tuple(map(tuple, rows))), order


def matrix_to_colored(A, order, colors):
    from localgraphs.colored import ColoredDegreeSequence

    return ColoredDegreeSequence.from_maps(
        colors, [{c: A.a[i][v] for i, c in enumerate(order) if A.a[i][v]} for v in range(A.n)]
    )


def dense_modify_colored_degrees(D, ell):
    """(sequence, changed vertices, bound) of the dense transport of D onto ell."""
    from localgraphs.transport import TargetDegrees, change_bound

    A, order = colored_to_matrix(D)
    beta = TargetDegrees.of(ell.ell)
    seq = matrix_to_colored(dense_transport(A, beta), order, D.colors)
    changed = sum(1 for v in range(D.n) if seq.degrees[v] != D.degrees[v])
    return seq, changed, change_bound(A, beta)
