"""Computations made apart from the code the benchmark measures.

Tree counts come from brute-force enumerators: every planar shape from a
plain recursion, every pearl position and every marking, filtered by
`validate_labeling` and deduplicated by canonical encoding, the way the
oracles in tests/test_trees.py are built.  They are too slow to run on every
benchmark run, so their counts are stored in oracle_counts.json; recompute
them with

    python3 perfbench/oracles.py

The objects and arrows of `psi_category` come from a recursion of their own
over set partitions of the leaf labels, on nested tuples whose children are
sorted, with edge contraction redone on those tuples; it takes milliseconds
and runs on every benchmark run.

Overlap checks use the pairwise-overlap graph of the open boxes: open
axis-parallel boxes have Helly number 2, so a set of boxes shares an open
point exactly when it is a clique of that graph.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

COUNTS_FILE = Path(__file__).resolve().parent / "oracle_counts.json"


# ---------------------------------------------------------------------------
# trees


def shapes(n_leaves, vmax, T):
    """All planar shapes with n_leaves leaves and at most vmax vertices."""
    leaf = T.LEAF

    def roots(n, v):
        if v < 1:
            return []
        out = [()] if n == 0 else []
        for r in range(1, n + v + 1):
            out.extend(tuple(kids) for kids in child_seqs(n, v - 1, r))
        return out

    def child_seqs(n, v, r):
        if r == 0:
            return [[]] if n == 0 else []
        out = []
        if n >= 1:
            out.extend([leaf] + rest for rest in child_seqs(n - 1, v, r - 1))
        for fn in range(n + 1):
            for sub in roots(fn, v):
                used = len(T.vertices(sub))
                out.extend([sub] + rest for rest in child_seqs(n - fn, v - used, r - 1))
        return out

    return {s for s in roots(n_leaves, vmax) if len(T.vertices(s)) <= vmax}


def _all_marks(k, edges):
    for bits in itertools.product((True, False), repeat=k * len(edges)):
        yield tuple(((i, e), bits[i * len(edges) + n]) for i in range(k) for n, e in enumerate(edges))


def _keep(T, out, t, arities=None):
    ok, _ = T.validate_labeling(t)
    if ok and (arities is None or t.arities == arities):
        out.add(T.encode(T.canonicalize(t)))


def count_pearled(T, variant, arities, vmax):
    per = [[T.ComponentTree(s, frozenset({p})) for s in shapes(n, vmax, T) for p in T.vertices(s)]
           for n in arities]
    out = set()
    for combo in itertools.product(*per):
        t = T.KFoldTree(variant, combo)
        if t.total_vertices <= vmax:
            _keep(T, out, t)
    return len(out)


def count_section(T, variant, arities, vmax):
    per = []
    for n in arities:
        opts = []
        for s in shapes(n, vmax, T):
            vs = T.vertices(s)
            for r in range(1, len(vs) + 1):
                opts.extend(T.ComponentTree(s, frozenset(ps)) for ps in itertools.combinations(vs, r))
        per.append(opts)
    out = set()
    for combo in itertools.product(*per):
        if sum(c.n_vertices for c in combo) > vmax:
            continue
        try:
            if len({T.truncate_below(c) for c in combo}) != 1:
                continue
        except T.OperadicError:
            continue
        for marks in _all_marks(len(arities), T.section_edge_paths(combo[0])):
            _keep(T, out, T.KFoldTree(variant, combo, marks), tuple(arities))
    return len(out)


def count_intermediate(T, n, vmax, k):
    out = set()
    for s in shapes(n, vmax, T):
        edges = T.vertices(s) + T.leaves(s)
        for p in T.vertices(s):
            c = T.ComponentTree(s, frozenset({p}))
            for marks in _all_marks(k, edges):
                _keep(T, out, T.KFoldTree("pTreeP", (c,), marks))
    return len(out)


def request_key(req) -> str:
    variant, arities, vmax, k = req
    return "%s %s vmax=%d%s" % (variant, arities, vmax, "" if k is None else " k=%d" % k)


def count_request(T, req) -> int:
    variant, arities, vmax, k = req
    if variant == "pTreeP":
        return count_intermediate(T, arities[0], vmax, k)
    if variant in ("pTree", "rpTree"):
        return count_pearled(T, variant, arities, vmax)
    return count_section(T, variant, arities, vmax)


def load_counts() -> dict:
    return json.loads(COUNTS_FILE.read_text())


# ---------------------------------------------------------------------------
# psi_category
#
# A non-planar pearled tree is a nested tuple, ("L", label) for a leaf and
# ("V", is_pearl, children) for a vertex, with the children sorted, so that
# isomorphic trees are equal tuples.


def _vertex(pearl, children):
    return ("V", pearl, tuple(sorted(children)))


def _partitions(items):
    """Every set partition of the list `items`, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _children(labels, pearl, memo):
    """Every child on the leaf set `labels`: a leaf or a vertex tree."""
    out = list(_psi_trees(labels, pearl, memo))
    if len(labels) == 1 and not pearl:
        out.append(("L", labels[0]))
    return out


def _psi_trees(labels, pearl, memo):
    """Vertex-rooted trees on the leaf set `labels` holding one pearl if
    `pearl`, else none, where every vertex but the pearl has arity >= 2."""
    if (labels, pearl) in memo:
        return memo[labels, pearl]
    out = set()
    for blocks in _partitions(list(labels)):
        blocks = [tuple(b) for b in blocks]
        if pearl:  # the root is the pearl, of any arity
            for kids in itertools.product(*(_children(b, False, memo) for b in blocks)):
                out.add(_vertex(True, kids))
        # the root is no pearl: one child, maybe a leafless extra one, carries it
        for carrier in list(range(len(blocks))) + ["extra"] if pearl else [None]:
            if len(blocks) + (carrier == "extra") < 2:
                continue
            choices = [_children(b, i == carrier, memo) for i, b in enumerate(blocks)]
            if carrier == "extra":
                choices.append(_psi_trees((), True, memo))
            for kids in itertools.product(*choices):
                out.add(_vertex(False, kids))
    memo[labels, pearl] = out
    return out


def _contractions(node):
    """Every tree made from `node` by contracting one inner edge; the merged
    vertex is a pearl if either end was."""
    _, pearl, kids = node
    for i, kid in enumerate(kids):
        if kid[0] != "V":
            continue
        rest = kids[:i] + kids[i + 1:]
        yield _vertex(pearl or kid[1], rest + kid[2])
        for sub in _contractions(kid):
            yield _vertex(pearl, rest + (sub,))


def psi_oracle(k):
    """Objects and single-contraction arrows of the non-planar pearled trees
    with leaves labeled 1..k: one pearl of any arity, every other vertex of
    arity at least two."""
    objects = _psi_trees(tuple(str(i + 1) for i in range(k)), True, {})
    arrows = {(obj, target) for obj in objects for target in _contractions(obj)}
    return objects, arrows


def psi_key(c):
    """The nested-tuple form of a component tree with one pearl."""
    labels = dict(c.labels)

    def enc(node, path):
        if not isinstance(node, tuple):
            return ("L", labels[path])
        return _vertex(path in c.pearls, [enc(ch, path + (j,)) for j, ch in enumerate(node)])

    return enc(c.shape, ())


# ---------------------------------------------------------------------------
# overlap regimes


def _open_overlap(r1, r2) -> bool:
    for a1, b1, a2, b2 in zip(r1.scales, r1.offsets, r2.scales, r2.offsets):
        if max(b1, b2) >= min(b1 + a1, b2 + a2):
            return False
    return True


def overlap_graph(rects):
    """Adjacency sets over positions in `rects`."""
    adj = [set() for _ in rects]
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if _open_overlap(rects[i], rects[j]):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def first_clique(adj, size, allowed=None):
    """The lexicographically first clique of `size` positions, or None."""
    nodes = sorted(range(len(adj)) if allowed is None else allowed)

    def grow(chosen, cands):
        if len(chosen) == size:
            return chosen
        for pos, v in enumerate(cands):
            if len(chosen) + len(cands) - pos < size:
                return None
            got = grow(chosen + [v], [w for w in cands[pos + 1:] if w in adj[v]])
            if got is not None:
                return got
        return None

    return grow([], nodes) if size > 0 else []


def common_open_point(rects):
    """A point inside every open box, by per-axis interval intersection."""
    point = []
    for axis in range(len(rects[0].scales)):
        lo = max(r.offsets[axis] for r in rects)
        hi = min(r.offsets[axis] + r.scales[axis] for r in rects)
        if lo >= hi:
            return None
        point.append((lo + hi) / 2)
    for r in rects:
        for axis, x in enumerate(point):
            if not r.offsets[axis] < x < r.offsets[axis] + r.scales[axis]:
                return None
    return tuple(point)


def first_m_violation(labeled, m):
    """Labels of the lexicographically first m rectangles sharing a point."""
    adj = overlap_graph([r for _, r in labeled])
    got = first_clique(adj, m)
    return None if got is None else tuple(labeled[i][0] for i in got)


def u_violation(labeled, blocks, bounds):
    """The first (a, chosen...) group breaking a u-overlap bound, or None."""
    pos = {lbl: i for i, (lbl, _) in enumerate(labeled)}
    adj = overlap_graph([r for _, r in labeled])
    for p in range(len(blocks)):
        for q in range(p, len(blocks)):
            bound = bounds.get((p, q), "inf")
            if bound == "inf":
                continue
            for a in blocks[p]:
                pool = [pos[b] for b in blocks[q] if b != a and pos[b] in adj[pos[a]]]
                got = first_clique(adj, bound, pool)
                if got is not None:
                    return (a,) + tuple(labeled[i][0] for i in got)
    return None


# ---------------------------------------------------------------------------


def main():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from operadic import trees as T

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import TREE_REQUESTS

    counts = {}
    for req in TREE_REQUESTS:
        t0 = time.perf_counter()
        counts[request_key(req)] = count_request(T, req)
        print("%-32s %6d trees  %.1f s" % (request_key(req), counts[request_key(req)],
                                           time.perf_counter() - t0), flush=True)
    COUNTS_FILE.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
