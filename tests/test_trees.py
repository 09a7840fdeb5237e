"""Tree machinery tests: enumeration against brute-force oracles, validation
clause reporting, canonical-form invariants, the pearled-tree poset, DOT."""

import hashlib
import itertools

import pytest

from operadic import trees as T
from operadic.errors import OperadicError
from operadic.trees import LEAF, ComponentTree, KFoldTree


# ---------------------------------------------------------------------------
# independent shape generator (plain recursion, no sharing with the package)


def oracle_shapes(n_leaves, vmax, allow_null=True):
    def roots(n, v):
        if v < 1:
            return []
        out = []
        max_arity = n + v
        for r in range(0, max_arity + 1):
            if r == 0:
                if n == 0 and allow_null:
                    out.append(())
                continue
            for kids in child_seqs(n, v - 1, r):
                out.append(tuple(kids))
        return out

    def child_seqs(n, v, r):
        if r == 0:
            return [[]] if n == 0 else []
        out = []
        if n >= 1:
            for rest in child_seqs(n - 1, v, r - 1):
                out.append([LEAF] + rest)
        for fn in range(0, n + 1):
            for sub in roots(fn, v):
                sv = len(T.vertices(sub))
                for rest in child_seqs(n - fn, v - sv, r - 1):
                    out.append([sub] + rest)
        return out

    return {s for s in roots(n_leaves, vmax) if len(T.vertices(s)) <= vmax}


def canon_key(t):
    return T.encode(T.canonicalize(t))


def oracle_pearled(variant, arities, vmax):
    per = []
    for n in arities:
        opts = []
        for s in oracle_shapes(n, vmax):
            for p in T.vertices(s):
                opts.append(ComponentTree(s, frozenset({p})))
        per.append(opts)
    out = set()
    for combo in itertools.product(*per):
        t = KFoldTree(variant, combo)
        if t.total_vertices > vmax:
            continue
        ok, _ = T.validate_labeling(t)
        if ok:
            out.add(canon_key(t))
    return out


def oracle_section(variant, arities, vmax):
    k = len(arities)
    per = []
    for n in arities:
        opts = []
        for s in oracle_shapes(0 if n is None else n, vmax):
            vs = T.vertices(s)
            for r in range(1, len(vs) + 1):
                for pearls in itertools.combinations(vs, r):
                    opts.append(ComponentTree(s, frozenset(pearls)))
        per.append(opts)
    out = set()
    for combo in itertools.product(*per):
        if sum(c.n_vertices for c in combo) > vmax:
            continue
        try:
            belows = {T.truncate_below(c) for c in combo}
        except OperadicError:
            continue
        if len(belows) != 1:
            continue
        edges = T.section_edge_paths(combo[0])
        for bits in itertools.product((True, False), repeat=k * len(edges)):
            marks, idx = {}, 0
            for i in range(k):
                for e in edges:
                    marks[(i, e)] = bits[idx]
                    idx += 1
            t = KFoldTree(variant, combo, tuple(marks.items()))
            ok, _ = T.validate_labeling(t)
            if ok and t.arities == tuple(arities):
                out.add(canon_key(t))
    return out


def oracle_intermediate(n, vmax, k):
    out = set()
    for s in oracle_shapes(n, vmax):
        edges = T.vertices(s) + T.leaves(s)
        for p in T.vertices(s):
            for bits in itertools.product((True, False), repeat=k * len(edges)):
                marks, idx = {}, 0
                for i in range(k):
                    for e in edges:
                        marks[(i, e)] = bits[idx]
                        idx += 1
                t = KFoldTree("pTreeP", (ComponentTree(s, frozenset({p})),), tuple(marks.items()))
                ok, _ = T.validate_labeling(t)
                if ok:
                    out.add(canon_key(t))
    return out


def check_enumeration(enum, oracle):
    keys = [T.encode(t) for t in enum.trees]
    assert len(keys) == len(set(keys))
    assert set(keys) == oracle
    order = [(t.total_vertices, T.encode(t)) for t in enum.trees]
    assert order == sorted(order)
    for t in enum.trees:
        ok, clause = T.validate_labeling(t)
        assert ok, clause


# ---------------------------------------------------------------------------
# shape primitives


class TestShapes:
    def test_paths(self):
        s = ((LEAF, (LEAF,)), LEAF)
        assert T.vertices(s) == [(), (0,), (0, 1)]
        assert T.leaves(s) == [(0, 0), (0, 1, 0), (1,)]
        assert T.arity(s, (0,)) == 2
        assert T.subtree(s, (0, 1)) == (LEAF,)
        assert T.replace(s, (1,), ()) == ((LEAF, (LEAF,)), ())

    def test_tips_and_spine(self):
        s = (((),), LEAF)
        assert T.tips(s) == [(0, 0), (1,)]
        assert T.spine_depth(s) == 2
        assert T.pearl_positions(s) == [(), (0,), (0, 0)]

    def test_generator_matches_oracle(self):
        for n, v in [(0, 3), (1, 3), (2, 4), (3, 4)]:
            for allow in (True, False):
                got = set(T.gen_planar_trees(n, v, allow_null=allow))
                want = oracle_shapes(n, v, allow_null=allow)
                assert got == want, (n, v, allow)

    def test_contract_edge(self):
        c = ComponentTree(((LEAF, LEAF), LEAF), frozenset({(0,)}))
        out = T.contract_edge(c, (0,))
        assert out.shape == (LEAF, LEAF, LEAF)
        assert out.pearls == frozenset({()})
        assert [s for _, s in out.labels] == ["1", "2", "3"]

    def test_contract_trunk_rejected(self):
        c = ComponentTree((LEAF,), frozenset({()}))
        with pytest.raises(OperadicError):
            T.contract_edge(c, ())


# ---------------------------------------------------------------------------
# validation clauses


class TestValidate:
    def test_pearl_off_spine(self):
        c = ComponentTree((LEAF, (LEAF,)), frozenset({(1,)}))
        ok, clause = T.validate_labeling(KFoldTree("pTree", (c,)))
        assert not ok and clause == "pearl-not-on-spine"

    def test_rp_not_reduced_deep_pearl(self):
        c = ComponentTree((((LEAF,),),), frozenset({(0, 0)}))
        ok, clause = T.validate_labeling(KFoldTree("rpTree", (c,)))
        assert not ok and clause == "not-reduced"
        ok, _ = T.validate_labeling(KFoldTree("pTree", (c,)))
        assert ok

    def test_rp_not_reduced_high_corolla(self):
        c = ComponentTree((((LEAF,),),), frozenset({()}))
        ok, clause = T.validate_labeling(KFoldTree("rpTree", (c,)))
        assert not ok and clause == "not-reduced"

    def test_pearl_depth_mismatch(self):
        c1 = ComponentTree((LEAF,), frozenset({()}))
        c2 = ComponentTree(((LEAF,),), frozenset({(0,)}))
        ok, clause = T.validate_labeling(KFoldTree("pTree", (c1, c2)))
        assert not ok and clause == "pearl-depth-mismatch"

    def section_pair(self):
        # shared below part: root with two pearls
        c1 = ComponentTree(((LEAF,), (LEAF, LEAF)), frozenset({(0,), (1,)}))
        c2 = ComponentTree(((), (LEAF,)), frozenset({(0,), (1,)}))
        return c1, c2

    def full_marks(self, k, edges, value=True):
        return {(i, e): value for i in range(k) for e in edges}

    def test_section_valid(self):
        c1, c2 = self.section_pair()
        edges = T.section_edge_paths(c1)
        assert edges == [(), (0,), (1,)]
        marks = self.full_marks(2, edges)
        marks[(1, (0,))] = False  # the univalent pearl of component 2
        ok, clause = T.validate_labeling(KFoldTree("rsTree", (c1, c2), tuple(marks.items())))
        assert ok, clause

    def test_external_pearl_not_univalent(self):
        c1, c2 = self.section_pair()
        marks = self.full_marks(2, T.section_edge_paths(c1))
        marks[(0, (0,))] = False  # component 1 pearl at (0,) has a leaf above
        marks[(1, (0,))] = False
        ok, clause = T.validate_labeling(KFoldTree("rsTree", (c1, c2), tuple(marks.items())))
        assert not ok and clause == "external-pearl-not-univalent"

    def test_external_output_internal_input(self):
        c1, c2 = self.section_pair()
        marks = self.full_marks(2, T.section_edge_paths(c1))
        marks[(1, (0,))] = False
        marks[(0, ())] = False  # external trunk above internal inputs
        ok, clause = T.validate_labeling(KFoldTree("rsTree", (c1, c2), tuple(marks.items())))
        assert not ok and clause == "external-output-internal-input"

    def test_edge_pattern_two_of_three(self):
        c1 = ComponentTree(((LEAF,),), frozenset({(0,)}))
        c2 = ComponentTree(((LEAF,),), frozenset({(0,)}))
        c3 = ComponentTree(((),), frozenset({(0,)}))
        edges = [(), (0,)]
        marks = self.full_marks(3, edges)
        marks[(2, (0,))] = False  # internal in exactly two of three
        ok, clause = T.validate_labeling(KFoldTree("sTree", (c1, c2, c3), tuple(marks.items())))
        assert not ok and clause == "edge-pattern"

    def test_all_components_trivial(self):
        c = ComponentTree((), frozenset({()}))
        marks = {(0, ()): False}
        ok, clause = T.validate_labeling(KFoldTree("rsTree", (c,), tuple(marks.items())))
        assert not ok and clause == "all-components-trivial"

    def test_trivial_component_beside_live_one(self):
        live = ComponentTree((LEAF,), frozenset({()}))
        bare = ComponentTree((), frozenset({()}))
        marks = {(0, ()): True, (1, ()): False}
        t = KFoldTree("rsTree", (live, bare), tuple(marks.items()))
        ok, clause = T.validate_labeling(t)
        assert ok, clause
        assert t.arities == (1, None)

    def test_section_cover(self):
        c = ComponentTree((LEAF, (LEAF,)), frozenset({(1,)}))
        ok, clause = T.validate_labeling(KFoldTree("sTree", (c,), {(0, ()): True, (0, (1,)): True}))
        assert not ok and clause == "section-cover"

    def test_rs_not_reduced(self):
        c = ComponentTree((((LEAF,),),), frozenset({(0, 0)}))
        edges = T.section_edge_paths(c)
        marks = self.full_marks(1, edges)
        ok, clause = T.validate_labeling(KFoldTree("rsTree", (c,), tuple(marks.items())))
        assert not ok and clause == "not-reduced"
        ok, clause = T.validate_labeling(KFoldTree("sTree", (c,), tuple(marks.items())))
        assert ok, clause

    def intermediate(self, marks_updates=None):
        # pearl root with a corolla child and a leaf child
        c = ComponentTree(((LEAF, LEAF), LEAF), frozenset({()}))
        edges = T.vertices(c.shape) + T.leaves(c.shape)
        marks = {(i, e): True for i in range(2) for e in edges}
        marks.update(marks_updates or {})
        return KFoldTree("pTreeP", (c,), tuple(marks.items()))

    def test_intermediate_valid(self):
        ok, clause = T.validate_labeling(self.intermediate())
        assert ok, clause

    def test_intermediate_pearl_output(self):
        ok, clause = T.validate_labeling(self.intermediate({(0, ()): False, (0, (0,)): False,
                                                            (0, (0, 0)): False, (0, (0, 1)): False,
                                                            (0, (1,)): False}))
        assert not ok and clause == "pearl-output-external"

    def test_intermediate_all_external_leaf_edge_is_fine(self):
        # a leaf edge may be external in every marking
        ok, clause = T.validate_labeling(self.intermediate({(0, (1,)): False, (1, (1,)): False}))
        assert ok, clause

    def test_intermediate_univalent(self):
        c = ComponentTree(((),), frozenset({()}))
        edges = T.vertices(c.shape)
        marks = {(i, e): True for i in range(2) for e in edges}
        ok, clause = T.validate_labeling(KFoldTree("pTreeP", (c,), tuple(marks.items())))
        assert not ok and clause == "univalent-vertex"

    def test_intermediate_external_output_internal_input(self):
        ok, clause = T.validate_labeling(self.intermediate({(0, (0,)): False}))
        assert not ok and clause == "external-output-internal-input"


# ---------------------------------------------------------------------------
# enumeration against oracles


class TestEnumerate:
    def test_bare_pearl_class(self):
        enum = T.enumerate_trees("rpTree", (0,), 1)
        assert len(enum) == 1
        t = enum.trees[0]
        assert t.components[0].shape == ()
        assert t.components[0].pearls == frozenset({()})
        assert enum.truncated

    def test_rp_single(self):
        check_enumeration(T.enumerate_trees("rpTree", (2,), 4), oracle_pearled("rpTree", (2,), 4))

    def test_rp_two_fold(self):
        check_enumeration(T.enumerate_trees("rpTree", (1, 1), 4), oracle_pearled("rpTree", (1, 1), 4))

    def test_p_single(self):
        check_enumeration(T.enumerate_trees("pTree", (2,), 4), oracle_pearled("pTree", (2,), 4))

    def test_p_two_fold(self):
        check_enumeration(T.enumerate_trees("pTree", (1, 1), 4), oracle_pearled("pTree", (1, 1), 4))

    def test_rs_single(self):
        check_enumeration(T.enumerate_trees("rsTree", (2,), 4), oracle_section("rsTree", (2,), 4))

    def test_rs_two_fold(self):
        check_enumeration(T.enumerate_trees("rsTree", (1, 1), 4), oracle_section("rsTree", (1, 1), 4))

    def test_rs_with_trivial(self):
        check_enumeration(T.enumerate_trees("rsTree", (1, None), 4), oracle_section("rsTree", (1, None), 4))

    def test_s_single(self):
        check_enumeration(T.enumerate_trees("sTree", (2,), 4), oracle_section("sTree", (2,), 4))

    def test_s_two_fold(self):
        check_enumeration(T.enumerate_trees("sTree", (1, 1), 4), oracle_section("sTree", (1, 1), 4))

    def test_intermediate_two_leaves(self):
        check_enumeration(T.enumerate_trees("pTreeP", (2,), 3, k=2), oracle_intermediate(2, 3, 2))

    def test_intermediate_three_markings(self):
        check_enumeration(T.enumerate_trees("pTreeP", (1,), 3, k=3), oracle_intermediate(1, 3, 3))

    def test_deterministic(self):
        a = T.enumerate_trees("rsTree", (1, 1), 4)
        b = T.enumerate_trees("rsTree", (1, 1), 4)
        assert [T.encode(t) for t in a.trees] == [T.encode(t) for t in b.trees]

    def test_lambda_restricted_finite_class(self):
        enum = T.enumerate_trees("rpTree", (1,), 4, no_univalent=True)
        assert len(enum) == 4
        assert not enum.truncated
        for t in enum.trees:
            c = t.components[0]
            assert all(T.arity(c.shape, v) > 0 or v in c.pearls for v in T.vertices(c.shape))

    def test_bad_variant(self):
        with pytest.raises(OperadicError):
            T.enumerate_trees("tree", (1,), 3)
        with pytest.raises(OperadicError):
            T.enumerate_trees("pTree", (1,), 0)

    @pytest.mark.parametrize("variant, arities, vmax, kwargs", [
        ("pTreeP", (1, 2), 2, {}),
        ("pTree", (None,), 2, {}),
        ("sTree", (), 3, {}),
        ("pTreeP", (2,), 3, {"k": 0}),
        ("pTreeP", (2,), 3, {"k": -1}),
        ("rpTree", (-1,), 3, {}),
        ("plain", (2,), 3, {}),
    ])
    def test_malformed_request(self, variant, arities, vmax, kwargs):
        with pytest.raises(OperadicError):
            T.enumerate_trees(variant, arities, vmax, **kwargs)

    @pytest.mark.parametrize("variant, arities, vmax, kwargs", [
        ("rpTree", (0,), 1, {}),
        ("rpTree", (2,), 4, {}),
        ("rpTree", (1, 1), 4, {}),
        ("rpTree", (1,), 4, {"no_univalent": True}),
        ("pTree", (2,), 3, {}),
        ("pTree", (1, 1), 3, {}),
        ("rsTree", (2,), 3, {}),
        ("rsTree", (1, 1), 3, {}),
        ("rsTree", (1, None), 3, {}),
        ("sTree", (2,), 3, {}),
        ("sTree", (1, 1), 3, {}),
        ("sTree", (None,), 3, {}),
        ("pTreeP", (2,), 2, {"k": 1}),
        ("pTreeP", (2,), 2, {"k": 2}),
        ("pTreeP", (1,), 3, {"k": 3}),
    ])
    def test_truncated_against_next_bound(self, variant, arities, vmax, kwargs):
        enum = T.enumerate_trees(variant, arities, vmax, **kwargs)
        bigger = T.enumerate_trees(variant, arities, vmax + 1, **kwargs)
        assert enum.truncated == (len(bigger) > len(enum))
        within = [T.encode(t) for t in bigger.trees if t.total_vertices <= vmax]
        assert within == [T.encode(t) for t in enum.trees]

    # first 16 hex digits of sha256(repr([encode(t) for t in trees])), pinned
    # from the generate-and-filter enumerator
    @pytest.mark.parametrize("variant, arities, vmax, kwargs, digest", [
        ("pTreeP", (2,), 3, {"k": 2}, "819fc7ce160a5be5"),
        ("pTreeP", (1,), 3, {"k": 3}, "5316e7baf51b6bd0"),
        ("sTree", (2,), 4, {}, "fe2f57d8bfec1044"),
        ("pTree", (2,), 4, {}, "bea141c9f6127961"),
        ("rsTree", (1, 1), 4, {}, "dcbc9b241a11b525"),
        ("sTree", (1, 1), 4, {}, "77e2c3c2b718f727"),
    ])
    def test_golden_order(self, variant, arities, vmax, kwargs, digest):
        enum = T.enumerate_trees(variant, arities, vmax, **kwargs)
        text = repr([T.encode(t) for t in enum.trees])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        assert enum.truncated


# ---------------------------------------------------------------------------
# marking generators against every bit pattern


def brute_marks(variant, components, edges, k, arities=None):
    out = set()
    for bits in itertools.product((True, False), repeat=k * len(edges)):
        marks = {(i, e): bits[i * len(edges) + j] for i in range(k) for j, e in enumerate(edges)}
        t = KFoldTree(variant, components, tuple(marks.items()))
        if T.validate_labeling(t)[0] and (arities is None or t.arities == arities):
            out.add(frozenset(marks.items()))
    return out


def as_sets(marks_iter):
    got = [frozenset(m.items()) for m in marks_iter]
    assert len(got) == len(set(got))
    return set(got)


class TestMarkings:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("shape", [
        (LEAF,),
        (LEAF, LEAF),
        ((LEAF,),),
        ((LEAF, LEAF),),
        ((LEAF,), LEAF),
    ])
    def test_intermediate(self, shape, k):
        edges = T.vertices(shape) + T.leaves(shape)
        for p in T.pearl_positions(shape):
            c = ComponentTree(shape, frozenset({p}))
            got = as_sets(T._intermediate_marks(shape, p, k))
            assert got == brute_marks("pTreeP", (c,), edges, k), p

    def section_families(self):
        one = ComponentTree(((LEAF,), (LEAF, LEAF)), frozenset({(0,), (1,)}))
        two = ComponentTree(((), (LEAF,)), frozenset({(0,), (1,)}))
        bare = ComponentTree(((), ()), frozenset({(0,), (1,)}))
        root = ComponentTree((LEAF,), frozenset({()}))
        null_root = ComponentTree((), frozenset({()}))
        deep = ComponentTree((((LEAF,), ()),), frozenset({(0, 0), (0, 1)}))
        deep_bare = ComponentTree((((), ()),), frozenset({(0, 0), (0, 1)}))
        return [
            ((one,), (3,)),
            ((one, two), (3, 1)),
            ((one, bare), (3, None)),
            ((bare, two), (0, 1)),
            ((one, two, bare), (3, 1, None)),
            ((bare, bare), (None, None)),
            ((root, null_root), (1, None)),
            ((null_root, null_root), (None, None)),
            ((root, null_root, root), (1, 0, 1)),
            ((deep, deep_bare), (1, None)),
            ((deep, deep_bare, deep), (1, 0, 1)),
        ]

    def test_section(self):
        for components, arities in self.section_families():
            edges = T.section_edge_paths(components[0])
            got = as_sets(T._section_marks(components, arities))
            want = brute_marks("sTree", components, edges, len(components), arities)
            assert got == want, arities


# ---------------------------------------------------------------------------
# canonical forms


class TestCanonical:
    def test_idempotent_and_valid_across_enumerations(self):
        for variant, arities, vmax in [("pTree", (2,), 4), ("rsTree", (1, 1), 4), ("pTreeP", (2,), 3)]:
            kwargs = {"k": 2} if variant == "pTreeP" else {}
            for t in T.enumerate_trees(variant, arities, vmax, **kwargs).trees:
                c = T.canonicalize(t)
                assert T.encode(c) == T.encode(T.canonicalize(c))
                ok, clause = T.validate_labeling(c)
                assert ok, clause

    def test_orbit_transport_pearled(self):
        # the same labeled point written in two planar orders
        t1 = KFoldTree("pTree", (ComponentTree(
            ((LEAF, LEAF), LEAF), frozenset({()}),
            (((0, 0), "1"), ((0, 1), "2"), ((1,), "3"))),))
        t2 = KFoldTree("pTree", (ComponentTree(
            (LEAF, (LEAF, LEAF)), frozenset({()}),
            (((0,), "3"), ((1, 0), "1"), ((1, 1), "2"))),))
        assert T.encode(T.canonicalize(t1)) == T.encode(T.canonicalize(t2))
        t3 = KFoldTree("pTree", (ComponentTree(
            (LEAF, (LEAF, LEAF)), frozenset({()}),
            (((0,), "1"), ((1, 0), "2"), ((1, 1), "3"))),))
        assert T.encode(T.canonicalize(t3)) != T.encode(T.canonicalize(t1))

    def test_spine_slot_pinned(self):
        # the spine child stays first even when a sibling sorts lower
        c = ComponentTree(((LEAF,), LEAF), frozenset({(0,)}),
                          (((0, 0), "2"), ((1,), "1")))
        t = T.canonicalize(KFoldTree("pTree", (c,)))
        assert T.pearl_of(t.components[0]) == (0,)

    def test_orbit_transport_section(self):
        # swapping the two pearls of the shared below part in each component;
        # the univalent pearl's edge is internal for the first index only
        c1a = ComponentTree(((LEAF,), ()), frozenset({(0,), (1,)}), (((0, 0), "1"),))
        c1b = ComponentTree(((), (LEAF,)), frozenset({(0,), (1,)}), (((1, 0), "1"),))
        c2a = ComponentTree(((LEAF, LEAF), ()), frozenset({(0,), (1,)}), (((0, 0), "1"), ((0, 1), "2")))
        c2b = ComponentTree(((), (LEAF, LEAF)), frozenset({(0,), (1,)}), (((1, 0), "1"), ((1, 1), "2")))
        marks_a = {(0, ()): True, (0, (0,)): True, (0, (1,)): True,
                   (1, ()): True, (1, (0,)): True, (1, (1,)): False}
        marks_b = {(0, ()): True, (0, (1,)): True, (0, (0,)): True,
                   (1, ()): True, (1, (1,)): True, (1, (0,)): False}
        ta = KFoldTree("rsTree", (c1a, c2a), tuple(marks_a.items()))
        tb = KFoldTree("rsTree", (c1b, c2b), tuple(marks_b.items()))
        assert T.validate_labeling(ta)[0] and T.validate_labeling(tb)[0]
        assert T.encode(T.canonicalize(ta)) == T.encode(T.canonicalize(tb))

    def test_extras_transported(self):
        t1 = KFoldTree("pTree", (ComponentTree(
            ((LEAF, LEAF), LEAF), frozenset({()}),
            (((0, 0), "1"), ((0, 1), "2"), ((1,), "3"))),))
        t2 = KFoldTree("pTree", (ComponentTree(
            (LEAF, (LEAF, LEAF)), frozenset({()}),
            (((0,), "3"), ((1, 0), "1"), ((1, 1), "2"))),))
        e1 = {(0, (0,)): "inner", (None, ()): "root"}
        e2 = {(0, (1,)): "inner", (None, ()): "root"}
        c1, x1 = T.canonicalize_with(t1, e1)
        c2, x2 = T.canonicalize_with(t2, e2)
        assert T.encode(c1) == T.encode(c2)
        assert x1 == x2
        assert x1[(None, ())] == "root"

    def test_extras_break_ties(self):
        # identical subtrees ordered by their decoration
        c = ComponentTree(((), ()), frozenset({()}))
        t = KFoldTree("pTree", (c,))
        for vals in (("b", "a"), ("a", "b")):
            extras = {(0, (0,)): vals[0], (0, (1,)): vals[1]}
            _, moved = T.canonicalize_with(t, extras)
            assert moved[(0, (0,))] == "a"
            assert moved[(0, (1,))] == "b"


# ---------------------------------------------------------------------------
# the pearled-tree poset


def oracle_psi(k):
    objs = {}
    for s in oracle_shapes(k, k + 2):
        vs = T.vertices(s)
        for p in vs:
            if not all(v == p or T.arity(s, v) >= 2 for v in vs):
                continue
            lvs = T.leaves(s)
            for perm in itertools.permutations(range(1, k + 1)):
                labs = tuple((q, str(x)) for q, x in zip(lvs, perm))
                obj = T.PsiObject(ComponentTree(s, frozenset({p}), labs))
                objs.setdefault(obj.key, obj)
    arrows = set()
    for key, obj in objs.items():
        for v in T.vertices(obj.tree.shape):
            if v == ():
                continue
            tgt = T.PsiObject(T.contract_edge(obj.tree, v))
            arrows.add((key, tgt.key))
    return objs, arrows


class TestPsi:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_counts_match_oracle(self, k):
        cat = T.psi_category(k)
        objs, arrows = oracle_psi(k)
        assert len(cat["objects"]) == len(objs)
        assert len(cat["morphisms"]) == len(arrows)

    def test_terminal_object(self):
        for k in (0, 1, 2, 3):
            cat = T.psi_category(k)
            term = cat["terminal"]
            assert all(s != term for s, _ in cat["morphisms"])
            assert cat["boundary"] == [i for i in range(len(cat["objects"])) if i != term]

    def test_near_terminal(self):
        assert T.psi_category(1)["near_terminal"] is None
        cat = T.psi_category(2)
        cp = cat["near_terminal"]
        assert cp is not None
        assert (cp, cat["terminal"]) in cat["morphisms"]
        assert (cp, cat["terminal"]) not in cat["prime_morphisms"]
        assert len(cat["prime_morphisms"]) == len(cat["morphisms"]) - 1

    def test_psi_zero_and_one(self):
        assert len(T.psi_category(0)["objects"]) == 1
        assert len(T.psi_category(1)["objects"]) == 2

    def test_morphisms_decrease_vertices(self):
        cat = T.psi_category(2)
        objs = cat["objects"]
        for s, t in cat["morphisms"]:
            assert objs[s].tree.n_vertices == objs[t].tree.n_vertices + 1

    def test_closure_acyclic(self):
        cat = T.psi_category(3)
        closed = T.psi_closure(cat["morphisms"], len(cat["objects"]))
        assert all(s != t for s, t in closed)
        assert set(cat["morphisms"]) <= set(closed)

    def test_bound(self):
        with pytest.raises(OperadicError):
            T.psi_category(5)


# ---------------------------------------------------------------------------
# DOT output


class TestDot:
    def test_pearls_and_dashes(self):
        c = ComponentTree(((LEAF,), ()), frozenset({(0,), (1,)}))
        marks = {(0, ()): True, (0, (0,)): True, (0, (1,)): False}
        t = KFoldTree("rsTree", (c,), tuple(marks.items()))
        dot = T.emit_dot(t)
        assert "doublecircle" in dot
        assert "style=dashed" in dot
        assert dot.count("subgraph") == 1
        assert T.emit_dot(t) == dot

    def test_times_shown(self):
        c = ComponentTree((LEAF,), frozenset({()}))
        t = KFoldTree("pTree", (c,))
        dot = T.emit_dot(t, times={(None, ()): "1/2"})
        assert "t=1/2" in dot
