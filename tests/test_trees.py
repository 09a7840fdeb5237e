"""Tree machinery tests: enumeration against brute-force oracles, validation
clause reporting, canonical-form invariants, the pearled-tree poset, DOT."""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from operadic import trees as T
from operadic.errors import OperadicError
from operadic.rng import Stream
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
    assert list(enum) == list(enum.trees)
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
        assert T.pearl_positions(s) == [(), (0,), (0, 0)]

    def test_contract_edge(self):
        c = ComponentTree(((LEAF, LEAF), LEAF), frozenset({(0,)}))
        out = T.contract_edge(c, (0,))
        assert out.shape == (LEAF, LEAF, LEAF)
        assert out.pearls == frozenset({()})
        assert [s for _, s in out.labels] == ["1", "2", "3"]

    def test_contraction_moves_every_other_path(self):
        for n in range(5):
            for allow in (True, False):
                for shape in oracle_shapes(n, 4, allow_null=allow):
                    paths = T.vertices(shape) + T.leaves(shape)
                    for v in T.vertices(shape)[1:]:
                        new, move = T.contraction(shape, v)
                        assert T.leaves(new) == [move(p) for p in T.leaves(shape)]
                        assert len(T.vertices(new)) == len(T.vertices(shape)) - 1
                        par = v[:-1]
                        assert T.arity(new, par) == T.arity(shape, par) + T.arity(shape, v) - 1
                        others = [p for p in paths if p != v]
                        assert len({move(p) for p in others}) == len(others)
                        for p in others:
                            if not T.is_ancestor(p, v):
                                assert T.subtree(new, move(p)) == T.subtree(shape, p)

    def test_contract_trunk_rejected(self):
        c = ComponentTree((LEAF,), frozenset({()}))
        with pytest.raises(OperadicError):
            T.contract_edge(c, ())

    @pytest.mark.parametrize("path", [[0], 0, None])
    def test_contract_takes_tuple_paths(self, path):
        c = ComponentTree(((LEAF,),), frozenset({()}))
        with pytest.raises(OperadicError):
            T.contract_edge(c, path)

    # each entry of a path is an in-range int: (-1,) must not index from the end
    @pytest.mark.parametrize("path", [(-1,), (1,), (0, 2), (0, -1), ("a",), (0.0,), (True,), (0, None)])
    def test_path_entries_checked(self, path):
        shape = ((LEAF, LEAF),)
        c = ComponentTree(shape, frozenset({()}))
        for call in (T.subtree, T.arity):
            with pytest.raises(OperadicError):
                call(shape, path)
        with pytest.raises(OperadicError):
            T.contract_edge(c, path)


class TestNotATree:
    @pytest.mark.parametrize("call", [T.canonicalize, T.encode, T.emit_dot, T.PsiObject],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", ["x", None, ComponentTree((LEAF,), frozenset({()}))], ids=repr)
    def test_rejected(self, call, value):
        if call is T.PsiObject and isinstance(value, ComponentTree):
            value = KFoldTree("pTree", (value,))
        with pytest.raises(OperadicError):
            call(value)

    @pytest.mark.parametrize("value", ["x", None, (), ComponentTree((LEAF,), frozenset({()}))], ids=repr)
    def test_validate_labeling_says_why(self, value):
        assert T.validate_labeling(value) == (False, "not-a-tree")

    @pytest.mark.parametrize("components", [("x",), "x", 5, None, (ComponentTree((LEAF,), frozenset({()})), ())],
                             ids=repr)
    def test_components_must_be_component_trees(self, components):
        with pytest.raises(OperadicError):
            KFoldTree("pTree", components)

    @pytest.mark.parametrize("variant", [(), ("pTree",), "tree", None], ids=repr)
    def test_variant_must_be_known(self, variant):
        with pytest.raises(OperadicError):
            KFoldTree(variant, ())


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
        assert len(enum) == 5
        assert not enum.truncated
        for t in enum.trees:
            c = t.components[0]
            assert all(T.arity(c.shape, v) > 0 or v in c.pearls for v in T.vertices(c.shape))

    @pytest.mark.parametrize("variant", ["pTree", "rpTree", "sTree", "rsTree"])
    def test_no_univalent_is_the_filtered_enumeration(self, variant):
        # univalent pearls stay; only univalent non-pearl vertices go
        for arities in [(0,), (1,), (2,), (0, 1), (1, 1), (2, 1)]:
            full = T.enumerate_trees(variant, arities, 4)
            want = [T.encode(t) for t in full.trees
                    if not any(T.has_null_non_pearl(c) for c in t.components)]
            got = T.enumerate_trees(variant, arities, 4, no_univalent=True)
            assert [T.encode(t) for t in got.trees] == want, arities

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
        ("pTree", 2, 2, {}),
        ("pTree", None, 2, {}),
        # bools are not counts
        ("pTree", (1,), True, {}),
        ("pTree", (True,), 3, {}),
        ("sTree", (1, False), 3, {}),
        ("pTreeP", (2,), 3, {"k": True}),
        # a variant that is a tuple, which %-formatting would unpack
        ((), (1,), 3, {}),
    ])
    def test_malformed_request(self, variant, arities, vmax, kwargs):
        with pytest.raises(OperadicError):
            T.enumerate_trees(variant, arities, vmax, **kwargs)

    @pytest.mark.parametrize("variant, arities, vmax, kwargs, oracle", [
        # three-label intervals, arity 0 and trivial components
        ("pTree", (3,), 4, {}, lambda: oracle_pearled("pTree", (3,), 4)),
        ("rpTree", (3,), 4, {}, lambda: oracle_pearled("rpTree", (3,), 4)),
        ("pTree", (0, 1), 4, {}, lambda: oracle_pearled("pTree", (0, 1), 4)),
        ("sTree", (3,), 4, {}, lambda: oracle_section("sTree", (3,), 4)),
        ("sTree", (1, None), 4, {}, lambda: oracle_section("sTree", (1, None), 4)),
        ("sTree", (0, 1), 4, {}, lambda: oracle_section("sTree", (0, 1), 4)),
        ("pTreeP", (2,), 3, {"k": 1}, lambda: oracle_intermediate(2, 3, 1)),
        ("pTreeP", (0,), 3, {"k": 2}, lambda: oracle_intermediate(0, 3, 2)),
    ])
    def test_brute_force_oracle(self, variant, arities, vmax, kwargs, oracle):
        check_enumeration(T.enumerate_trees(variant, arities, vmax, **kwargs), oracle())

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
        # finite classes: the pass one vertex over the bound finds no tree
        # beyond it and runs to exhaustion
        ("rpTree", (2,), 4, {"no_univalent": True}),
        ("rpTree", (0,), 2, {"no_univalent": True}),
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
        # pinned from the enumerator that filtered through validate_labeling:
        # the reduced rpTree clause, and the rsTree filter on forests
        # without univalent vertices
        ("rpTree", (2,), 4, {}, "f8c5fc49eac10421"),
        ("rpTree", (1, 1), 4, {}, "15e331ff1e538ea8"),
        ("rsTree", (2,), 4, {"no_univalent": True}, "a805441d0fcabd77"),
        # pinned from the enumerator that canonicalized planar candidates:
        # representatives whose labels do not run in planar order
        ("pTree", (3,), 4, {}, "32a22567aa889d81"),
        ("sTree", (3,), 4, {}, "38dc9fc056ea2085"),
        ("pTreeP", (2,), 3, {"k": 1}, "8c3873873c034467"),
        # below-section children that give leaves to different components,
        # so that their order is a choice (also pinned from that enumerator)
        ("sTree", (1, 1), 6, {}, "a266a118d03a7c40"),
        ("rsTree", (1, 1), 6, {}, "bdc135bf2d4d266e"),
    ])
    def test_golden_order(self, variant, arities, vmax, kwargs, digest):
        enum = T.enumerate_trees(variant, arities, vmax, **kwargs)
        text = repr([T.encode(t) for t in enum.trees])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        assert enum.truncated

    # first 16 hex digits of sha256(repr(psi_category(k))), pinned from the
    # generate-and-filter construction of the pearled-tree poset
    @pytest.mark.parametrize("k, digest", [
        (0, "d818ecff379653cc"),
        (1, "cff87f35bbe29efa"),
        (2, "ca544110446524ff"),
        (3, "49af6480dbc1591b"),
        (4, "56dcc50530e540e6"),
    ])
    def test_golden_psi(self, k, digest):
        assert hashlib.sha256(repr(T.psi_category(k)).encode()).hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# enumerated markings against every bit pattern


def brute_marks(variant, components, edges, k, arities=None):
    out = set()
    for bits in itertools.product((True, False), repeat=k * len(edges)):
        marks = {(i, e): bits[i * len(edges) + j] for i in range(k) for j, e in enumerate(edges)}
        t = KFoldTree(variant, components, tuple(marks.items()))
        if T.validate_labeling(t)[0] and (arities is None or t.arities == arities):
            out.add(frozenset(marks.items()))
    return out


class TestMarkings:
    """The markings the enumerator pushes down, read back per shape: the
    orbit members of exactly the given components carry every valid marking
    of them and nothing else."""

    @staticmethod
    def enumerated_marks(variant, components, arities, **kwargs):
        bound = sum(c.n_vertices for c in components)
        enum = T.enumerate_trees(variant, arities, bound, **kwargs)
        assert len({T.encode(t) for t in enum.trees}) == len(enum)
        got = set()
        for t in enum.trees:
            if [c.n_vertices for c in t.components] != [c.n_vertices for c in components]:
                continue
            got |= {frozenset(m.marks) for m in orbit_members(t) if m.components == tuple(components)}
        return got

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
            got = self.enumerated_marks("pTreeP", (c,), (c.n_leaves,), k=k)
            assert got == brute_marks("pTreeP", (c,), edges, k), p

    def section_families(self):
        one = ComponentTree(((LEAF,), (LEAF, LEAF)), frozenset({(0,), (1,)}))
        two = ComponentTree(((), (LEAF,)), frozenset({(0,), (1,)}))
        bare = ComponentTree(((), ()), frozenset({(0,), (1,)}))
        root = ComponentTree((LEAF,), frozenset({()}))
        null_root = ComponentTree((), frozenset({()}))
        deep = ComponentTree((((LEAF,), ()),), frozenset({(0, 0), (0, 1)}))
        deep_bare = ComponentTree((((), ()),), frozenset({(0, 0), (0, 1)}))
        # pearls with leaves in different components, free to trade places
        left = ComponentTree(((LEAF,), ()), frozenset({(0,), (1,)}))
        right = ComponentTree(((), (LEAF,)), frozenset({(0,), (1,)}))
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
            ((left, right), (1, 1)),
            ((right, left), (1, 1)),
        ]

    def test_section(self):
        for components, arities in self.section_families():
            # only pearls are univalent, so the smaller class holds them
            assert not any(T.has_null_non_pearl(c) for c in components)
            edges = T.section_edge_paths(components[0])
            got = self.enumerated_marks("sTree", components, arities, no_univalent=True)
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

    @pytest.mark.parametrize("t", [
        KFoldTree("pTree", (ComponentTree((LEAF, LEAF), frozenset({()})),), {(0, (5,)): True}),
        KFoldTree("pTree", (ComponentTree((LEAF, (LEAF, LEAF))),)),
        KFoldTree("sTree", (ComponentTree((LEAF,), frozenset({()})),), {(0, ()): True, (3, ()): True}),
        KFoldTree("sTree", (ComponentTree(((LEAF,), (LEAF,)), frozenset({(0,), (1,)})),
                            ComponentTree(((LEAF,),), frozenset({(0,)}))), {}),
    ])
    def test_invalid_tree_rejected(self, t):
        with pytest.raises(OperadicError):
            T.canonicalize(t)

    @pytest.mark.parametrize("variant, arities, vmax, kwargs", [
        ("rpTree", (2,), 4, {}),
        ("rpTree", (1, 1), 4, {}),
        ("pTree", (2,), 4, {}),
        ("pTree", (1, 2), 4, {}),
        ("pTreeP", (2,), 3, {"k": 2}),
        ("pTreeP", (2,), 3, {"k": 3}),
        ("sTree", (2,), 4, {}),
        ("sTree", (1, None), 4, {}),
        ("sTree", (1, 1), 4, {}),
        ("rsTree", (2,), 4, {}),
        ("rsTree", (1, None), 4, {}),
        ("rsTree", (1, 1), 4, {}),
    ])
    def test_orbit_members_return_the_representative(self, variant, arities, vmax, kwargs):
        rng = Stream(41, ("orbit", variant, arities))
        moved = 0
        for n, t in enumerate(T.enumerate_trees(variant, arities, vmax, **kwargs).trees):
            for trial in range(4):
                s = scramble(t, rng.split((n, trial)))
                moved += s != t
                assert T.canonicalize(s) == t
        assert moved


def permuted(t, order_at):
    """t with the children of vertex `path` of component i put in the order
    order_at(i, path, n); pearls, labels and marks move along."""

    def walk(i, node, path):
        if not T.is_vertex(node):
            return LEAF, {path: ()}
        kids, moves = [], {path: ()}
        for q, j in enumerate(order_at(i, path, len(node))):
            sub, mv = walk(i, node[j], path + (j,))
            kids.append(sub)
            moves.update({old: (q,) + new for old, new in mv.items()})
        return tuple(kids), moves

    comps, moves = [], []
    for i, c in enumerate(t.components):
        shape, mv = walk(i, c.shape, ())
        comps.append(ComponentTree(shape, frozenset(mv[p] for p in c.pearls),
                                   tuple(sorted((mv[p], s) for p, s in c.labels))))
        moves.append(mv)
    owner = (lambda j: 0) if t.variant == "pTreeP" else (lambda j: j)
    marks = {(j, moves[owner(j)][p]): v for (j, p), v in t.marks}
    return KFoldTree(t.variant, tuple(comps), tuple(marks.items()))


def orbit_moves(t):
    """(key, first movable slot) per orbit move of t: the children of every
    vertex permute, except the spine slot of pearled variants, and the
    children of each below-section vertex permute alike in all components
    (key (None, path))."""
    section = t.variant in ("rsTree", "sTree")
    below = set(T.below_paths(t.components[0])) if section else set()

    def move(i, path):
        if path in below:
            return (None, path), 0
        c = t.components[i]
        spine = not section and any(T.is_ancestor(path, p) and path != p for p in c.pearls)
        return (i, path), 1 if spine else 0

    return move


def scramble(t, rng):
    """A random member of t's orbit."""
    move = orbit_moves(t)
    shared = {}

    def order_at(i, path, n):
        key, first = move(i, path)
        if key not in shared:
            shared[key] = list(range(first)) + rng.shuffle(range(first, n))
        return shared[key]

    return permuted(t, order_at)


def orbit_members(t):
    """Every member of t's orbit, each once."""
    move = orbit_moves(t)
    slots = {}
    for i, c in enumerate(t.components):
        for v in T.vertices(c.shape):
            slots[move(i, v)] = T.arity(c.shape, v)
    keys = list(slots)
    orders = [[tuple(range(first)) + rest for rest in itertools.permutations(range(first, slots[key, first]))]
              for key, first in keys]
    members = {}
    for choice in itertools.product(*orders):
        chosen = {key: order for (key, _), order in zip(keys, choice)}
        m = permuted(t, lambda i, path, n: chosen[move(i, path)[0]])
        members[repr(m)] = m
    return list(members.values())


# every tree_enum request of the benchmark, then one or two of each other kind
BUILT_DIRECTLY = [
    ("pTreeP", (2,), 3, {"k": 2}),
    ("pTreeP", (1,), 3, {"k": 3}),
    ("sTree", (2,), 4, {}),
    ("pTree", (2,), 4, {}),
    ("rsTree", (1, 1), 4, {}),
    ("sTree", (1, 1), 4, {}),
    ("rpTree", (2,), 4, {}),
    ("rpTree", (1, 1), 4, {"no_univalent": True}),
    ("pTree", (1, 2), 4, {}),
    ("rsTree", (2,), 4, {"no_univalent": True}),
    ("sTree", (1, None), 4, {}),
    ("sTree", (0, 1), 4, {}),
    ("pTreeP", (0,), 3, {"k": 1}),
]


def typed(x):
    """x with the type of every part spelled out and sets in sorted order,
    so that True and 1 or a list and a tuple no longer compare equal."""
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(typed(y) for y in x)
    if isinstance(x, frozenset):
        return "frozenset", tuple(sorted(typed(y) for y in x))
    return type(x).__name__, x


def component_fields(c):
    return typed((c.shape, c.pearls, c.labels, c.n_vertices))


class TestBuiltDirectly:
    """Enumerated trees and Psi objects are frozen without the checked
    constructors; rebuilt through them, they come out the same."""

    @pytest.mark.parametrize("variant, arities, vmax, kwargs", BUILT_DIRECTLY)
    def test_enumerated_trees_rebuild_equal(self, variant, arities, vmax, kwargs):
        for t in T.enumerate_trees(variant, arities, vmax, **kwargs).trees:
            comps = tuple(ComponentTree(c.shape, c.pearls, c.labels) for c in t.components)
            again = KFoldTree(t.variant, comps, t.marks)
            assert again == t
            assert [component_fields(c) for c in comps] == [component_fields(c) for c in t.components]
            assert typed((again.variant, again.marks)) == typed((t.variant, t.marks))
            assert T.validate_labeling(t) == (True, None)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_psi_objects_rebuild_equal(self, k):
        for obj in T.psi_category(k)["objects"]:
            c = obj.tree
            again = T.PsiObject(ComponentTree(c.shape, c.pearls, c.labels))
            assert again == obj and again.key == obj.key
            assert component_fields(again.tree) == component_fields(c)

    @pytest.mark.parametrize("variant, arities, vmax, kwargs", BUILT_DIRECTLY)
    def test_equal_components_are_one_object(self, variant, arities, vmax, kwargs):
        comps = [c for t in T.enumerate_trees(variant, arities, vmax, **kwargs) for c in t.components]
        assert len({id(c) for c in comps}) == len(set(comps))

    @pytest.mark.parametrize("variant, arities, vmax, kwargs", BUILT_DIRECTLY)
    def test_requests_share_no_component(self, variant, arities, vmax, kwargs):
        first, second = (T.enumerate_trees(variant, arities, vmax, **kwargs) for _ in range(2))
        assert first == second
        ids = {id(c) for t in first for c in t.components}
        assert ids and not ids & {id(c) for t in second for c in t.components}

    def test_no_bottom_up_sort(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_sort_bottom_up called")

        monkeypatch.setattr(T, "_sort_bottom_up", refuse)
        for variant, arities, vmax, kwargs in BUILT_DIRECTLY:
            assert len(T.enumerate_trees(variant, arities, vmax, **kwargs))
        for k in range(5):
            assert T.psi_category(k)["objects"]
        with pytest.raises(AssertionError):
            T.canonicalize(T.enumerate_trees("pTree", (1,), 2).trees[0])


# enumeration and Psi must not follow the hash seed: the sets inside them
# (pearls, internal sets, memo keys) may iterate in any order, the results not
HASH_SEED_SCRIPT = """
import hashlib
from operadic import trees as T
h = hashlib.sha256()
for variant, arities, vmax, kwargs in [("pTreeP", (2,), 3, {"k": 2}), ("sTree", (1, 1), 4, {})]:
    for t in T.enumerate_trees(variant, arities, vmax, **kwargs):
        h.update(repr((T.encode(t), t.marks)).encode())
h.update(repr(T.psi_category(4)).encode())
print(h.hexdigest())
"""


def test_results_ignore_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = [
        subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], capture_output=True, text=True,
                       check=True, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] and outs[0] == outs[1]


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


def set_partitions(items):
    if not items:
        yield []
        return
    for part in set_partitions(items[1:]):
        yield [[items[0]]] + part
        for i in range(len(part)):
            yield part[:i] + [[items[0]] + part[i]] + part[i + 1:]


def schroeder_t(n):
    """Leaf-labeled rooted trees on n leaves whose internal vertices all have
    arity >= 2 (Schroeder's fourth problem, OEIS A000311): a leaf, or a root
    over a set partition of the leaves into at least two blocks."""
    if n == 1:
        return 1
    total = 0
    for part in set_partitions(list(range(n))):
        if len(part) >= 2:
            prod = 1
            for block in part:
                prod *= schroeder_t(len(block))
            total += prod
    return total


PRIME = 2 ** 31 - 1


def psi_without_terminal(k):
    """Psi_k without its terminal object as a strict order: object -> the set
    of objects it contracts to."""
    cat = T.psi_category(k)
    term = cat["terminal"]
    above = {i: set() for i in range(len(cat["objects"])) if i != term}
    for s, t in T.psi_closure(cat["morphisms"], len(cat["objects"])):
        if term not in (s, t):
            above[s].add(t)
    return above


def psi_order_complex(k):
    """Chains x0 < x1 < ... of Psi_k without its terminal object, by length:
    the simplices of its order complex."""
    above = psi_without_terminal(k)
    chains = [[(i,) for i in above]]
    while True:
        longer = [c + (t,) for c in chains[-1] for t in sorted(above[c[-1]])]
        if not longer:
            return chains
        chains.append(longer)


def below_of(above):
    """The converse of a strict order given as element -> elements above it."""
    below = {x: set() for x in above}
    for x, ys in above.items():
        for y in ys:
            below[y].add(x)
    return below


def dismantle(above):
    """What is left after removing beat points while there are any: a point
    whose elements strictly above (or below) have a least (or greatest) one.
    Removing one keeps the homotopy type (Stong 1966), and the points left
    form the core, which is unique up to isomorphism."""
    up = {x: set(ys) for x, ys in above.items()}
    down = below_of(up)
    while True:
        # the least element m of up[x] has up[m] == up[x] - {m}: count them
        beat = next((x for x in sorted(up) for rel in (up, down)
                     if any(len(rel[m]) == len(rel[x]) - 1 for m in rel[x])), None)
        if beat is None:
            return set(up)
        for y in up.pop(beat):
            down[y].discard(beat)
        for y in down.pop(beat):
            up[y].discard(beat)


def mobius_bottom_top(above):
    """mu(0, 1) of the order with a least element 0 and a greatest element 1
    adjoined: the reduced Euler characteristic of its order complex
    (P. Hall's theorem)."""
    below = below_of(above)
    mu = {}
    for x in sorted(below, key=lambda x: len(below[x])):  # a linear extension
        mu[x] = -1 - sum(mu[y] for y in below[x])
    return -1 - sum(mu.values())


def boundary(chain, index):
    """The simplicial boundary of a chain as {face index: +-1}."""
    return {index[chain[:i] + chain[i + 1:]]: (-1) ** i for i in range(len(chain))}


def rank_mod_p(rows):
    """Rank over GF(PRIME) of sparse rows {column: coefficient}: each row is
    reduced against the pivots so far and becomes a pivot if anything is
    left."""
    pivots = {}
    for row in rows:
        row = {c: v % PRIME for c, v in row.items() if v % PRIME}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], PRIME - 2, PRIME)
                pivots[col] = {c: v * inv % PRIME for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivots[col].items():
                x = (row.get(c, 0) - f * v) % PRIME
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivots)


class TestPsi:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_counts_match_oracle(self, k):
        cat = T.psi_category(k)
        objs, arrows = oracle_psi(k)
        assert len(cat["objects"]) == len(objs)
        assert len(cat["morphisms"]) == len(arrows)
        keys = [obj.key for obj in cat["objects"]]
        assert set(keys) == set(objs)
        assert {(keys[s], keys[t]) for s, t in cat["morphisms"]} == arrows

    def test_schroeder_numbers(self):
        assert [schroeder_t(n) for n in range(1, 7)] == [1, 1, 4, 26, 236, 2752]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_object_count_is_twice_schroeder(self, k):
        assert len(T.psi_category(k)["objects"]) == 2 * schroeder_t(k + 1)

    def test_each_class_built_once_at_five_leaves(self):
        built = T._psi_trees(tuple(str(i + 1) for i in range(5)), True, {})
        keys = set()
        for key, shape, p, labels, n in built:
            obj = T.PsiObject(ComponentTree(shape, frozenset({p}), labels))
            assert (obj.key, obj.tree.shape, obj.tree.n_vertices) == (key, shape, n)
            keys.add(key)
        assert len(built) == len(keys) == 2 * schroeder_t(6)

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

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_closure_matches_search(self, k):
        cat = T.psi_category(k)
        n = len(cat["objects"])
        out = {}
        for s, t in cat["morphisms"]:
            out.setdefault(s, []).append(t)
        want = set()
        for source in range(n):
            seen, stack = set(), list(out.get(source, ()))
            while stack:
                t = stack.pop()
                if t not in seen:
                    seen.add(t)
                    stack.extend(out.get(t, ()))
            want |= {(source, t) for t in seen}
        assert T.psi_closure(cat["morphisms"], n) == sorted(want)

    @pytest.mark.parametrize("morphisms", [[(0, 1), (1, 2), (2, 0)], [(0, 3)], [(3, 0)], [(0, "1")],
                                           (0, 1), [(0,)], [(0, 1, 2)], [None], [(-1, 0)], [(True, 0)],
                                           5])
    def test_closure_rejects_bad_arrows(self, morphisms):
        with pytest.raises(OperadicError):
            T.psi_closure(morphisms, 3)

    @pytest.mark.parametrize("n_objects", ["x", 2.0, True, -1, None])
    def test_closure_rejects_bad_counts(self, n_objects):
        with pytest.raises(OperadicError):
            T.psi_closure([(0, 1)], n_objects)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_key_contractions_match_planar_ones(self, k):
        cat = T.psi_category(k)
        keys = [obj.key for obj in cat["objects"]]
        got = {i: set() for i in range(len(keys))}
        for s, t in cat["morphisms"]:
            got[s].add(keys[t])
        for i, obj in enumerate(cat["objects"]):
            c = obj.tree
            assert got[i] == {T.PsiObject(T.contract_edge(c, v)).key for v in T.vertices(c.shape) if v}

    # k = 0 is left out: without its terminal object Psi_0 is empty
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_order_complex_without_terminal_is_acyclic(self, k):
        chains = psi_order_complex(k)
        if k == 4:
            assert [len(c) for c in chains] == [471, 2990, 5040, 2520]
        # reduced homology: the augmentation C_0 -> C_{-1} = F has rank 1
        ranks = [1]
        for n in range(1, len(chains)):
            index = {c: j for j, c in enumerate(chains[n - 1])}
            ranks.append(rank_mod_p([boundary(c, index) for c in chains[n]]))
        ranks.append(0)
        betti = [len(chains[n]) - ranks[n] - ranks[n + 1] for n in range(len(chains))]
        assert betti == [0] * len(chains)

    # independent certificates of the same contractibility, cheap enough to
    # reach larger k than the homology above
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_without_terminal_dismantles_to_a_point(self, k):
        above = psi_without_terminal(k)
        assert len(dismantle(above)) == 1
        assert mobius_bottom_top(above) == 0

    def test_certificates_see_a_circle(self):
        # four points a, b < c, d: the order complex is a circle
        circle = {0: {2, 3}, 1: {2, 3}, 2: set(), 3: set()}
        assert len(dismantle(circle)) == 4
        assert mobius_bottom_top(circle) == -1
        chain = {0: {1, 2}, 1: {2}, 2: set()}
        assert len(dismantle(chain)) == 1
        assert mobius_bottom_top(chain) == 0

    def test_bound(self):
        with pytest.raises(OperadicError):
            T.psi_category(5)

    @pytest.mark.parametrize("k", [2.5, "3", None, True, False])
    def test_non_integer_leaf_count(self, k):
        with pytest.raises(OperadicError):
            T.psi_category(k)


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

    def test_bare_leaf_has_no_edges(self):
        dot = T.emit_dot(KFoldTree("plain", (ComponentTree(LEAF),)))
        assert "->" not in dot and dot.count("shape=plaintext") == 1

    def test_intermediate_edges_dashed_where_a_marking_leaves_them_out(self):
        external_seen = 0
        for t in T.enumerate_trees("pTreeP", (2,), 3, k=2):
            marks, shape = t.marks_dict(), t.components[0].shape
            external = [v for v in T.vertices(shape)[1:] + T.leaves(shape)
                        if v and not (marks[(0, v)] and marks[(1, v)])]
            assert T.emit_dot(t).count("style=dashed") == len(external)
            external_seen += bool(external)
        assert external_seen

    def test_times_shown(self):
        c = ComponentTree((LEAF,), frozenset({()}))
        t = KFoldTree("pTree", (c,))
        dot = T.emit_dot(t, times={(None, ()): "1/2"})
        assert "t=1/2" in dot

    @pytest.mark.parametrize("times", [5, "t", [((None, ()), "1/2")]], ids=repr)
    def test_times_must_be_a_dict(self, times):
        t = KFoldTree("pTree", (ComponentTree((LEAF,), frozenset({()})),))
        with pytest.raises(OperadicError):
            T.emit_dot(t, times=times)
