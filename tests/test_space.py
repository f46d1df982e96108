import pytest

import mfent as mf
from conftest import count_words, restrict, union
from mfent.space import is_prefix


def test_make_shift_rejects_bad_matrix():
    with pytest.raises(ValueError):
        mf.make_shift(2, [[1, 2], [1, 1]])
    with pytest.raises(ValueError):
        mf.make_shift(3, [[1, 1], [1, 1]])
    # checked before the int8 cast, which would truncate 1.7 and overflow on 257
    for bad in (1.7, 257, -255):
        with pytest.raises(ValueError, match="0 or 1"):
            mf.make_shift(2, [[1, 1], [1, bad]])


def test_dead_symbol_detected():
    # symbol 1 has no outgoing transition
    with pytest.raises(ValueError, match="1"):
        mf.make_shift(2, [[1, 0], [0, 0]])


def test_full_shift_flags(full2, golden):
    assert full2.is_full
    assert full2.irreducible
    assert not golden.is_full
    assert golden.irreducible


def test_reducible_flag():
    sp = mf.make_shift(2, [[1, 1], [0, 1]])
    assert not sp.irreducible


def test_golden_word_counts_are_fibonacci(golden):
    # counts 2, 3, 5, 8, ... for n = 1, 2, 3, 4
    fib = [2, 3, 5, 8, 13, 21]
    for n, expect in enumerate(fib, start=1):
        assert count_words(golden, n) == expect
        assert sum(1 for _ in golden.words_of_length(n)) == expect


def test_words_lexicographic(full2):
    ws = list(full2.words_of_length(2))
    assert ws == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_no_admissible_11_in_golden(golden):
    assert not golden.is_admissible((1, 1))
    assert golden.is_admissible((1, 0, 1))
    assert golden.children((0, 1)) == [(0, 1, 0)]


def test_is_prefix():
    assert is_prefix((), (0, 1))
    assert is_prefix((0,), (0, 1))
    assert not is_prefix((1,), (0, 1))
    assert not is_prefix((0, 1, 0), (0, 1))


def test_cylinder_prefix_absorption(full2):
    K = mf.CylinderSet(full2, [(0,), (0, 1)])
    assert K.members == frozenset({(0,)})


def test_cylinder_sibling_merge(full2):
    K = mf.CylinderSet(full2, [(0, 0), (0, 1)])
    assert K.members == frozenset({(0,)})
    whole = mf.CylinderSet(full2, [(0,), (1,)])
    assert whole.members == frozenset({()})


def test_cylinder_sibling_merge_cascades(full2):
    K = mf.CylinderSet(full2, [(0, 0, 0), (0, 0, 1), (0, 1)])
    assert K.members == frozenset({(0,)})


def test_golden_sibling_merge_respects_admissibility(golden):
    # [1] has the single child [10]; covering it completes the node
    K = mf.CylinderSet(golden, [(1, 0)])
    assert K.members == frozenset({(1,)})


def test_cylinder_restrict_and_union(full2):
    K = mf.CylinderSet(full2, [(0, 0), (1, 1)])
    assert restrict(K, (0,)).members == frozenset({(0, 0)})
    assert restrict(K, (0, 1)).is_empty
    U = union(K, mf.CylinderSet(full2, [(0, 1)]))
    assert U.members == frozenset({(0,), (1, 1)})


def test_cylinder_subset_and_intersects(full2):
    K = mf.CylinderSet(full2, [(0, 0)])
    L = mf.CylinderSet(full2, [(0,)])
    assert union(K, L) == L  # K is a subset of L
    assert union(L, K) != K  # L is not a subset of K
    assert K.intersects((0,))
    assert K.intersects((0, 0, 1))
    assert not K.intersects((0, 1))


def test_empty_cylinder_set(full2):
    K = mf.CylinderSet(full2, [])
    assert K.is_empty
    assert not K.intersects(())


def test_space_mismatch_rejected(full2, golden):
    # a cylinder set meets only the models of its own space
    L = mf.CylinderSet(golden, [(0,)])
    with pytest.raises(ValueError, match="different spaces"):
        mf.TreeEvaluator(mf.Bernoulli(full2, [0.5, 0.5]), L, 0, 2)
    with pytest.raises(mf.SpaceMismatchError):
        union(mf.CylinderSet(full2, [(0,)]), L)
