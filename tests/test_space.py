from collections import defaultdict

import numpy as np
import pytest

import mfent as mf
from conftest import FULL2, GOLDEN, count_words, restrict, union
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


def canonicalize_reference(space, ws):
    """The fixpoint the sorted pass replaced: drop every word that extends
    another member, merge every complete set of admissible siblings, repeat."""
    changed = True
    while changed:
        ws = {w for w in ws if not any(w[:j] in ws for j in range(len(w)))}
        changed = False
        by_parent = defaultdict(set)
        for w in ws:
            if w:
                by_parent[w[:-1]].add(w)
        for parent, kids in by_parent.items():
            if kids.issuperset(space.children(parent)):
                ws -= set(space.children(parent))
                ws.add(parent)
                changed = True
    return ws


def trie_reference(K):
    """The prefix trie built from the sorted set of every member's prefixes."""
    nodes = sorted({a[:j] for a in K.members for j in range(len(a) + 1)})
    row = {u: i for i, u in enumerate(nodes)}
    table = np.full((len(nodes), K.space.alphabet_size), -1, dtype=np.int32)
    for u, i in row.items():
        if u in K.members:
            table[i] = i
        if u:
            table[row[u[:-1]], u[-1]] = i
    return table, row.get((), -1)


THREE = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]  # a proper subshift on 3 symbols


def word_sets(space, rng, count):
    """Seeded random sets of admissible words of length 0 to 6, up to 12 a set."""
    levels = [list(space.words_of_length(n)) for n in range(7)]
    for _ in range(count):
        picks = rng.integers(0, 7, size=rng.integers(0, 13))
        yield [levels[n][rng.integers(len(levels[n]))] for n in picks]


@pytest.mark.parametrize("transitions", [FULL2, GOLDEN, THREE], ids=["full2", "golden", "three"])
def test_canonical_members_and_trie_match_the_references(transitions):
    space = mf.make_shift(len(transitions), transitions)
    # the empty set, the root, full sibling sets that merge, nested words
    named = [[], [()], [(s,) for s in range(space.alphabet_size)],
             [(0, 0), (0, 1), (0, 0, 0)], [(0,), (0, 0), (0, 0, 1)]]
    for words in named + list(word_sets(space, np.random.default_rng(37), 400)):
        K = mf.CylinderSet(space, words)
        assert K.members == canonicalize_reference(space, set(words))
        table, root = K.trie()
        expected, expected_root = trie_reference(K)
        assert root == expected_root
        assert table.dtype == expected.dtype and table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()


def test_long_word_is_canonical_and_its_trie_is_a_path(full2):
    # a 20,000-symbol word: every prefix once, in order, each one row long
    word = tuple(np.random.default_rng(7).integers(0, 2, size=20_000).tolist())
    K = mf.CylinderSet(full2, [word, word[:30_000], word + (0, 1)])
    assert K.members == frozenset({word})
    table, root = K.trie()
    assert root == 0 and table.shape == (20_001, 2)
    np.testing.assert_array_equal(table[np.arange(20_000), word], np.arange(1, 20_001))
    assert (table[-1] == 20_000).all()
    assert (table >= 0).sum() == 20_002
