"""One-sided subshifts of finite type and their cylinder combinatorics.

Words are plain tuples of symbols.  The metric is the dyadic one,
rho(x, y) = 2^{-min{i : x_i != y_i}}, so a dynamical ball of order n at
radius 2^{-k} is exactly the cylinder of the length-(n+k) prefix of the
center.  Compact subsets are finite antichains of cylinders.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import AdmissibilityError, SpaceMismatchError

Word = tuple[int, ...]


def is_prefix(a: Word, b: Word) -> bool:
    """True iff ``a`` is a (non-strict) prefix of ``b``."""
    return len(a) <= len(b) and b[: len(a)] == a


class ShiftSpace:
    """Finite alphabet plus a 0/1 transition matrix, dynamics = left shift.

    Immutable after construction; safe to share between workers.
    """

    def __init__(self, transitions: Sequence[Sequence[int]]):
        A = np.asarray(transitions)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {A.shape}")
        if not np.isin(A, (0, 1)).all():  # before the cast, which would wrap or truncate
            raise ValueError("transition matrix entries must be 0 or 1")
        A = A.astype(np.int8)
        m = A.shape[0]
        if m < 2:
            raise ValueError("alphabet must have at least 2 symbols")
        for i in range(m):
            if not A[i].any():
                raise ValueError(f"dead symbol {i}: row {i} of transition matrix is zero")
            if not A[:, i].any():
                raise ValueError(f"dead symbol {i}: column {i} of transition matrix is zero")
        self._A = A
        self._A.setflags(write=False)
        self._m = m
        self._children = tuple(
            tuple(int(j) for j in range(m) if A[i, j]) for i in range(m)
        )
        self.irreducible = self._check_irreducible()

    @property
    def alphabet_size(self) -> int:
        return self._m

    @property
    def transitions(self) -> np.ndarray:
        return self._A

    @property
    def is_full(self) -> bool:
        return bool(self._A.all())

    def _check_irreducible(self) -> bool:
        # A is irreducible iff (I + A)^(m-1) is entrywise positive.
        R = np.eye(self._m, dtype=bool) | self._A.astype(bool)
        P = np.eye(self._m, dtype=bool)
        for _ in range(self._m - 1):
            P = P @ R
        return bool(P.all())

    def is_admissible(self, w: Word) -> bool:
        m = self._m
        if any(not (0 <= s < m) for s in w):
            return False
        return all(self._A[a, b] for a, b in zip(w, w[1:]))

    def require_admissible(self, w: Word) -> None:
        if not self.is_admissible(w):
            raise AdmissibilityError(f"word {w} is not admissible in this shift space")

    def children(self, w: Word) -> list[Word]:
        """Admissible one-symbol extensions of ``w``, in symbol order."""
        if not w:
            return [(s,) for s in range(self._m)]
        return [w + (s,) for s in self._children[w[-1]]]

    def words_of_length(self, n: int) -> Iterator[Word]:
        """All admissible words of length ``n`` in lexicographic order."""
        if n == 0:
            yield ()
            return
        stack: list[Word] = [(s,) for s in reversed(range(self._m))]
        while stack:
            w = stack.pop()
            if len(w) == n:
                yield w
            else:
                stack.extend(reversed(self.children(w)))

    def count_words(self, n: int) -> int:
        if n == 0:
            return 1
        v = np.ones(self._m, dtype=float)
        M = self._A.astype(float)
        for _ in range(n - 1):
            v = M @ v
        return int(round(v.sum()))

    def __eq__(self, other) -> bool:
        return isinstance(other, ShiftSpace) and np.array_equal(self._A, other._A)

    def __hash__(self) -> int:
        return hash(self._A.tobytes())

    def __repr__(self) -> str:
        return f"ShiftSpace(m={self._m}, irreducible={self.irreducible})"


def make_shift(alphabet_size: int, transitions: Sequence[Sequence[int]]) -> ShiftSpace:
    """Validate and build a shift space; irreducibility is computed eagerly."""
    A = np.asarray(transitions)
    if A.shape != (alphabet_size, alphabet_size):
        raise ValueError(
            f"transition matrix shape {A.shape} does not match alphabet size {alphabet_size}"
        )
    return ShiftSpace(transitions)


class CylinderSet:
    """Finite union of cylinders, stored as a canonical antichain of words.

    Canonical form: no member is a prefix of another, and a complete set of
    admissible siblings is merged into its parent.  Construction
    canonicalizes, so equal sets compare equal.
    """

    def __init__(self, space: ShiftSpace, words: Iterable[Word]):
        self.space = space
        ws = set()
        for w in words:
            w = tuple(int(s) for s in w)
            space.require_admissible(w)
            ws.add(w)
        self._members = frozenset(self._canonicalize(space, ws))

    @staticmethod
    def _canonicalize(space: ShiftSpace, ws: set[Word]) -> set[Word]:
        changed = True
        while changed:
            # drop words extending another member
            ws = {
                w for w in ws if not any(w[:j] in ws for j in range(len(w)))
            }
            changed = False
            by_parent: dict[Word, set[Word]] = defaultdict(set)
            for w in ws:
                if w:
                    by_parent[w[:-1]].add(w)
            for parent, kids in by_parent.items():
                if kids.issuperset(space.children(parent)):
                    ws -= set(space.children(parent))
                    ws.add(parent)
                    changed = True
        return ws

    @property
    def members(self) -> frozenset[Word]:
        return self._members

    @property
    def is_empty(self) -> bool:
        return not self._members

    @property
    def max_depth(self) -> int:
        return max((len(w) for w in self._members), default=0)

    def intersects(self, w: Word) -> bool:
        """True iff the cylinder of ``w`` contains a point of this set."""
        return any(is_prefix(w, a) or is_prefix(a, w) for a in self._members)

    def trie(self) -> tuple[np.ndarray, int]:
        """Membership as a prefix trie: (table, root state).  States are the
        prefixes of members, and a member's row maps every symbol to itself;
        ``table[s, a]`` is the state of s + (a,), or -1 if it misses the set."""
        nodes = sorted({a[:j] for a in self._members for j in range(len(a) + 1)})
        row = {u: i for i, u in enumerate(nodes)}
        table = np.full((len(nodes), self.space.alphabet_size), -1, dtype=np.int32)
        for u, i in row.items():
            if u in self._members:
                table[i] = i
            if u:
                table[row[u[:-1]], u[-1]] = i
        return table, row.get((), -1)

    def restrict(self, w: Word) -> "CylinderSet":
        """Intersection with the cylinder of ``w``."""
        out = []
        for a in self._members:
            if is_prefix(a, w):
                out.append(w)
            elif is_prefix(w, a):
                out.append(a)
        return CylinderSet(self.space, out)

    def union(self, other: "CylinderSet") -> "CylinderSet":
        if self.space != other.space:
            raise SpaceMismatchError("cannot union cylinder sets over different spaces")
        return CylinderSet(self.space, set(self._members) | set(other._members))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CylinderSet)
            and self.space == other.space
            and self._members == other._members
        )

    def __hash__(self) -> int:
        return hash((self.space, self._members))

    def __repr__(self) -> str:
        shown = sorted("".join(map(str, w)) if w else "<root>" for w in self._members)
        return f"CylinderSet({shown})"
