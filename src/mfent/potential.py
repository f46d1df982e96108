"""Locally constant potentials on admissible words of a fixed length."""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import ConvergenceError
from .space import ShiftSpace, Word


def _name(w: Word) -> str:
    """A word as a tuple, or a long one by its length and first symbols."""
    return str(w) if len(w) <= 64 else f"of length {len(w)} beginning {w[:16]}"


def _first_missing(space: ShiftSpace, r: int, table: Mapping[Word, float]) -> Word | None:
    """The lexicographically first admissible word of length r missing from
    ``table``, or None.  One word, held in a list, steps to its
    lexicographic successor: the last symbol with a larger admissible one
    is raised to it, and the rest is filled with smallest children (no
    symbol is dead, so the fill never stalls).  Time and memory are linear
    in r times the table's size."""
    kids = [np.flatnonzero(row).tolist() for row in space.transitions]
    word = [0]
    for _ in range(1, r):
        word.append(kids[word[-1]][0])

    def options(i: int):  # the admissible symbols at position i of the word
        return kids[word[i - 1]] if i else range(len(kids))

    while tuple(word) in table:
        i = r - 1
        while i >= 0 and options(i)[-1] == word[i]:  # no larger symbol at i
            i -= 1
        if i < 0:  # the last word
            return None
        up = options(i)
        word[i] = up[up.index(word[i]) + 1]
        for j in range(i + 1, r):
            word[j] = kids[word[j - 1]][0]
    return tuple(word)


class Potential:
    """A real value per admissible word of length r (r >= 2).

    A table value of -inf marks a structural zero: the word is excluded
    from every weighted transfer matrix regardless of the inverse
    temperature, mirroring how zero transition probabilities drop
    cylinders from admissible partition sums.
    """

    def __init__(self, space: ShiftSpace, r: int, table: Mapping[Word, float]):
        if r < 2:
            raise ValueError("potential locality depth r must be >= 2")
        self.space = space
        self.r = r
        tab = {tuple(w): float(v) for w, v in table.items()}
        for w, v in tab.items():
            if len(w) != r or not space.is_admissible(w):
                raise ValueError(f"potential table contains inadmissible word {_name(w)}")
            if math.isnan(v) or v == math.inf:
                raise ValueError(
                    f"potential value {v} on word {_name(w)}: need a real number or -inf"
                )
        missing = _first_missing(space, r, tab)
        if missing is not None:
            raise ValueError(f"potential table missing admissible word {_name(missing)}")
        self.table = tab

    def states(self) -> list[Word]:
        """Admissible words of length r-1, the transfer-matrix index set."""
        return sorted(self.space.words_of_length(self.r - 1))

    def transfer_matrix(self, scale: float = 1.0) -> tuple[np.ndarray, list[Word]]:
        """Weighted transfer matrix M[u, v] = exp(scale * psi(u + v[-1])).

        Entries are zero when the overlap is inadmissible or the potential
        is -inf on the composed word (structural zero).  Raises
        ConvergenceError when an entry overflows.
        """
        states = self.states()
        index = {u: i for i, u in enumerate(states)}
        n = len(states)
        M = np.zeros((n, n))
        for u in states:
            for w in self.space.children(u):
                val = self.table[w]
                if math.isinf(val) and val < 0:
                    continue
                try:
                    M[index[u], index[w[1:]]] = math.exp(scale * val)
                except OverflowError:
                    raise ConvergenceError(f"weight exp({scale} * {val}) overflows") from None
        return M, states
