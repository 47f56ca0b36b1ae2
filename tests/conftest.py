"""Shared fixtures and independent oracles.

The oracles model concrete Coxeter groups by (signed, affine)
permutations, so lengths, descents and order can be checked against the
root-coordinate kernels without sharing any code with them.
"""

from __future__ import annotations

import pytest

from coxkl import INF, validate_system

# -- systems -------------------------------------------------------------


@pytest.fixture(scope="session")
def a1():
    return validate_system([[1]])


@pytest.fixture(scope="session")
def a2():
    return validate_system([[1, 3], [3, 1]])


@pytest.fixture(scope="session")
def a3():
    return validate_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]])


@pytest.fixture(scope="session")
def b3():
    return validate_system([[1, 4, 2], [4, 1, 3], [2, 3, 1]])


@pytest.fixture(scope="session")
def a1xa1():
    return validate_system([[1, 2], [2, 1]])


@pytest.fixture(scope="session")
def affine_a2():
    return validate_system([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


@pytest.fixture(scope="session")
def d4():
    return validate_system([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]])


@pytest.fixture(scope="session")
def h3():
    return validate_system([[1, 5, 2], [5, 1, 3], [2, 3, 1]])


@pytest.fixture(scope="session")
def universal3():
    return validate_system([[1, INF, INF], [INF, 1, INF], [INF, INF, 1]])


# -- permutation models ------------------------------------------------------


class SymmetricModel:
    """A_{n-1} as permutations of 1..n; generator i swaps i+1, i+2."""

    def __init__(self, n):
        self.n = n
        self.identity = tuple(range(1, n + 1))

    def apply(self, state, s):
        out = list(state)
        out[s], out[s + 1] = out[s + 1], out[s]
        return tuple(out)

    def from_word(self, word):
        state = self.identity
        for s in word:
            state = self.apply(state, s)
        return state

    def length(self, state):
        n = self.n
        return sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if state[i] > state[j]
        )

    def right_descents(self, state):
        return {s for s in range(self.n - 1) if state[s] > state[s + 1]}

    def leq(self, a, b):
        """Ehresmann criterion: sorted prefixes dominated entrywise."""
        for i in range(1, self.n):
            pa = sorted(a[:i])
            pb = sorted(b[:i])
            if any(x > y for x, y in zip(pa, pb)):
                return False
        return True


class SignedModel:
    """B_n as signed permutations; generator 0 flips the first entry,
    generator i > 0 swaps entries i, i+1."""

    def __init__(self, n):
        self.n = n
        self.identity = tuple(range(1, n + 1))

    def apply(self, state, s):
        out = list(state)
        if s == 0:
            out[0] = -out[0]
        else:
            out[s - 1], out[s] = out[s], out[s - 1]
        return tuple(out)

    def from_word(self, word):
        state = self.identity
        for s in word:
            state = self.apply(state, s)
        return state

    def length(self, state):
        n = self.n
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if state[i] > state[j]
        )
        neg = sum(
            1
            for i in range(n)
            for j in range(i, n)
            if state[i] + state[j] < 0
        )
        return inv + neg

    def right_descents(self, state):
        out = set()
        if state[0] < 0:
            out.add(0)
        for s in range(1, self.n):
            if state[s - 1] > state[s]:
                out.add(s)
        return out


class AffineSymmetricModel:
    """Affine A_{n-1} as window permutations of Z; generator i < n-1 swaps
    i+1, i+2 (mod translation), the last generator is the wrapping swap."""

    def __init__(self, n):
        self.n = n
        self.identity = tuple(range(1, n + 1))

    def apply(self, state, s):
        n = self.n
        out = list(state)
        if s < n - 1:
            out[s], out[s + 1] = out[s + 1], out[s]
        else:
            first, last = out[0], out[n - 1]
            out[0] = last - n
            out[n - 1] = first + n
        return tuple(out)

    def from_word(self, word):
        state = self.identity
        for s in word:
            state = self.apply(state, s)
        return state

    def length(self, state):
        n = self.n
        total = 0
        for i in range(n):
            for j in range(i + 1, n):
                total += abs((state[j] - state[i]) // n)
        return total

    def right_descents(self, state):
        n = self.n
        out = {s for s in range(n - 1) if state[s] > state[s + 1]}
        if state[n - 1] > state[0] + n:
            out.add(n - 1)
        return out


@pytest.fixture(scope="session")
def sym3_model():
    return SymmetricModel(3)


@pytest.fixture(scope="session")
def sym4_model():
    return SymmetricModel(4)


@pytest.fixture(scope="session")
def signed3_model():
    return SignedModel(3)


@pytest.fixture(scope="session")
def affine3_model():
    return AffineSymmetricModel(3)


# -- generic helpers ------------------------------------------------------------


def naive_closure(sys, v):
    """All 2^l subword products of v's canonical word, deduplicated."""
    v = tuple(v)
    seen = set()
    for bits in range(1 << len(v)):
        sub = tuple(s for i, s in enumerate(v) if bits >> i & 1)
        seen.add(sys.canonicalize(sub)[0])
    return seen


def all_subsets(gens):
    from itertools import combinations

    gens = list(gens)
    out = []
    for r in range(len(gens) + 1):
        out.extend(frozenset(c) for c in combinations(gens, r))
    return out
