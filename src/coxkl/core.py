"""Coxeter systems and exact element arithmetic.

An element is its ShortLex-least reduced word, stored as a plain tuple
of generator indices; two elements are equal iff their tuples are equal,
and the empty tuple is the identity.  Lengths and descents come from the
reflection representation on root coordinates, which works uniformly for
finite and infinite systems.  The scalar backend is exact throughout:
integers for matrix entries in {1,2,3,4,6,inf}, residues in a real
cyclotomic ring otherwise.

Systems are immutable and safe to share; every operation here is a pure
function of its inputs.  Each system remembers the kernel's answers
(canonical forms and right-descent masks, per validated word), so a fact
about a word is computed once per system.  The memo holds only these
deterministic answers: an entry lost or inserted twice by concurrent
callers changes nothing.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .cyclotomic import CyclotomicRing
from .kernels import RingKernel, make_integer_kernel

INF = math.inf

Word = tuple  # tuple[int, ...]: a ShortLex canonical word unless stated otherwise

#: entries the integer backend accepts, and its fixed Cartan pairing
#: (a(s,t), a(t,s)) for s < t; asymmetric pairs do not affect lengths
#: or descents.
CRYSTALLOGRAPHIC_ENTRIES = (1, 2, 3, 4, 6, INF)
_CRYSTAL_PAIRS = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}

BACKENDS = ("auto", "crystallographic", "general")


class CoxKLError(Exception):
    """Base for library errors."""


class InputError(CoxKLError):
    """Malformed matrices, unknown generators, bad configuration."""


class PreconditionError(CoxKLError):
    """Operation called outside its contract (u > v, w not in W^J, caps)."""


class InvariantError(CoxKLError):
    """A mathematical invariant failed: an implementation bug, or a
    preloaded value that contradicts the computation reading it."""


def _check_entry(v):
    if v is INF:
        return v
    if isinstance(v, int) and not isinstance(v, bool) and v >= 1:
        return v
    raise InputError(f"matrix entry must be an integer >= 1 or INF, not {v!r}")


class CoxeterMatrix:
    """Symmetric matrix with m(s,s)=1 and off-diagonal entries in {2,3,...,INF}."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(_check_entry(v) for v in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("matrix is not square")
        for s in range(n):
            if rows[s][s] != 1:
                raise InputError(f"diagonal entry m({s},{s}) must be 1")
            for t in range(s + 1, n):
                if rows[s][t] != rows[t][s]:
                    raise InputError(f"matrix is asymmetric at ({s},{t})")
                if rows[s][t] is not INF and rows[s][t] < 2:
                    raise InputError(f"off-diagonal entry m({s},{t}) must be >= 2")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("CoxeterMatrix is immutable")

    def entry(self, s: int, t: int):
        return self.rows[s][t]

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"CoxeterMatrix({[list(r) for r in self.rows]!r})"

    def is_crystallographic(self) -> bool:
        return all(
            v in CRYSTALLOGRAPHIC_ENTRIES for row in self.rows for v in row
        )


def _integer_cartan(matrix: CoxeterMatrix):
    n = matrix.n
    cartan = [[2] * n for _ in range(n)]
    for s in range(n):
        for t in range(s + 1, n):
            m = matrix.entry(s, t)
            a_st, a_ts = _CRYSTAL_PAIRS[m]
            cartan[s][t] = a_st
            cartan[t][s] = a_ts
    return tuple(tuple(row) for row in cartan)


def _general_cartan(matrix: CoxeterMatrix):
    finite = sorted(
        {m for row in matrix.rows for m in row if m is not INF and m >= 3}
    )
    N = 1
    for m in finite:
        N = N * 2 * m // math.gcd(N, 2 * m)
    ring = CyclotomicRing(max(N, 2))
    n = matrix.n
    cartan = [[ring.from_int(2)] * n for _ in range(n)]
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            m = matrix.entry(s, t)
            if m is INF:
                cartan[s][t] = ring.from_int(-2)
            elif m == 2:
                cartan[s][t] = ring.from_int(0)
            else:
                cartan[s][t] = ring.minus_two_cos_pi_over(m)
    return ring, tuple(tuple(row) for row in cartan)


class CoxeterSystem:
    """An immutable Coxeter system with an exact word kernel."""

    def __init__(self, matrix, names=None, backend: str = "auto"):
        if not isinstance(matrix, CoxeterMatrix):
            matrix = CoxeterMatrix(matrix)
        if backend not in BACKENDS:
            raise InputError(f"unknown backend {backend!r}")
        n = matrix.n
        if names is None:
            names = tuple(f"s{i + 1}" for i in range(n))
        else:
            names = tuple(str(x) for x in names)
            if len(names) != n:
                raise InputError("need one name per generator")
            if len(set(names)) != n:
                raise InputError("generator names must be unique")
        if backend == "auto":
            backend = "crystallographic" if matrix.is_crystallographic() else "general"
        if backend == "crystallographic":
            if not matrix.is_crystallographic():
                bad = sorted(
                    {
                        v
                        for row in matrix.rows
                        for v in row
                        if v not in CRYSTALLOGRAPHIC_ENTRIES
                    }
                )
                raise InputError(
                    f"crystallographic backend does not support entries {bad}"
                )
            ring = None
            cartan = _integer_cartan(matrix)
            kernel = make_integer_kernel(cartan)
        else:
            ring, cartan = _general_cartan(matrix)
            kernel = RingKernel(ring, cartan)
        self.matrix = matrix
        self.names = names
        self.backend = backend
        self.ring = ring
        self.cartan = cartan
        self.kernel = kernel
        self.caches: dict = {}
        #: kernel answers per validated word: canonical forms, and
        #: right-descent masks (left descents of w are keyed by reversed w)
        self.canonical_memo: dict = {}
        self.descent_memo: dict = {}
        self._frozen = True

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError("CoxeterSystem is immutable")
        super().__setattr__(name, value)

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def generators(self) -> range:
        return range(self.matrix.n)

    @property
    def identity(self) -> Word:
        return ()

    def __repr__(self):
        return f"<CoxeterSystem {' '.join(self.names)} backend={self.backend}>"

    # -- names and parsing ------------------------------------------------

    def generator(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown generator {name!r}") from None

    def parse_word(self, text: str) -> Word:
        """Whitespace-separated generator names; empty string is the identity."""
        return tuple(self.generator(tok) for tok in text.split())

    def word_str(self, w: Word) -> str:
        return " ".join(self.names[s] for s in w)

    def _check_word(self, word) -> Word:
        word = tuple(word)
        n = self.matrix.n
        for s in word:
            if not (isinstance(s, int) and 0 <= s < n):
                raise InputError(f"invalid generator index {s!r}")
        return word

    def check_subset(self, J: Iterable[int]) -> frozenset:
        J = frozenset(J)
        for s in J:
            if not (isinstance(s, int) and 0 <= s < self.matrix.n):
                raise InputError(f"invalid generator index {s!r} in subset")
        return J

    def subset_mask(self, J: Iterable[int]) -> int:
        mask = 0
        for s in self.check_subset(J):
            mask |= 1 << s
        return mask

    # -- element arithmetic -------------------------------------------------

    def canonicalize(self, word) -> tuple[Word, bool]:
        """ShortLex canonical form of an arbitrary word; also reports
        whether the input was already reduced."""
        # validate first: (1.0,) == (1,), so the memo must never see it
        word = self._check_word(word)
        got = self.canonical_memo.get(word)
        if got is None:
            got = self.canonical_memo[word] = self.kernel.canonicalize(word)
        return got

    def element(self, word_or_text) -> Word:
        if isinstance(word_or_text, str):
            word_or_text = self.parse_word(word_or_text)
        return self.canonicalize(word_or_text)[0]

    def multiply_gen(self, w: Word, s: int, side: str = "right") -> Word:
        if side == "right":
            return self.canonicalize(w + (s,))[0]
        if side == "left":
            return self.canonicalize((s,) + tuple(w))[0]
        raise InputError(f"side must be 'left' or 'right', not {side!r}")

    def product(self, a: Word, b: Word) -> Word:
        return self.canonicalize(tuple(a) + tuple(b))[0]

    def inverse(self, a: Word) -> Word:
        return self.canonicalize(tuple(reversed(a)))[0]

    def length(self, w: Word) -> int:
        return len(w)

    def descent_mask(self, w: Word, side: str = "right") -> int:
        word = self._check_word(w)
        if side == "left":
            word = word[::-1]
        elif side != "right":
            raise InputError(f"side must be 'left' or 'right', not {side!r}")
        mask = self.descent_memo.get(word)
        if mask is None:
            mask = self.descent_memo[word] = self.kernel.right_descent_mask(word)
        return mask

    def descents(self, w: Word, side: str = "right") -> frozenset:
        mask = self.descent_mask(w, side)
        return frozenset(s for s in range(self.matrix.n) if mask >> s & 1)

    def is_min_rep(self, w: Word, J: Iterable[int], side: str = "right") -> bool:
        """True iff no generator of J is a descent on the given side."""
        return not self.descent_mask(w, side) & self.subset_mask(J)

    def project_to_quotient(self, w: Word, J: Iterable[int], side: str = "right") -> Word:
        """Minimal-length representative of the coset w W_J (right) or W_J w (left)."""
        jmask = self.subset_mask(J)
        w = tuple(w)
        while True:
            hit = self.descent_mask(w, side) & jmask
            if not hit:
                return w
            s = (hit & -hit).bit_length() - 1
            w = self.multiply_gen(w, s, side)

    # -- enumeration ---------------------------------------------------------

    def ball(self, radius: int) -> list[Word]:
        """All elements of length <= radius, sorted by (length, word)."""
        seen = {()}
        frontier = [()]
        for _ in range(radius):
            new = set()
            for w in frontier:
                for s in self.generators:
                    ws = self.multiply_gen(w, s, "right")
                    if len(ws) > len(w) and ws not in seen:
                        new.add(ws)
            seen.update(new)
            frontier = sorted(new)
            if not frontier:
                break
        return sorted(seen, key=lambda w: (len(w), w))

    def all_elements(self, cap: int = 200000) -> list[Word]:
        """BFS closure of the whole group; raises if it exceeds `cap`."""
        seen = {()}
        frontier = [()]
        while frontier:
            new = set()
            for w in frontier:
                for s in self.generators:
                    ws = self.multiply_gen(w, s, "right")
                    if ws not in seen:
                        new.add(ws)
            seen.update(new)
            if len(seen) > cap:
                raise PreconditionError(
                    f"group has more than {cap} elements (infinite?)"
                )
            frontier = sorted(new)
        return sorted(seen, key=lambda w: (len(w), w))


def validate_system(matrix, backend: str = "auto", names=None) -> CoxeterSystem:
    """Validate a Coxeter matrix and build an immutable system around it."""
    return CoxeterSystem(matrix, names=names, backend=backend)
