"""Coxeter systems and exact element arithmetic.

An element is its ShortLex-least reduced word, stored as a plain tuple
of generator indices; two elements are equal iff their tuples are equal,
and the empty tuple is the identity.  Lengths and descents come from the
reflection representation on root coordinates, which works uniformly for
finite and infinite systems.  The scalar backend is exact throughout:
integers on the crystallographic backend (entries in {1,2,3,4,6,inf});
on the general backend, residues in Z[x]/(Phi_N) with N = lcm(2m) over
the bonds m other than 2, 3 and inf, which are the integers 0, -1 and
-2.  Each bond's Cartan value is computed once.  `ClassX` is a class of
admissible bonds.

Systems are immutable and safe to share; every operation here is a pure
function of its inputs.  Its kernel is its element table: one record
per element met (`kernels.RingKernel`), so a fact about an element is
computed once per system.  `canonical_memo` is the table's index from
canonical words to ids; any other word is walked, one row read per
letter.

Public methods validate their arguments on every call, each kind with
one check: `check_subset` for subsets, words and generator keys,
`check_bond` for bonds and `_is_left` for sides.  Every canonical word
coxkl hands out is its element's object, so it passes the check by
identity (`_check_rep`).  The private lookups `_id` and `_canonical`
skip validation: they take only words that coxkl itself produced (out of
`canonicalize`, a cone, or an earlier lookup) or has already passed
through `_check_word`.
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
    """A mathematical invariant failed: an implementation bug."""


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
        try:
            rows = tuple(tuple(_check_entry(v) for v in row) for row in rows)
        except TypeError:  # rows, or one row, is not iterable
            raise InputError("matrix must be a sequence of rows") from None
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


def check_bond(m, what: str):
    """m, if it is a bond other than 2 (an int >= 3, not a bool, or INF),
    else InputError naming what; tested before m is hashed."""
    if m is not INF and (type(m) is not int or m < 3):
        raise InputError(f"{what} must be an int >= 3 or 'inf', not {m!r}")
    return m


def check_count(n, what: str) -> int:
    """n, if it is an int >= 0 and not a bool, else InputError naming what:
    the one check of radii, caps and scan counts."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"{what} must be a nonnegative integer, not {n!r}")
    return n


def bitmask(J) -> int:
    """The bit mask of a set of generator indices."""
    return sum(1 << s for s in J)


def _is_left(side) -> bool:
    """Whether side is 'left' rather than 'right'; InputError for any other."""
    if side != "left" and side != "right":
        raise InputError(f"side must be 'left' or 'right', not {side!r}")
    return side == "left"


class ClassX:
    """A nonempty set of admissible bond labels (>= 3 or INF)."""

    __slots__ = ("values",)

    def __init__(self, values):
        try:
            values = list(values)
        except TypeError:
            raise InputError("class_x must be a list of bonds") from None
        for v in values:
            check_bond(v, "class_x entry")
        if not values:
            raise InputError("class_x must be nonempty")
        self.values = frozenset(values)

    def __eq__(self, other):
        return isinstance(other, ClassX) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"ClassX(values={self.values!r})"


def is_class_x(matrix: CoxeterMatrix, class_x: ClassX) -> bool:
    """Whether all off-diagonal bonds lie in the class (2 is always allowed)."""
    allowed = class_x.values | {2}
    n = matrix.n
    return all(
        matrix.entry(s, t) in allowed
        for s in range(n)
        for t in range(s + 1, n)
    )


#: the largest N = lcm(2m) over the ring bonds m that the general backend takes
MAX_RING_ORDER = 10_000


def _cartan(matrix: CoxeterMatrix, backend: str):
    """(ring, Cartan matrix) of a checked matrix on a backend.  Each bond
    gives one pair (a(s,t), a(t,s)): the integer backend reads
    `_CRYSTAL_PAIRS`; the general one takes bonds 2, 3 and INF as the ring
    integers 0, -1 and -2, and -2cos(pi/m) once for every other bond m,
    in the ring of N = lcm(2m) over those bonds (ring None: Python ints)."""
    n = matrix.n
    bonds = {matrix.entry(s, t) for s in range(n) for t in range(s + 1, n)}
    if backend == "crystallographic":
        ring, pairs = None, _CRYSTAL_PAIRS
    else:
        integers = {m: a for m, (a, b) in _CRYSTAL_PAIRS.items() if a == b}
        ring_bonds = sorted(bonds - integers.keys())
        N = 1
        for m in ring_bonds:
            N = N * 2 * m // math.gcd(N, 2 * m)
        if N > MAX_RING_ORDER:
            raise InputError(f"bonds {ring_bonds} need cyclotomic order N = {N} > {MAX_RING_ORDER}")
        ring = CyclotomicRing(max(N, 2))
        pairs = {m: (ring.from_int(a),) * 2 for m, a in integers.items()}
        pairs.update((m, (ring.minus_two_cos_pi_over(m),) * 2) for m in ring_bonds)
    two = 2 if ring is None else ring.from_int(2)
    cartan = [[two] * n for _ in range(n)]
    for s in range(n):
        for t in range(s + 1, n):
            cartan[s][t], cartan[t][s] = pairs[matrix.entry(s, t)]
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
            if not isinstance(names, (list, tuple)) or not all(
                isinstance(x, str) for x in names
            ):
                raise InputError("generators must be a list of names")
            names = tuple(names)
            if len(names) != n:
                raise InputError("need one name per generator")
            if len(set(names)) != n:
                raise InputError("generator names must be unique")
            for name in names:
                # words are written with spaces, quotients with commas
                if "," in name or name.split() != [name]:
                    raise InputError(
                        f"generator name {name!r} must be nonempty, "
                        "without whitespace or commas"
                    )
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
        ring, cartan = _cartan(matrix, backend)
        kernel = make_integer_kernel(cartan) if ring is None else RingKernel(ring, cartan)
        self.matrix = matrix
        self.names = names
        self.backend = backend
        self.ring = ring
        self.cartan = cartan
        self.kernel = kernel
        self.caches: dict = {}
        #: the kernel's index: canonical word -> id of its element's record
        self.canonical_memo: dict = kernel.index
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
        if not isinstance(text, str):
            raise InputError(f"word text must be a string, not {text!r}")
        return tuple(self.generator(tok) for tok in text.split())

    def word_str(self, w: Word) -> str:
        return " ".join(self.names[s] for s in w)

    def check_subset(self, J: Iterable[int], kind=frozenset, what: str = "subset"):
        """kind(J) after checking that it converts and holds only generator
        indices, else InputError naming what: the one check of subsets, of
        words (kind=tuple, `_check_word`) and of generator keys."""
        try:
            J = kind(J)
        except TypeError:  # not iterable, or an unhashable member of a set
            raise InputError(f"{what} {J!r} is not a collection of generator indices") from None
        n = self.matrix.n
        for s in J:
            # bool is an int subclass; True must not pass for generator 1
            if not (type(s) is int and 0 <= s < n):
                raise InputError(f"invalid generator index {s!r} in {what}")
        return J

    def _check_word(self, word) -> Word:
        return self.check_subset(word, tuple, "word")

    def _check_rep(self, w, jmask: int, name: str) -> Word:
        """The system's object for w, after checking that w is a canonical
        word (else InputError) in W^J, for J a bit mask (else
        PreconditionError).  w passes by identity when it is the word of
        the record that the index gives it; (1.0,), (True,), None, lists,
        tuple subclasses and unhashable words take the full check."""
        words = self.kernel.words
        try:
            i = self.canonical_memo.get(w)
        except TypeError:  # unhashable: the full check says why
            i = None
        if i is None or words[i] is not w:
            word = self._check_word(w)
            i = self._id(word)
            w = words[i]
            if w != word:
                raise InputError(f"{name} is not a canonical reduced word")
        if jmask and self.kernel.right(i) & jmask:
            raise PreconditionError(f"{name} = '{self.word_str(w)}' is not in W^J")
        return w

    def subset_mask(self, J: Iterable[int]) -> int:
        return bitmask(self.check_subset(J))

    # -- element arithmetic -------------------------------------------------

    def canonicalize(self, word) -> tuple[Word, bool]:
        """ShortLex canonical form of an arbitrary word; also reports
        whether the input was already reduced."""
        # validate first: (1.0,) == (1,), so the memo must never see it
        word = self._check_word(word)
        c = self._canonical(word)
        return c, len(c) == len(word)

    def element(self, word_or_text) -> Word:
        if isinstance(word_or_text, str):
            word_or_text = self.parse_word(word_or_text)
        return self._canonical(self._check_word(word_or_text))

    def multiply_gen(self, w: Word, s: int, side: str = "right") -> Word:
        w = self._check_word(w)
        return self._canonical(self._check_word((s,) + w if _is_left(side) else w + (s,)))

    def product(self, a: Word, b: Word) -> Word:
        return self._canonical(self._check_word(a) + self._check_word(b))

    def inverse(self, a: Word) -> Word:
        return self._canonical(self._check_word(a)[::-1])

    def descent_mask(self, w: Word, side: str = "right") -> int:
        i = self._id(self._check_word(w))
        return self.kernel.masks[i] if _is_left(side) else self.kernel.right(i)

    def descents(self, w: Word, side: str = "right") -> frozenset:
        mask = self.descent_mask(w, side)
        return frozenset(s for s in range(self.matrix.n) if mask >> s & 1)

    def is_min_rep(self, w: Word, J: Iterable[int], side: str = "right") -> bool:
        """True iff no generator of J is a descent on the given side."""
        return not self.descent_mask(w, side) & self.subset_mask(J)

    # -- lookups for words coxkl produced (no validation) --------------------

    def _id(self, word: Word) -> int:
        """The id of a validated word's element: an index read for a
        canonical word, else a walk."""
        i = self.canonical_memo.get(word)
        return self.canonical_memo[self.kernel.canonicalize(word)] if i is None else i

    def _canonical(self, word: Word) -> Word:
        """The element's one object, for a validated word, reduced or not."""
        return self.kernel.words[self._id(word)]

    # -- enumeration ---------------------------------------------------------

    def ball(self, radius: int, J: Iterable[int] = frozenset()) -> list[Word]:
        """The elements of W^J of length <= radius, sorted by (length,
        word); the default J = {} gives the whole ball."""
        return self._bfs(check_count(radius, "radius"), None, self.subset_mask(J))

    def all_elements(self, cap: int = 200000) -> list[Word]:
        """BFS closure of the whole group; raises if it exceeds `cap`."""
        return self._bfs(None, check_count(cap, "cap"), 0)

    def _bfs(self, radius, cap, jmask) -> list[Word]:
        """Elements of W^J (J as a bit mask) of length <= radius (None: no
        bound), sorted by (length, word); PreconditionError past cap
        elements.  W^J is closed under suffixes, so each layer is the
        longer left multiples s w of the last that stay in W^J."""
        k = self.kernel
        seen, frontier = {0}, {0}
        depth = 0
        while frontier and depth != radius:
            new = set()
            for i in frontier:
                for s in self.generators:
                    if not k.masks[i] >> s & 1:
                        j = k.act(s, i)
                        if not (jmask and k.right(j) & jmask):
                            new.add(j)
            seen |= new
            frontier = new
            if cap is not None and len(seen) > cap:
                raise PreconditionError(
                    f"group has more than {cap} elements (infinite?)"
                )
            depth += 1
        return sorted(map(k.words.__getitem__, seen), key=lambda w: (len(w), w))


def validate_system(matrix, backend: str = "auto", names=None) -> CoxeterSystem:
    """Validate a Coxeter matrix and build an immutable system around it."""
    return CoxeterSystem(matrix, names=names, backend=backend)
