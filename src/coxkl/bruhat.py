"""Bruhat order, interval posets, and the maximal-quotient splitting check.

Comparisons use the lifting recursion on the least left descent of the
larger element (which is the first letter of its canonical word).
Every walk below an element goes through one structure, the lower cone
inside a quotient, {u in W^J : u <= v}.  It is built from the left
letter of v: with v = s v' (v' is again canonical and in W^J), the cone
of v is the cone of v' together with every s z, z in that cone, that is
longer than z and in W^J.  This is the lifting property (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Prop. 2.2.7); building from the last
letter would be wrong for J nonempty, because prefixes of W^J elements
can leave W^J.  Cones are memoized per system, per (suffix, J).
Interval covers come from the subword property: the elements covered by
z are the reduced one-letter deletions of its canonical word.
"""

from __future__ import annotations

from .core import CoxeterSystem, PreconditionError


def bruhat_leq(sys: CoxeterSystem, u, v) -> bool:
    """Whether u <= v in Bruhat order (u, v canonical words)."""
    u = tuple(u)
    v = tuple(v)
    if len(u) > len(v):
        return False
    if u == v:
        return True
    cache = sys.caches.get("leq")
    if cache is None:
        cache = sys.caches["leq"] = {}
    res = cache.get((u, v))
    if res is not None:
        return res
    # validated once here; the walk below only makes words from these
    uu = sys._check_word(u)
    vv = sys._check_word(v)
    mask = None
    while True:
        if not uu:
            res = True
            break
        if len(uu) >= len(vv):
            res = uu == vv
            break
        s = vv[0]
        vv = vv[1:]
        if mask is None:
            mask = sys._right_descents(uu[::-1])
        if mask >> s & 1:
            uu = sys._left_mul(s, uu)
            mask = None
    cache[(u, v)] = res
    return res


def cone(sys: CoxeterSystem, v, J=frozenset()) -> tuple:
    """The lower cone {u in W^J : u <= v}, sorted by (length, word).

    v must be a canonical word in W^J, for J a set of generators; the
    default J = {} gives the whole interval [e, v].  The cones of all
    suffixes of v are memoized on the way.
    """
    J = sys.check_subset(J)
    return _cone(sys, sys._check_rep(v, sum(1 << s for s in J), "v"), J)


def _cone(sys: CoxeterSystem, v: tuple, J: frozenset) -> tuple:
    """`cone` for a canonical word v in W^J that coxkl made or checked."""
    cache = sys.caches.setdefault("cone", {})
    # the longest suffix whose cone is known; the empty word's is {e}
    i = 0
    got = cache.get((v, J))
    while got is None and i < len(v):
        i += 1
        got = cache.get((v[i:], J))
    if got is None:
        got = ((),)
    jmask = sum(1 << s for s in J)
    while i:
        i -= 1
        s = v[i]
        elems = set(got)
        for z in got:
            sz = sys._left_mul(s, z)
            if len(sz) > len(z) and not (jmask and sys._right_descents(sz) & jmask):
                elems.add(sz)
        got = tuple(sorted(elems, key=lambda w: (len(w), w)))
        cache[(v[i:], J)] = got
    return got


def subword_leq_oracle(sys: CoxeterSystem, u, v) -> bool:
    """Decide u <= v by raw enumeration of all 2^l subwords of v.

    Deliberately brute force; kept as an independent cross-check of
    bruhat_leq and of cone.
    """
    u = tuple(u)
    v = tuple(v)
    seen = set()
    for bits in range(1 << len(v)):
        sub = tuple(s for i, s in enumerate(v) if bits >> i & 1)
        seen.add(sys.canonicalize(sub)[0])
    return u in seen


class IntervalPoset:
    """A Bruhat interval under the induced order.

    ground is sorted by (length, word); ranks are lengths relative to the
    bottom; covers are sorted index pairs (lower, upper); marked is the
    index set of the parabolic subset when one was requested, else None.
    """

    def __init__(self, system, bottom, top, J, ground, covers, marked):
        self.system = system
        self.bottom = bottom
        self.top = top
        self.J = J
        self.ground = tuple(ground)
        self.index = {z: i for i, z in enumerate(self.ground)}
        self.ranks = tuple(len(z) - len(bottom) for z in self.ground)
        self.covers = tuple(sorted(covers))
        self.marked = None if marked is None else frozenset(marked)
        self._up_bits = None
        self._adj = None
        self._shape = None
        self._invariants = None
        self._fingerprint = None
        self._search = {}

    def with_marking(self, J) -> IntervalPoset:
        """A copy with [u, v]^J marked, for a frozenset J; it shares every
        table that does not depend on the marking."""
        self._element_shape()
        jmask = sum(1 << s for s in J)
        ivl = object.__new__(IntervalPoset)
        ivl.__dict__.update(self.__dict__)
        ivl.J = J
        ivl.marked = frozenset(
            i for i, z in enumerate(self.ground)
            if not self.system._right_descents(z) & jmask
        )
        ivl._invariants = ivl._fingerprint = None
        ivl._search = {}
        return ivl

    @property
    def size(self) -> int:
        return len(self.ground)

    def is_marked(self, i: int) -> bool:
        return self.marked is None or i in self.marked

    def adjacency(self):
        """(down, up): lists of cover neighbors per element index."""
        if self._adj is None:
            down = [[] for _ in self.ground]
            up = [[] for _ in self.ground]
            for i, j in self.covers:
                up[i].append(j)
                down[j].append(i)
            self._adj = (down, up)
        return self._adj

    def up_bits(self) -> list[int]:
        """Per element, the bitmask of interval elements above or equal to it."""
        if self._up_bits is None:
            bits = [1 << i for i in range(self.size)]
            for i, j in reversed(self.covers):  # sorted, and i < j
                bits[i] |= bits[j]
            self._up_bits = bits
        return self._up_bits

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.up_bits()[i] >> j & 1)

    def _element_shape(self) -> tuple:
        """element_invariants without the marked flag."""
        if self._shape is None:
            down, up = self.adjacency()
            ideals = [1 << j for j in range(self.size)]
            for i, j in self.covers:
                ideals[j] |= ideals[i]
            self._shape = tuple(
                (r, len(d), len(p), i.bit_count(), f.bit_count())
                for r, d, p, i, f in zip(self.ranks, down, up, ideals, self.up_bits())
            )
        return self._shape

    def element_invariants(self) -> tuple:
        """Per element: (rank, down degree, up degree, ideal size, filter
        size, marked flag).  Preserved by any marked poset isomorphism."""
        if self._invariants is None:
            self._invariants = tuple(
                t + (self.is_marked(i),) for i, t in enumerate(self._element_shape())
            )
        return self._invariants

    def search_tables(self, respect_marking: bool):
        """(invariant -> element indices, lower-cover bitmask per element)."""
        got = self._search.get(respect_marking)
        if got is None:
            invariants = (
                self.element_invariants() if respect_marking else self._element_shape()
            )
            classes: dict = {}
            for i, t in enumerate(invariants):
                classes.setdefault(t, []).append(i)
            cover_bits = [0] * self.size
            for i, j in self.covers:
                cover_bits[j] |= 1 << i
            got = self._search[respect_marking] = (classes, cover_bits)
        return got

    def fingerprint(self) -> tuple:
        """Isomorphism-invariant summary used to prune candidate pairs: the
        sorted element invariants, which fix the size, the (marked) rank
        sizes and the number of covers."""
        if self._fingerprint is None:
            self._fingerprint = tuple(sorted(self.element_invariants()))
        return self._fingerprint

    def __repr__(self):
        return (
            f"<IntervalPoset |{self.size}| "
            f"[{self.system.word_str(self.bottom) or 'e'}, "
            f"{self.system.word_str(self.top) or 'e'}]>"
        )


def _build_interval(sys, u, v, J, max_len):
    jmask = 0 if J is None else sum(1 << s for s in J)
    u = sys._check_rep(u, jmask, "u")
    v = sys._check_rep(v, jmask, "v")
    if len(v) > max_len:
        raise PreconditionError(
            f"top element has length {len(v)} > cutoff {max_len}"
        )
    if not bruhat_leq(sys, u, v):
        raise PreconditionError("u is not <= v in Bruhat order")
    ivl = _interval(sys, u, v)
    return ivl if J is None else ivl.with_marking(J)


def _interval(sys, u, v) -> IntervalPoset:
    """The unmarked interval [u, v], for canonical words u <= v."""
    ground = [z for z in _cone(sys, v, frozenset()) if bruhat_leq(sys, u, z)]
    index = {z: i for i, z in enumerate(ground)}
    covers = []
    for j, z in enumerate(ground):
        if len(z) - len(u) < 2:
            # ground[0] = u, and it is covered by every element of rank 1
            if len(z) > len(u):
                covers.append((0, j))
            continue
        # z covers exactly the reduced one-letter deletions of its word
        for k in range(len(z)):
            y, reduced = sys._canonical(z[:k] + z[k + 1:])
            i = index.get(y) if reduced else None
            if i is not None:
                covers.append((i, j))
    return IntervalPoset(sys, u, v, None, ground, covers, None)


def interval(sys: CoxeterSystem, u, v, max_len: int = 18) -> IntervalPoset:
    """The full Bruhat interval [u, v]."""
    return _build_interval(sys, u, v, None, max_len)


def parabolic_interval(sys: CoxeterSystem, u, v, J, max_len: int = 18) -> IntervalPoset:
    """The interval [u, v] with the quotient subset [u, v]^J marked.

    Endpoints must be minimal coset representatives for J.
    """
    return _build_interval(sys, u, v, sys.check_subset(J), max_len)


def deodhar_criterion(sys: CoxeterSystem, u, v) -> bool:
    """Compare u, v through all maximal-quotient projections.

    Equivalent to bruhat_leq(u, v): the Bruhat order is determined by its
    images in the maximal quotients.  Kept as an independent cross-check.
    """
    u = tuple(u)
    v = tuple(v)
    for s in sys.generators:
        J = frozenset(sys.generators) - {s}
        if not bruhat_leq(
            sys,
            sys.project_to_quotient(u, J, "right"),
            sys.project_to_quotient(v, J, "right"),
        ):
            return False
    return True
