"""Bruhat order, interval posets, and the maximal-quotient splitting check.

Order facts live in one numbered index per (system, J) (`_Order`): each
element of W^J met gets an id after its lower covers in W^J (the reduced
one-letter deletions of its word that stay in W^J), and bitmasks of the
ids below and above it, so u <= v is a bit test and [u, v]^J is
up[u] & down[v].  Cones, intervals and their covers, and the polynomial
recursions (with its left action s·z) all read it.  The public
`bruhat_leq` walks the lifting recursion instead (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Prop. 2.2.7), on the least left descent
of the larger element (the first letter of its canonical word), since
numbering the cone of a long word can cost exponentially many elements.
Intervals with equal labeled shape (ranks, covers), in any system, share
one weakly registered record of immutable tables, and one sub-record per
marking, which also holds the isomorphism search memo.
"""

from __future__ import annotations

import threading
import weakref

from .core import CoxeterSystem, PreconditionError


def bruhat_leq(sys: CoxeterSystem, u, v) -> bool:
    """Whether u <= v in Bruhat order, for canonical words u and v."""
    return _leq(sys, sys._check_rep(u, 0, "u"), sys._check_rep(v, 0, "v"))


def _leq(sys: CoxeterSystem, u: tuple, v: tuple) -> bool:
    """`bruhat_leq` for canonical words that coxkl made or checked."""
    if len(u) > len(v):
        return False
    mask = None
    while u:
        if len(u) >= len(v):
            return u == v
        s = v[0]
        v = v[1:]
        if mask is None:
            mask = sys._right_descents(u[::-1])
        if mask >> s & 1:
            u = sys._left_mul(s, u)
            mask = None
    return True


def cone(sys: CoxeterSystem, v, J=frozenset()) -> tuple:
    """The lower cone {u in W^J : u <= v}, sorted by (length, word).

    v must be a canonical word in W^J, for J a set of generators; the
    default J = {} gives the whole interval [e, v].
    """
    J = sys.check_subset(J)
    order = _order(sys, J)
    v = sys._check_rep(v, order.jmask, "v")
    order.id(sys, v)
    return tuple(sorted(order.between((), v), key=_by_length))


def _by_length(w: tuple):
    return len(w), w


def _bits(mask: int):
    """The set bit positions of mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Order:
    """W^J elements, numbered as met: words[i] has id i, length lens[i],
    lower covers[i] (the first is words[i][1:]) and bitmasks down[i] (ids
    <= it) and up[i] (ids >= it).  An id is published under the lock,
    after its bits.  left[i], filled on first use, gives s·z for each s:
    a lower cover's id, a higher word in W^J, or None outside W^J."""

    def __init__(self, jmask: int):
        self.jmask, self.lock = jmask, threading.Lock()
        self.ids, self.words, self.lens, self.covers, self.down, self.up = {}, [], [], [], [], []
        self.left = {}

    def id(self, sys, v) -> int:
        """The id of v (canonical, in W^J), numbering its cone first."""
        got = self.ids.get(v)
        if got is None:
            with self.lock:
                if v not in self.ids:
                    self._number(sys, v)
            got = self.ids[v]
        return got

    def leq(self, sys, u, v) -> bool:
        down = self.down[self.id(sys, v)]
        i = self.ids.get(u)
        return i is not None and down >> i & 1 == 1

    def between(self, u, v):
        """[u, v]^J, for numbered u and v."""
        return map(self.words.__getitem__, _bits(self.up[self.ids[u]] & self.down[self.ids[v]]))

    def row(self, sys, i) -> tuple:
        """left[i], made on first use."""
        got = self.left.get(i)
        if got is None:
            z, act = self.words[i], []
            for s in sys.generators:
                sz = sys._left_mul(s, z)
                if len(sz) < len(z):
                    sz = self.ids[sz]
                elif self.jmask and sys._right_descents(sz) & self.jmask:
                    sz = None
                act.append(sz)
            got = self.left[i] = tuple(act)
        return got

    def _number(self, sys, v):
        # W^J is graded (Bjorner-Brenti 2.5.5): z covers the reduced
        # one-letter deletions of its word in W^J
        ids, below, todo = self.ids, {v: None}, [v]
        while todo:
            z = todo.pop()
            below[z] = []
            for k in range(len(z)):
                y, reduced = sys._canonical(z[:k] + z[k + 1:])
                if reduced and not (self.jmask and sys._right_descents(y) & self.jmask):
                    below[z].append(y)
                    if y not in ids and y not in below:
                        below[y] = None
                        todo.append(y)
        for z in sorted(below, key=len):
            i = len(self.words)
            covers = tuple(ids[y] for y in below[z])
            down = 1 << i
            for c in covers:
                down |= self.down[c]
            self.up.append(0)
            for j in _bits(down):
                self.up[j] |= 1 << i
            self.words.append(z)
            self.lens.append(len(z))
            self.covers.append(covers)
            self.down.append(down)
            ids[z] = i


def _order(sys: CoxeterSystem, J: frozenset) -> _Order:
    """The system's numbered order on W^J, made on first use."""
    orders = sys.caches.get("order") or sys.caches.setdefault("order", {})
    return orders.get(J) or orders.setdefault(J, _Order(sum(1 << s for s in J)))


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


class _Shape:
    """Tables shared by every interval of one labeled shape (ranks, covers)."""

    def __init__(self, ranks, covers):
        down = [[] for _ in ranks]
        up = [[] for _ in ranks]
        ideals = [1 << i for i in range(len(ranks))]
        for i, j in covers:
            up[i].append(j)
            down[j].append(i)
            ideals[j] |= ideals[i]
        bits = [1 << i for i in range(len(ranks))]
        for i, j in reversed(covers):  # sorted, and i < j
            bits[i] |= bits[j]
        self.ranks, self.covers = ranks, covers
        self.adj = (tuple(map(tuple, down)), tuple(map(tuple, up)))
        self.up_bits = tuple(bits)
        self.element_shape = tuple(
            (r, len(d), len(p), i.bit_count(), f.bit_count())
            for r, d, p, i, f in zip(ranks, down, up, ideals, bits)
        )
        self.markings = {}  # marked index set -> _Marking

    def marking(self, marked):
        got = self.markings.get(marked)
        if got is None:
            got = self.markings[marked] = _Marking(self, marked)
        return got


class _Marking:
    """Tables shared by every interval of one marking of a shape."""

    def __init__(self, shape, marked):
        self.invariants = tuple(
            t + (marked is None or i in marked,) for i, t in enumerate(shape.element_shape)
        )
        self.fingerprint = tuple(sorted(self.invariants))
        self.search = {}
        self.witnesses = weakref.WeakKeyDictionary()  # other _Marking -> mapping


# (ranks, covers) -> _Shape, for as long as some interval refers to it
_SHAPES = weakref.WeakValueDictionary()


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
        key = (tuple(len(z) - len(bottom) for z in self.ground), tuple(sorted(covers)))
        shape = _SHAPES.get(key)
        if shape is None:
            shape = _SHAPES[key] = _Shape(*key)
        self._shape = shape
        self.ranks, self.covers = shape.ranks, shape.covers
        self.marked = None if marked is None else frozenset(marked)
        self._marking = shape.marking(self.marked)

    def with_marking(self, J) -> IntervalPoset:
        """A copy with [u, v]^J marked, for a frozenset J."""
        jmask = sum(1 << s for s in J)
        ivl = object.__new__(IntervalPoset)
        ivl.__dict__.update(self.__dict__)
        ivl.J = J
        ivl.marked = frozenset(
            i for i, z in enumerate(self.ground)
            if not self.system._right_descents(z) & jmask
        )
        ivl._marking = self._shape.marking(ivl.marked)
        return ivl

    @property
    def size(self) -> int:
        return len(self.ground)

    def is_marked(self, i: int) -> bool:
        return self.marked is None or i in self.marked

    def adjacency(self):
        """(down, up): tuples of cover neighbors per element index."""
        return self._shape.adj

    def up_bits(self) -> tuple:
        """Per element, the bitmask of interval elements above or equal to it."""
        return self._shape.up_bits

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.up_bits()[i] >> j & 1)

    def element_invariants(self) -> tuple:
        """Per element: (rank, down degree, up degree, ideal size, filter
        size, marked flag).  Preserved by any marked poset isomorphism."""
        return self._marking.invariants

    def search_tables(self, respect_marking: bool):
        """(invariant -> element indices, lower-cover bitmask per element)."""
        search = self._marking.search
        got = search.get(respect_marking)
        if got is None:
            invariants = (
                self._marking.invariants if respect_marking else self._shape.element_shape
            )
            classes: dict = {}
            for i, t in enumerate(invariants):
                classes.setdefault(t, []).append(i)
            cover_bits = [0] * self.size
            for i, j in self.covers:
                cover_bits[j] |= 1 << i
            got = search[respect_marking] = (classes, tuple(cover_bits))
        return got

    def fingerprint(self) -> tuple:
        """Isomorphism-invariant summary used to prune candidate pairs: the
        sorted element invariants, which fix the size, the (marked) rank
        sizes and the number of covers."""
        return self._marking.fingerprint

    def __repr__(self):
        return (
            f"<IntervalPoset |{self.size}| "
            f"[{self.system.word_str(self.bottom) or 'e'}, "
            f"{self.system.word_str(self.top) or 'e'}]>"
        )


def _build_interval(sys, u, v, J):
    """[u, v], marked with J unless J is None, after checking its ends."""
    jmask = 0 if J is None else sum(1 << s for s in J)
    u = sys._check_rep(u, jmask, "u")
    v = sys._check_rep(v, jmask, "v")
    if not _order(sys, frozenset()).leq(sys, u, v):
        raise PreconditionError("u is not <= v in Bruhat order")
    ivl = _interval(sys, u, v)
    return ivl if J is None else ivl.with_marking(J)


def _cutoff(v, max_len: int):
    """v, after checking that it has at most max_len letters."""
    if len(v) > max_len:
        raise PreconditionError(f"top element has length {len(v)} > cutoff {max_len}")
    return v


def _interval(sys, u, v) -> IntervalPoset:
    """The unmarked interval [u, v], for canonical words u <= v."""
    order = _order(sys, frozenset())
    words = order.words
    span = order.down[order.id(sys, v)] & order.up[order.ids[u]]
    ids = sorted(_bits(span), key=lambda i: _by_length(words[i]))
    pos = {i: k for k, i in enumerate(ids)}
    covers = [(pos[c], k) for k, i in enumerate(ids) for c in order.covers[i] if span >> c & 1]
    return IntervalPoset(sys, u, v, None, map(words.__getitem__, ids), covers, None)


def interval(sys: CoxeterSystem, u, v, max_len: int = 18) -> IntervalPoset:
    """The full Bruhat interval [u, v], for l(v) <= max_len."""
    return _build_interval(sys, u, _cutoff(v, max_len), None)


def parabolic_interval(sys: CoxeterSystem, u, v, J, max_len: int = 18) -> IntervalPoset:
    """The interval [u, v] with the quotient subset [u, v]^J marked, for
    l(v) <= max_len.

    Endpoints must be minimal coset representatives for J.
    """
    return _build_interval(sys, u, _cutoff(v, max_len), sys.check_subset(J))


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
