"""Bruhat order and interval posets.

Lower covers and s·z are read from the element's record in the kernel,
where each is found once (`_lower_covers`).  Order facts live in one
numbered index per (system, J) (`_Order`): each element of W^J met gets
an id after its lower covers in W^J, and bitmasks of the ids below and
above it, so u <= v is a bit test and [u, v]^J is up[u] & down[v].
`bruhat_leq`, cones and the polynomial recursions read it.  The public
`bruhat_leq` reads the index of W when it already holds v, since v's
whole lower cone is numbered then.  Otherwise it walks the lifting
recursion (Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop. 2.2.7),
on the least left descent of the larger element (the first letter of its
canonical word), and never numbers a cone itself, since numbering the
cone of a long word can cost exponentially many elements.  An interval
[u, v] comes from a shell of v that reaches l(u) (`_Shell`), not a cone.
Intervals with equal labeled shape (ranks, covers), in any system, share
one weakly registered record of immutable tables, and one sub-record per
marking, which also holds the memo of found isomorphisms (the identity,
between two intervals that share one).  `IsoWitness` certifies an
isomorphism of two intervals by their covers.
"""

from __future__ import annotations

import threading
import weakref
from typing import NamedTuple

from .core import CoxeterSystem, PreconditionError, bitmask

#: the longest top that the public `interval` and `parabolic_interval` take
INTERVAL_CUTOFF = 18

#: J = {}, whose index numbers W itself
_W = frozenset()


def bruhat_leq(sys: CoxeterSystem, u, v) -> bool:
    """Whether u <= v in Bruhat order, for canonical words u and v.

    When v has an id in the system's index of W, u <= v iff u has one
    too and its bit is set in down[v].  Otherwise the lifting recursion
    answers, and no cone is numbered: the cone of a long v can have
    exponentially many elements, while the walk is linear in l(v)."""
    u = sys._check_rep(u, 0, "u")
    v = sys._check_rep(v, 0, "v")
    order = _order(sys, _W)
    iv = order.ids.get(v)
    if iv is None:
        return _leq(sys, u, v)
    iu = order.ids.get(u)
    return iu is not None and order.down[iv] >> iu & 1 == 1


def _leq(sys: CoxeterSystem, u: tuple, v: tuple) -> bool:
    """`bruhat_leq` for canonical words that coxkl made or checked."""
    k, n, i = sys.kernel, len(u), sys._id(u)
    while n:
        if n >= len(v):
            return k.words[i] == v
        s = v[0]
        v = v[1:]
        if k.masks[i] >> s & 1:
            i, n = k.act(s, i), n - 1
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
    """W^J elements, numbered as met: words[i] has id i, its record
    elems[i] in the kernel, length lens[i], lower covers[i] (the first is
    words[i][1:]) and bitmasks down[i] (ids <= it) and up[i] (ids >= it).
    An id is published under the lock, after its bits."""

    def __init__(self, jmask: int):
        self.jmask, self.lock = jmask, threading.Lock()
        self.ids, self.words, self.elems, self.lens = {}, [], [], []
        self.covers, self.down, self.up = [], [], []

    def id(self, sys, v) -> int:
        """The id of v (canonical, in W^J), numbering its cone first."""
        got = self.ids.get(v)
        if got is None:
            with self.lock:
                if v not in self.ids:
                    self._number(sys, v)
            got = self.ids[v]
        return got

    def between(self, u, v):
        """[u, v]^J, for numbered u and v."""
        return map(self.words.__getitem__, _bits(self.up[self.ids[u]] & self.down[self.ids[v]]))

    def act(self, sys, i, s):
        """s·z for z = words[i], read from the row of z's record: a lower
        cover's id, a higher word in W^J, or None outside W^J."""
        k, e = sys.kernel, self.elems[i]
        j = k.act(s, e)
        if k.masks[e] >> s & 1:
            return self.ids[k.words[j]]
        return None if self.jmask and k.right(j) & self.jmask else k.words[j]

    def _number(self, sys, v):
        # W^J is graded (Bjorner-Brenti 2.5.5): z covers its lower covers in W^J
        k, ids, jmask = sys.kernel, self.ids, self.jmask
        words, top = k.words, sys._id(v)
        below, todo = {top: None}, [top]
        while todo:
            z = todo.pop()
            below[z] = [c for c in _lower_covers(k, z) if not (jmask and k.right(c) & jmask)]
            for c in below[z]:
                if c not in below and words[c] not in ids:
                    below[c] = None
                    todo.append(c)
        for e in sorted(below, key=lambda c: len(words[c])):
            i, z = len(self.words), words[e]
            covers = tuple(ids[words[c]] for c in below[e])
            down = 1 << i
            for c in covers:
                down |= self.down[c]
            self.up.append(0)
            for j in _bits(down):
                self.up[j] |= 1 << i
            self.words.append(z)
            self.elems.append(e)
            self.lens.append(len(z))
            self.covers.append(covers)
            self.down.append(down)
            ids[z] = i


def _order(sys: CoxeterSystem, J: frozenset) -> _Order:
    """The system's numbered order on W^J, made on first use."""
    orders = sys.caches.get("order") or sys.caches.setdefault("order", {})
    return orders.get(J) or orders.setdefault(J, _Order(bitmask(J)))


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
        self.identity = tuple(range(len(ranks)))
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
        self.marked = marked
        self.invariants = tuple(
            t + (marked is None or i in marked,) for i, t in enumerate(shape.element_shape)
        )
        self.fingerprint = tuple(sorted(self.invariants))
        self.witnesses = weakref.WeakKeyDictionary()  # other _Marking -> mapping


# (ranks, covers) -> _Shape, for as long as some interval refers to it
_SHAPES = weakref.WeakValueDictionary()


class IntervalPoset:
    """A Bruhat interval under the induced order.

    ground is sorted by (length, word); ranks are lengths relative to the
    bottom; covers are sorted index pairs (lower, upper); marked is the
    index set of the parabolic subset when one was requested, else None
    (held by the marking record).
    """

    __slots__ = ("system", "bottom", "top", "J", "ground", "ranks", "covers", "_shape", "_marking")

    def __init__(self, system, bottom, top, J, ground, covers, marked):
        ground = tuple(ground)
        key = (tuple(len(z) - len(bottom) for z in ground), tuple(sorted(covers)))
        shape = _SHAPES.get(key)
        if shape is None:
            shape = _SHAPES[key] = _Shape(*key)
        self._fill(system, bottom, top, J, ground, shape, marked)

    def _fill(self, system, bottom, top, J, ground, shape, marked):
        self.system, self.bottom, self.top, self.J, self.ground = system, bottom, top, J, ground
        self._shape, self.ranks, self.covers = shape, shape.ranks, shape.covers
        self._marking = shape.marking(None if marked is None else frozenset(marked))
        return self

    @property
    def marked(self):
        return self._marking.marked

    def with_marking(self, J, marked=None) -> IntervalPoset:
        """A copy with [u, v]^J marked, for a frozenset J (marked: its
        index set, if known)."""
        if marked is None:
            jmask, descents = bitmask(J), self.system.descent_mask
            marked = (i for i, z in enumerate(self.ground) if not descents(z) & jmask)
        copy = object.__new__(IntervalPoset)
        return copy._fill(self.system, self.bottom, self.top, J, self.ground, self._shape, marked)

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

    def element_invariants(self) -> tuple:
        """Per element: (rank, down degree, up degree, ideal size, filter
        size, marked flag).  Preserved by any marked poset isomorphism."""
        return self._marking.invariants

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


class IsoWitness(NamedTuple):
    """A claimed isomorphism between two interval posets: mapping[i] is the
    target index of source element i.  verify() checks it from scratch: a
    rank-preserving bijection that carries the set of covers onto the set
    of covers (an order is the reflexive-transitive closure of its covers)
    and, when required, the marked set onto the marked set.
    """

    source: IntervalPoset
    target: IntervalPoset
    mapping: tuple
    respects_marking: bool

    def verify(self) -> bool:
        src, tgt, mapping = self.source, self.target, self.mapping
        k = src.size
        if tgt.size != k or sorted(mapping) != list(range(k)):
            return False
        if any(src.ranks[i] != tgt.ranks[j] for i, j in enumerate(mapping)):
            return False
        if {(mapping[i], mapping[j]) for i, j in src.covers} != set(tgt.covers):
            return False
        if self.respects_marking:
            image = {mapping[i] for i in range(k) if src.is_marked(i)}
            return image == {j for j in range(k) if tgt.is_marked(j)}
        return True


def _lower_covers(k, i) -> tuple:
    """The ids of the lower covers of the element of id i in the kernel k,
    kept on its record: t·w for t = w[0], its least left descent, and t·y
    for each lower cover y of t·w with t·y > y (the lifting property)."""
    covers, todo, z = k.covers, [], i
    while covers[z] is None:
        todo.append(z)
        z = k.act(k.words[z][0], z)
    for z in reversed(todo):
        t = k.words[z][0]
        tail = k.act(t, z)
        covers[z] = (tail, *[k.act(t, y) for y in covers[tail] if not k.masks[y] >> t & 1])
    return covers[i]


class _Shell:
    """The z <= v with l(v) - l(z) <= depth, found down lower covers (the
    subword property), that contain the generator keep unless it is None
    (every z above a bottom with keep has it): words in (length, word)
    order, elems (their records' ids), pos (the index of each id), above
    (the indexes of each one's upper covers) and up (bitmasks of the
    indexes above), so [u, v] is up[u].  caches["shells"] counts the
    system's shells, their elements and the largest."""

    __slots__ = ("top", "depth", "keep", "words", "elems", "pos", "above", "up")

    def __init__(self, sys, v, depth, keep=None):
        k = sys.kernel
        levels, below = [[sys._id(v)]], {}
        for _ in range(min(depth, len(v))):
            level = set()
            for z in levels[-1]:
                got = _lower_covers(k, z)
                if keep is not None:
                    got = [y for y in got if keep in k.words[y]]
                below[z] = got
                level.update(got)
            levels.append(sorted(level, key=k.words.__getitem__))
        self.top, self.depth, self.keep = v, depth, keep
        self.elems = elems = [z for level in reversed(levels) for z in level]
        self.words = list(map(k.words.__getitem__, elems))
        self.pos = pos = {z: i for i, z in enumerate(elems)}
        self.above = above = [[] for _ in elems]
        self.up = up = [1 << i for i in range(len(elems))]
        for i in reversed(range(len(elems))):
            for y in below.get(elems[i], ()):
                c = pos[y]
                up[c] |= up[i]
                above[c].append(i)
        n, stats = len(elems), sys.caches.setdefault("shells", [0, 0, 0])
        stats[:] = stats[0] + 1, stats[1] + n, max(stats[2], n)

    def ids(self, i):
        """The indexes of [words[i], v], ascending."""
        return list(_bits(self.up[i]))

    def marked(self, sys, ids, jmask) -> frozenset:
        """The positions in ids of the words in W^J, J a bit mask."""
        right, elems = sys.kernel.right, self.elems
        return frozenset(k for k, j in enumerate(ids) if not right(elems[j]) & jmask)

    def interval(self, sys, u, J=None, ids=None):
        """[u, v], marked with J unless J is None (ids: those of u), or
        None if u is not here."""
        if ids is None:
            i = self.pos.get(sys.canonical_memo.get(u))
            if i is None:
                return None
            ids = self.ids(i)
        at = {j: k for k, j in enumerate(ids)}
        covers = [(k, at[j]) for k, p in enumerate(ids) for j in self.above[p]]
        ground = map(self.words.__getitem__, ids)
        marked = None if J is None else self.marked(sys, ids, bitmask(J))
        return IntervalPoset(sys, u, self.top, J, ground, covers, marked)


def _build_interval(sys, u, v, J, depth=0, keep=None):
    """[u, v], marked with J unless J is None, after checking that u and
    v are canonical words in W^J: from the system's latest shell if it
    has top v and keep and reaches u, else from a new one at least depth
    deep, which takes its place."""
    jmask = bitmask(J or ())
    u, v = sys._check_rep(u, jmask, "u"), sys._check_rep(v, jmask, "v")
    shell = sys.caches.get("shell")
    if shell is None or shell.top != v or shell.keep != keep or shell.depth < len(v) - len(u):
        shell = sys.caches["shell"] = _Shell(sys, v, max(depth, len(v) - len(u)), keep)
    ivl = shell.interval(sys, u, J)
    if ivl is None:
        raise PreconditionError("u is not <= v in Bruhat order")
    return ivl


def _cutoff(sys, v):
    """v, after checking that it is a canonical word of at most
    INTERVAL_CUTOFF letters."""
    v = sys._check_rep(v, 0, "v")
    if len(v) > INTERVAL_CUTOFF:
        raise PreconditionError(f"top element has length {len(v)} > cutoff {INTERVAL_CUTOFF}")
    return v


def interval(sys: CoxeterSystem, u, v) -> IntervalPoset:
    """The full Bruhat interval [u, v], for l(v) <= INTERVAL_CUTOFF."""
    return _build_interval(sys, u, _cutoff(sys, v), None)


def parabolic_interval(sys: CoxeterSystem, u, v, J) -> IntervalPoset:
    """The interval [u, v] with the quotient subset [u, v]^J marked, for
    l(v) <= INTERVAL_CUTOFF.

    Endpoints must be minimal coset representatives for J.
    """
    return _build_interval(sys, u, _cutoff(sys, v), sys.check_subset(J))
