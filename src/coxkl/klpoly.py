"""Parabolic R-polynomials and Kazhdan-Lusztig polynomials of both types.

Two independent computation paths are kept side by side, as methods of
the per-system `KLTable` (`get_table`):

* `parabolic_kl_duality` is the normative definition: it solves the
  bar-duality identity by descending induction.  Each right-hand side is
  summed straight from the memoized P^dual tuples, a coefficient p[k] of
  P_{w,v} at degree l(v) - l(w) - k; its low-degree half is the
  polynomial, and the rest is checked in place to be that half's negated
  mirror.
* `parabolic_kl` is the fast path: the descent recursion with a
  mu-coefficient correction sum.

The suites require the two paths to agree everywhere; neither consults
the other's memo.  The type parameter x takes the values "q" and "-1".

For J = {} both degenerate to the ordinary R- and KL polynomials.

R and P always lie in Z[q], so the layer computes and stores them as
coefficient tuples with offset 0: p[i] is the coefficient of q^i, and
the tuple has no trailing zero (the zero polynomial is ()).  The `_`
helpers below are the library's one polynomial arithmetic (the tests
check them against the reference `Laurent` in `tests/oracles.py`);
`LaurentPoly`, a value with no arithmetic, is the public type, made at
the entry points.  The recursions run on ids in the order index
`bruhat._order(sys, J)`, which give lengths, the cover sv, the left
action s·z (memoized per id and s) and [u, v]^J.  Memo entries are keyed
by (iu, iv, J, x).  A recursion reads each sub-entry inline: 1 at u = v,
else 0 unless the down bit of u in v is set, else `memo.get(key)`; only
a miss enters a step (`_r`, `_kl`, `_kl_dual`), which computes the
entry and stores it.  An entry point checks its arguments and reads the
ids of u and v once per call (`_check_pair`), reads the entry the same
way (`_entry`), and returns the memo's tuple as a `LaurentPoly` without
a copy; the scan reads all the tuples of a case in one call (`_entries`)
and keeps them with the case.
"""

from __future__ import annotations

import weakref

from .bruhat import _bits, _order, bruhat_leq  # noqa: F401 (perfbench reads klpoly.bruhat_leq)
from .core import CoxeterSystem, InputError, InvariantError, PreconditionError
from .laurent import LaurentPoly

KL_TYPES = ("q", "-1")

_ONE = (1,)
#: multiplier (q - 1 - x) in the third branch of the R recursion, as (c, k)
#: for c * q^k
_R3 = {"q": (-1, 0), "-1": (1, 1)}


def check_kl_type(x: str) -> str:
    if x not in KL_TYPES:
        raise InputError(f"polynomial type must be 'q' or '-1', not {x!r}")
    return x


# -- Z[q] coefficient tuples ---------------------------------------------------


def _trim(out: list) -> tuple:
    """The tuple of a coefficient list, trailing zeros dropped."""
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _addto(out: list, p: tuple, c: int = 1, k: int = 0) -> list:
    """out += c * q^k * p in place (k >= 0); returns out."""
    need = len(p) + k
    if len(out) < need:
        out.extend([0] * (need - len(out)))
    for i, a in enumerate(p, k):
        out[i] += c * a
    return out


def _addmul(out: list, a: tuple, b: tuple, c: int = 1) -> list:
    """out += c * a * b in place; returns out.  Fastest with the sparser
    factor as a, whose zero coefficients cost nothing."""
    for k, y in enumerate(a):
        if y:
            _addto(out, b, c * y, k)
    return out


def _mirror(p: tuple, d: int) -> tuple:
    """q^d * p(1/q), which lies in Z[q] when deg p <= d."""
    if len(p) > d + 1:
        raise InvariantError("mirrored polynomial left Z[q]")
    return _trim([0] * (d + 1 - len(p)) + list(reversed(p)))


class KLTable:
    """Per-system memo table for R- and KL polynomials.

    Entries are immutable once inserted, keyed by (iu, iv, J, x) per kind,
    with the ids of u and v in `bruhat._order(sys, J)`, and hold
    coefficient tuples; recomputation is deterministic, so concurrent
    duplicate inserts under the GIL are benign.  Every entry is computed
    by one of the two paths, and the table holds nothing else.

    The table refers to its system weakly: the system's `caches` hold the
    table, so a strong reference back would be a cycle that only the
    garbage collector frees.  An entry point dereferences it once per call
    and passes the system down the recursion, with the order index.
    """

    def __init__(self, sys: CoxeterSystem):
        self._sys = weakref.ref(sys)
        self.tables: dict[str, dict] = {"R": {}, "P": {}, "Pdual": {}}

    # -- public, validated entry points -----------------------------------

    def _check_pair(self, u, v, J, x):
        """The arguments (sys, order, iu, iv, J) of a recursion step, after
        checking J, x, u and v, numbering v's cone on a miss; None when u
        is not numbered, so not <= v.  A word that is the index's own word
        object for its id is a canonical word in W^J, so one lookup checks
        it and gives its id; any other word takes `_check_rep`."""
        sys = self._sys()
        if sys is None:
            raise PreconditionError("the table's Coxeter system no longer exists")
        J = sys.check_subset(J)
        if x != "q" and x != "-1":
            check_kl_type(x)
        order = _order(sys, J)
        ids, words = order.ids, order.words
        try:
            iu, iv = ids.get(u), ids.get(v)
        except TypeError:  # unhashable: `_check_rep` says why
            iu = iv = None
        if iu is None or words[iu] is not u:
            u, iu = sys._check_rep(u, order.jmask, "u"), None
        if iv is None or words[iv] is not v:
            iv = order.id(sys, sys._check_rep(v, order.jmask, "v"))
        if iu is None:  # numbered with v's cone, if u <= v
            iu = ids.get(u)
        return None if iu is None else (sys, order, iu, iv, J)

    def parabolic_r(self, u, v, J, x: str) -> LaurentPoly:
        ids = self._check_pair(u, v, J, x)
        return LaurentPoly(self._entry("R", *ids, x) if ids else ())

    def parabolic_kl(self, u, v, J, x: str) -> LaurentPoly:
        ids = self._check_pair(u, v, J, x)
        return LaurentPoly(self._entry("P", *ids, x) if ids else ())

    def parabolic_kl_duality(self, u, v, J, x: str) -> LaurentPoly:
        ids = self._check_pair(u, v, J, x)
        return LaurentPoly(self._entry("Pdual", *ids, x) if ids else ())

    def mu(self, w, v, J, x: str) -> int:
        """Coefficient of q^((l(v)-l(w)-1)/2) in P^{J,x}_{w,v}."""
        ids = self._check_pair(w, v, J, x)
        if ids is None:
            return 0
        _, order, iw, iv, _ = ids
        gap = order.lens[iv] - order.lens[iw]
        p = self._entry("P", *ids, x) if gap % 2 else ()
        k = (gap - 1) // 2
        return p[k] if 0 <= k < len(p) else 0

    # -- memo reads ----------------------------------------------------------

    def _entry(self, kind, sys, order, iu, iv, J, x) -> tuple:
        """The memo entry of kind ("R", "P" or "Pdual") for ids iu, iv in
        the index order = `bruhat._order(sys, J)`: 1 at u = v, else the
        memo's tuple, else 0 unless u <= v, else computed by a step.  An
        entry point's query is most often a hit, so the memo is read
        before the down bit; the recursions read their sub-entries inline,
        the down bit first, and enter a step only on a miss.  sys and
        order are fixed for a whole recursion, so they are passed down
        rather than looked up on each step."""
        if iu == iv:
            return _ONE
        got = self.tables[kind].get((iu, iv, J, x))
        if got is None:
            if not order.down[iv] >> iu & 1:
                return ()
            got = self._STEPS[kind](self, sys, order, iu, iv, J, x)
        return got

    def _entries(self, kinds, types, sys, order, iu, iv, J) -> tuple:
        """The memo entries of each kind in kinds, for each type in types
        within a kind, by `_entry`'s rule, in one pass: a scan case reads
        all of its polynomials at once."""
        if iu == iv:
            return (_ONE,) * (len(kinds) * len(types))
        out = []
        for kind in kinds:
            memo, step = self.tables[kind], self._STEPS[kind]
            for x in types:
                got = memo.get((iu, iv, J, x))
                if got is None:
                    got = step(self, sys, order, iu, iv, J, x) if order.down[iv] >> iu & 1 else ()
                out.append(got)
        return tuple(out)

    # -- R recursion ------------------------------------------------------

    def _r(self, sys, order, iu, iv, J, x) -> tuple:
        """R_{u,v} for u < v with no memo entry, stored in the memo."""
        memo, down = self.tables["R"], order.down
        isv = order.covers[iv][0]
        su = order.act(sys, iu, order.words[iv][0])
        if su.__class__ is int:  # su < u: R_{su,sv}
            res = _ONE if su == isv else memo.get((su, isv, J, x)) if down[isv] >> su & 1 else ()
            if res is None:
                res = self._r(sys, order, su, isv, J, x)
        else:
            a = _ONE if iu == isv else memo.get((iu, isv, J, x)) if down[isv] >> iu & 1 else ()
            if a is None:
                a = self._r(sys, order, iu, isv, J, x)
            if su is None:  # su leaves W^J
                res = _trim(_addto([], a, *_R3[x]))
            else:
                # (q - 1) R_{u,sv} + q R_{su,sv}; su is numbered if su <= sv
                out = _addto(_addto([], a, 1, 1), a, -1)
                isu = order.ids.get(su)
                if isu is not None:
                    b = (_ONE if isu == isv else memo.get((isu, isv, J, x))
                         if down[isv] >> isu & 1 else ())
                    if b is None:
                        b = self._r(sys, order, isu, isv, J, x)
                    _addto(out, b, 1, 1)
                res = _trim(out)
        memo[iu, iv, J, x] = res
        return res

    # -- fast path: descent recursion with mu corrections --------------------

    def _kl(self, sys, order, iu, iv, J, x) -> tuple:
        """P_{u,v} for u < v with no memo entry, stored in the memo."""
        memo, down, lens = self.tables["P"], order.down, order.lens
        s, isv = order.words[iv][0], order.covers[iv][0]
        su = order.act(sys, iu, s)
        if su is None and x != "q":
            out = []  # su leaves W^J: 0 for x = -1
        else:
            a = _ONE if iu == isv else memo.get((iu, isv, J, x)) if down[isv] >> iu & 1 else ()
            if a is None:
                a = self._kl(sys, order, iu, isv, J, x)
            if su is None:  # (q + 1) P_{u,sv}
                out = _addto(list(a), a, 1, 1)
            elif su.__class__ is int:  # P_{su,sv} + q P_{u,sv}
                b = _ONE if su == isv else memo.get((su, isv, J, x)) if down[isv] >> su & 1 else ()
                if b is None:
                    b = self._kl(sys, order, su, isv, J, x)
                out = _addto(list(b), a, 1, 1)
            else:  # P_{u,sv} + q P_{su,sv}, where su is numbered if su <= sv
                out = list(a)
                isu = order.ids.get(su)
                if isu is not None:
                    b = (_ONE if isu == isv else memo.get((isu, isv, J, x))
                         if down[isv] >> isu & 1 else ())
                    if b is None:
                        b = self._kl(sys, order, isu, isv, J, x)
                    _addto(out, b, 1, 1)
        lsv = lens[isv]
        for w in _bits(order.up[iu] & down[isv]):
            # mu(w, sv) is 0 unless l(sv) - l(w) is odd (w == sv included)
            if not (lsv - lens[w]) % 2:
                continue
            # w counts when sw < w, or for x = q when sw leaves W^J
            sw = order.act(sys, w, s)
            if not (sw.__class__ is int or sw is None and x == "q"):
                continue
            p = memo.get((w, isv, J, x))  # u <= w < sv
            if p is None:
                p = self._kl(sys, order, w, isv, J, x)
            k = (lsv - lens[w] - 1) // 2
            if k < len(p) and p[k]:
                gap = lens[iv] - lens[w]
                if gap % 2:
                    raise InvariantError("mu correction at odd length gap")
                c = _ONE if iu == w else memo.get((iu, w, J, x))
                if c is None:
                    c = self._kl(sys, order, iu, w, J, x)
                _addto(out, c, -p[k], gap // 2)
        res = _trim(out)
        if res and 2 * (len(res) - 1) > lens[iv] - lens[iu] - 1:
            raise InvariantError("degree bound violated")
        memo[iu, iv, J, x] = res
        return res

    # -- normative path: bar-duality solver ------------------------------------

    def _kl_dual(self, sys, order, iu, iv, J, x) -> tuple:
        """P_{u,v} for u < v with no memo entry, by duality, stored in the
        memo."""
        memo, lens, rs = self.tables["Pdual"], order.lens, self.tables["R"]
        lu, lv = lens[iu], lens[iv]
        gap = lv - lu
        # sum over w in (u, v]^J of (-1)^(l(w)-l(u)) R_{u,w} q^(l(v)-l(w)) bar(P_{w,v}),
        # read from p = P_{w,v} itself: a = p[k] adds a R_{u,w} q^(d-k), d = l(v) - l(w).
        # It has degree <= gap when deg p <= d and deg R_{u,w} <= l(w) - l(u),
        # which are checked here.
        rhs = [0] * (gap + 1)
        for w in _bits((order.up[iu] & order.down[iv]) ^ 1 << iu):
            p = _ONE if w == iv else memo.get((w, iv, J, x))
            if p is None:
                p = self._kl_dual(sys, order, w, iv, J, x)
            lw, d = lens[w] - lu, lv - lens[w]
            if len(p) > d + 1:
                raise InvariantError("mirrored polynomial left Z[q]")
            r = rs.get((iu, w, J, x))  # u < w <= v
            if r is None:
                r = self._r(sys, order, iu, w, J, x)
            if len(r) > lw + 1:
                raise InvariantError("R polynomial above its degree bound")
            sign = -1 if lw % 2 else 1
            for a in p:
                if a:
                    a *= sign
                    for i, b in enumerate(r, d):
                        rhs[i] += a * b
                d -= 1
        # P is the part of degree <= (gap - 1) / 2, and the rest must be
        # its negated mirror: rhs = P - q^gap bar(P)
        h = (gap - 1) // 2
        res = _trim(rhs[: h + 1])
        n = len(res)
        for i in range(h + 1, gap + 1):
            if rhs[i] != (-res[gap - i] if gap - i < n else 0):
                raise InvariantError("duality right-hand side is not self-mirrored")
        memo[iu, iv, J, x] = res
        return res

    _STEPS = {"R": _r, "P": _kl, "Pdual": _kl_dual}


def get_table(sys: CoxeterSystem) -> KLTable:
    """The system's shared polynomial table."""
    table = sys.caches.get("kltable")
    if table is None:
        table = KLTable(sys)
        sys.caches["kltable"] = table
    return table


def memo_sizes(*systems: CoxeterSystem) -> dict:
    """Element records, canonical-word keys, order-index elements and
    polynomial memo entries, summed over the systems (all 0 for none)."""
    kinds = ("elements", "canonical", "order", "R", "P", "Pdual")
    sizes = dict.fromkeys(kinds, 0)
    for sys in systems:
        table = sys.caches.get("kltable")  # reading the sizes makes no table
        counts = (
            len(sys.kernel.words), len(sys.canonical_memo),
            sum(len(o.words) for o in sys.caches.get("order", {}).values()),
            *(len(table.tables[kind]) if table else 0 for kind in kinds[3:]),
        )
        for kind, count in zip(kinds, counts):
            sizes[kind] += count
    return sizes


def bar_squared_check(sys, u, v, J, x: str) -> bool:
    """Exact identity certifying the R recursion independently:

    sum over w in [u,v]^J of (-1)^(l(v)-l(u)) q^(l(v)-l(w))
    R_{w,v}(1/q) R_{u,w}(q) equals 1 if u = v else 0; in Z[q], so an
    R_{w,v} of degree above l(v) - l(w) raises InvariantError.
    """
    table = get_table(sys)
    ids = table._check_pair(u, v, J, x)
    if ids is None:
        return True
    _, order, iu, iv, J = ids
    lens, total = order.lens, []
    for w in _bits(order.up[iu] & order.down[iv]):
        mirrored = _mirror(table._entry("R", sys, order, w, iv, J, x), lens[iv] - lens[w])
        _addmul(total, mirrored, table._entry("R", sys, order, iu, w, J, x))
    # the sign (-1)^(l(v)-l(u)) cannot turn 0 into 1, and is 1 at u = v
    return _trim(total) == (_ONE if iu == iv else ())
