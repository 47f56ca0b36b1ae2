"""Parabolic R-polynomials and Kazhdan-Lusztig polynomials of both types.

Two independent computation paths are kept side by side:

* `parabolic_kl_duality` is the normative definition: it solves the
  bar-duality identity by descending induction, splitting each right-hand
  side into a low-degree half (the polynomial) and its mirrored image,
  and checks that the split is consistent.
* `parabolic_kl` is the fast path: the descent recursion with a
  mu-coefficient correction sum.

The suites require the two paths to agree everywhere; neither consults
the other's memo.  The type parameter x takes the values "q" and "-1".

For J = {} both degenerate to the ordinary R- and KL polynomials.

R and P always lie in Z[q], so the layer computes and stores them as
coefficient tuples with offset 0: p[i] is the coefficient of q^i, and
the tuple has no trailing zero (the zero polynomial is ()).  The `_`
helpers below do that arithmetic; `LaurentPoly` is the public type, made
at the entry points.  The recursions run on ids in the order index
`bruhat._order(sys, J)`, which give lengths, the cover sv, the left
action s·z and [u, v]^J; the entry points translate checked words once
per call (the scan's cases were checked when they were built).
"""

from __future__ import annotations

import weakref

from .bruhat import _bits, _order, bruhat_leq  # noqa: F401 (perfbench reads klpoly.bruhat_leq)
from .core import CoxeterSystem, InputError, InvariantError, PreconditionError
from .laurent import ONE, ZERO, LaurentPoly

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


def _truncate(p: tuple, k: int) -> tuple:
    """The terms of p of degree <= k (k >= 0)."""
    return _trim(list(p[: k + 1]))


class KLTable:
    """Per-system memo table for R- and KL polynomials.

    Entries are immutable once inserted, keyed by (iu, iv, J, x) per kind,
    with the ids of u and v in `bruhat._order(sys, J)`, and hold
    coefficient tuples; recomputation is deterministic, so concurrent
    duplicate inserts under the GIL are benign.  Every entry is computed
    by one of the two paths; `mirrors` holds the duality solver's mirrored
    Pdual entries.

    The table refers to its system weakly: the system's `caches` hold the
    table, so a strong reference back would be a cycle that only the
    garbage collector frees.  The recursions dereference it once per call.
    """

    def __init__(self, sys: CoxeterSystem):
        self._sys = weakref.ref(sys)
        self.tables: dict[str, dict] = {"R": {}, "P": {}, "Pdual": {}}
        self.mirrors: dict = {}

    @property
    def sys(self) -> CoxeterSystem:
        sys = self._sys()
        if sys is None:
            raise PreconditionError("the table's Coxeter system no longer exists")
        return sys

    # -- public, validated entry points -----------------------------------

    def _check_pair(self, u, v, J, x):
        sys = self.sys
        J = sys.check_subset(J)
        check_kl_type(x)
        jmask = _order(sys, J).jmask
        return self._ids(sys._check_rep(u, jmask, "u"), sys._check_rep(v, jmask, "v"), J)

    def _ids(self, u, v, J):
        """(iu, iv, J) for canonical words in W^J, numbering v's cone first;
        None when u is not numbered, so not <= v."""
        sys = self.sys
        order = _order(sys, J)
        iv = order.id(sys, v)
        iu = order.ids.get(u)
        return None if iu is None else (iu, iv, J)

    def parabolic_r(self, u, v, J, x: str) -> LaurentPoly:
        ids = self._check_pair(u, v, J, x)
        return LaurentPoly(self._r(*ids, x) if ids else ())

    def parabolic_kl(self, u, v, J, x: str) -> LaurentPoly:
        ids = self._check_pair(u, v, J, x)
        return LaurentPoly(self._kl(*ids, x) if ids else ())

    def parabolic_kl_duality(self, u, v, J, x: str) -> LaurentPoly:
        ids = self._check_pair(u, v, J, x)
        return LaurentPoly(self._kl_dual(*ids, x) if ids else ())

    def mu(self, w, v, J, x: str) -> int:
        """Coefficient of q^((l(v)-l(w)-1)/2) in P^{J,x}_{w,v}."""
        ids = self._check_pair(w, v, J, x)
        if ids is None:
            return 0
        lens = _order(self.sys, ids[2]).lens
        gap = lens[ids[1]] - lens[ids[0]]
        p = self._kl(*ids, x) if gap % 2 else ()
        k = (gap - 1) // 2
        return p[k] if 0 <= k < len(p) else 0

    # -- R recursion ------------------------------------------------------

    def _r(self, iu, iv, J, x) -> tuple:
        if iu == iv:
            return _ONE
        key = (iu, iv, J, x)
        got = self.tables["R"].get(key)
        if got is not None:
            return got
        sys = self._sys()
        order = _order(sys, J)
        if not order.down[iv] >> iu & 1:
            return ()
        isv = order.covers[iv][0]
        su = order.row(sys, iu)[order.words[iv][0]]
        if su is None:  # su leaves W^J
            res = _trim(_addto([], self._r(iu, isv, J, x), *_R3[x]))
        elif su.__class__ is int:  # su < u
            res = self._r(su, isv, J, x)
        else:
            # (q - 1) R_{u,sv} + q R_{su,sv}; su is numbered if su <= sv
            a = self._r(iu, isv, J, x)
            out = _addto(_addto([], a, 1, 1), a, -1)
            isu = order.ids.get(su)
            if isu is not None:
                _addto(out, self._r(isu, isv, J, x), 1, 1)
            res = _trim(out)
        self.tables["R"][key] = res
        return res

    # -- fast path: descent recursion with mu corrections --------------------

    def _kl(self, iu, iv, J, x) -> tuple:
        if iu == iv:
            return _ONE
        key = (iu, iv, J, x)
        got = self.tables["P"].get(key)
        if got is not None:
            return got
        sys = self._sys()
        order = _order(sys, J)
        if not order.down[iv] >> iu & 1:
            return ()
        lens = order.lens
        s, isv = order.words[iv][0], order.covers[iv][0]
        su = order.row(sys, iu)[s]
        if su is None:
            # (q + 1) P_{u,sv} for x = q, else 0
            a = self._kl(iu, isv, J, x) if x == "q" else ()
            out = _addto(list(a), a, 1, 1)
        elif su.__class__ is int:
            out = list(self._kl(su, isv, J, x))
            _addto(out, self._kl(iu, isv, J, x), 1, 1)
        else:
            isu = order.ids.get(su)
            out = [] if isu is None else _addto([], self._kl(isu, isv, J, x), 1, 1)
            _addto(out, self._kl(iu, isv, J, x))
        lsv = lens[isv]
        for w in _bits(order.up[iu] & order.down[isv]):
            # mu(w, sv) is 0 unless l(sv) - l(w) is odd (w == sv included)
            if not (lsv - lens[w]) % 2:
                continue
            # w counts when sw < w, or for x = q when sw leaves W^J
            sw = order.row(sys, w)[s]
            if not (sw.__class__ is int or sw is None and x == "q"):
                continue
            p = self._kl(w, isv, J, x)
            k = (lsv - lens[w] - 1) // 2
            if k < len(p) and p[k]:
                gap = lens[iv] - lens[w]
                if gap % 2:
                    raise InvariantError("mu correction at odd length gap")
                _addto(out, self._kl(iu, w, J, x), -p[k], gap // 2)
        res = _trim(out)
        if res and 2 * (len(res) - 1) > lens[iv] - lens[iu] - 1:
            raise InvariantError("degree bound violated")
        self.tables["P"][key] = res
        return res

    # -- normative path: bar-duality solver ------------------------------------

    def _kl_dual(self, iu, iv, J, x) -> tuple:
        if iu == iv:
            return _ONE
        key = (iu, iv, J, x)
        got = self.tables["Pdual"].get(key)
        if got is not None:
            return got
        sys = self._sys()
        order = _order(sys, J)
        if not order.down[iv] >> iu & 1:
            return ()
        lens, mirrors = order.lens, self.mirrors
        lu, lv = lens[iu], lens[iv]
        # sum over w in (u, v]^J of (-1)^(l(w)-l(u)) R_{u,w} q^(l(v)-l(w)) bar(P_{w,v})
        rhs = []
        for w in _bits((order.up[iu] & order.down[iv]) ^ 1 << iu):
            wkey = (w, iv, J, x)
            mirrored = mirrors.get(wkey)
            if mirrored is None:
                mirrored = mirrors[wkey] = _mirror(self._kl_dual(w, iv, J, x), lv - lens[w])
            _addmul(rhs, mirrored, self._r(iu, w, J, x), -1 if (lens[w] - lu) % 2 else 1)
        rhs = _trim(rhs)
        gap = lv - lu
        res = _truncate(rhs, (gap - 1) // 2)
        if rhs != _trim(_addto(list(res), _mirror(res, gap), -1)):
            raise InvariantError("duality right-hand side is not self-mirrored")
        self.tables["Pdual"][key] = res
        return res


def get_table(sys: CoxeterSystem) -> KLTable:
    """The system's shared polynomial table."""
    table = sys.caches.get("kltable")
    if table is None:
        table = KLTable(sys)
        sys.caches["kltable"] = table
    return table


def memo_sizes(sys: CoxeterSystem) -> dict:
    """Entries in the system's order indexes and polynomial memos."""
    sizes = {kind: len(entries) for kind, entries in get_table(sys).tables.items()}
    sizes["order"] = sum(len(o.words) for o in sys.caches.get("order", {}).values())
    return sizes


def parabolic_r(sys, u, v, J, x: str) -> LaurentPoly:
    return get_table(sys).parabolic_r(u, v, J, x)


def parabolic_kl(sys, u, v, J, x: str) -> LaurentPoly:
    return get_table(sys).parabolic_kl(u, v, J, x)


def parabolic_kl_duality(sys, u, v, J, x: str) -> LaurentPoly:
    return get_table(sys).parabolic_kl_duality(u, v, J, x)


def mu(sys, w, v, J, x: str) -> int:
    return get_table(sys).mu(w, v, J, x)


def bar_squared_check(sys, u, v, J, x: str) -> bool:
    """Exact identity certifying the R recursion independently:

    sum over w in [u,v]^J of (-1)^(l(v)-l(u)) q^(l(v)-l(w))
    R_{w,v}(1/q) R_{u,w}(q) equals 1 if u = v else 0.
    """
    table = get_table(sys)
    ids = table._check_pair(u, v, J, x)
    if ids is None:
        return True
    iu, iv, J = ids
    order = _order(sys, J)
    lens = order.lens
    total = ZERO
    for w in _bits(order.up[iu] & order.down[iv]):
        term = LaurentPoly(table._r(w, iv, J, x)).bar() * LaurentPoly(table._r(iu, w, J, x))
        total = total + term.shift(lens[iv] - lens[w])
    total = (-1 if (lens[iv] - lens[iu]) % 2 else 1) * total
    return total == (ONE if iu == iv else ZERO)
