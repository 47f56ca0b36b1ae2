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
at the entry points.  The recursions run on canonical words that have
passed `_check_pair` (or, in the scan, the checks made when its cases
were built), through the system's unvalidated lookups.  Both paths read
the order from `bruhat._order`, and their sums visit only [u, v]^J.
"""

from __future__ import annotations

import weakref

from .bruhat import _order, bruhat_leq  # noqa: F401 (perfbench reads klpoly.bruhat_leq)
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

    Entries are immutable once inserted, keyed by (u, v, J, x) per kind,
    and hold coefficient tuples; recomputation is deterministic, so
    concurrent duplicate inserts under the GIL are benign.  Every entry
    is computed by one of the two paths.

    The table refers to its system weakly: the system's `caches` hold the
    table, so a strong reference back would be a cycle that only the
    garbage collector frees.  The recursions dereference it once per call.
    """

    def __init__(self, sys: CoxeterSystem):
        self._sys = weakref.ref(sys)
        self.tables: dict[str, dict] = {"R": {}, "P": {}, "Pdual": {}}

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
        jmask = sum(1 << s for s in J)
        return sys._check_rep(u, jmask, "u"), sys._check_rep(v, jmask, "v"), J

    def parabolic_r(self, u, v, J, x: str) -> LaurentPoly:
        u, v, J = self._check_pair(u, v, J, x)
        return LaurentPoly(self._r(u, v, J, x))

    def parabolic_kl(self, u, v, J, x: str) -> LaurentPoly:
        u, v, J = self._check_pair(u, v, J, x)
        return LaurentPoly(self._kl(u, v, J, x))

    def parabolic_kl_duality(self, u, v, J, x: str) -> LaurentPoly:
        u, v, J = self._check_pair(u, v, J, x)
        return LaurentPoly(self._kl_dual(u, v, J, x))

    def mu(self, w, v, J, x: str) -> int:
        """Coefficient of q^((l(v)-l(w)-1)/2) in P^{J,x}_{w,v}."""
        w, v, J = self._check_pair(w, v, J, x)
        return self._mu(w, v, J, x)

    # -- R recursion ------------------------------------------------------

    def _r(self, u, v, J, x) -> tuple:
        if u == v:
            return _ONE
        key = (u, v, J, x)
        got = self.tables["R"].get(key)
        if got is not None:
            return got
        sys = self._sys()
        order = _order(sys, J)
        if not order.leq(sys, u, v):
            return ()
        sv = v[1:]
        su = sys._left_mul(v[0], u)
        if len(su) < len(u):
            res = self._r(su, sv, J, x)
        elif not sys._right_descents(su) & order.jmask:
            # (q - 1) R_{u,sv} + q R_{su,sv}
            a = self._r(u, sv, J, x)
            out = _addto(_addto([], a, 1, 1), a, -1)
            res = _trim(_addto(out, self._r(su, sv, J, x), 1, 1))
        else:
            res = _trim(_addto([], self._r(u, sv, J, x), *_R3[x]))
        self.tables["R"][key] = res
        return res

    # -- fast path: descent recursion with mu corrections --------------------

    def _kl(self, u, v, J, x) -> tuple:
        if u == v:
            return _ONE
        key = (u, v, J, x)
        got = self.tables["P"].get(key)
        if got is not None:
            return got
        sys = self._sys()
        order = _order(sys, J)
        if not order.leq(sys, u, v):
            return ()
        jmask = order.jmask
        s = v[0]
        sv = v[1:]
        su = sys._left_mul(s, u)
        if len(su) < len(u):
            out = list(self._kl(su, sv, J, x))
            _addto(out, self._kl(u, sv, J, x), 1, 1)
        elif not sys._right_descents(su) & jmask:
            out = _addto([], self._kl(su, sv, J, x), 1, 1)
            _addto(out, self._kl(u, sv, J, x))
        elif x == "q":
            # (q + 1) P_{u,sv}
            a = self._kl(u, sv, J, x)
            out = _addto(list(a), a, 1, 1)
        else:
            out = []
        for w in order.between(u, sv):
            # mu(w, sv) is 0 unless l(sv) - l(w) is odd (w == sv included)
            if not (len(sv) - len(w)) % 2:
                continue
            sw = sys._left_mul(s, w)
            if len(sw) > len(w) and not (x == "q" and sys._right_descents(sw) & jmask):
                continue
            m = self._mu(w, sv, J, x)
            if m:
                gap = len(v) - len(w)
                if gap % 2:
                    raise InvariantError("mu correction at odd length gap")
                _addto(out, self._kl(u, w, J, x), -m, gap // 2)
        res = _trim(out)
        if res and 2 * (len(res) - 1) > len(v) - len(u) - 1:
            raise InvariantError("degree bound violated")
        self.tables["P"][key] = res
        return res

    def _mu(self, w, v, J, x) -> int:
        gap = len(v) - len(w)
        if gap % 2 == 0:
            return 0
        p = self._kl(w, v, J, x)
        k = (gap - 1) // 2
        return p[k] if k < len(p) else 0

    # -- normative path: bar-duality solver ------------------------------------

    def _kl_dual(self, u, v, J, x) -> tuple:
        if u == v:
            return _ONE
        key = (u, v, J, x)
        got = self.tables["Pdual"].get(key)
        if got is not None:
            return got
        sys = self._sys()
        order = _order(sys, J)
        if not order.leq(sys, u, v):
            return ()
        gap = len(v) - len(u)
        # sum over w in (u, v]^J of (-1)^(l(w)-l(u)) R_{u,w} q^(l(v)-l(w)) bar(P_{w,v})
        rhs = []
        for w in order.between(u, v):
            if w == u:
                continue
            r = self._r(u, w, J, x)
            mirrored = _mirror(self._kl_dual(w, v, J, x), len(v) - len(w))
            _addmul(rhs, mirrored, r, -1 if (len(w) - len(u)) % 2 else 1)
        rhs = _trim(rhs)
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
    u, v, J = table._check_pair(u, v, J, x)
    order = _order(sys, J)
    if not order.leq(sys, u, v):
        return True
    total = ZERO
    sign = -1 if (len(v) - len(u)) % 2 else 1
    for w in order.between(u, v):
        r_wv = LaurentPoly(table._r(w, v, J, x))
        term = r_wv.bar() * LaurentPoly(table._r(u, w, J, x))
        total = total + term.shift(len(v) - len(w))
    total = sign * total
    return total == (ONE if u == v else ZERO)
