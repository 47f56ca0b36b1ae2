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
"""

from __future__ import annotations

from .bruhat import bruhat_leq, cone
from .core import CoxeterSystem, InputError, InvariantError, PreconditionError
from .laurent import ONE, Q, ZERO, LaurentPoly

KL_TYPES = ("q", "-1")

_QM1 = Q - ONE
#: multiplier (q - 1 - x) in the third branch of the R recursion
_R3 = {"q": LaurentPoly.const(-1), "-1": Q}
#: multiplier (x + 1) in the third branch of the KL recursion
_P3 = {"q": Q + ONE, "-1": ZERO}


def check_kl_type(x: str) -> str:
    if x not in KL_TYPES:
        raise InputError(f"polynomial type must be 'q' or '-1', not {x!r}")
    return x


class KLTable:
    """Per-system memo table for R- and KL polynomials.

    Entries are immutable once inserted, keyed by (u, v, J, x) per kind;
    recomputation is deterministic, so concurrent duplicate inserts under
    the GIL are benign.  Values preloaded from a cache are trusted after
    a fingerprint match; `cache_hits` counts lookups they serve.
    """

    def __init__(self, sys: CoxeterSystem):
        self.sys = sys
        self.tables: dict[str, dict] = {"R": {}, "P": {}, "Pdual": {}}
        self.loaded: set = set()
        self.cache_hits = 0

    # -- cache plumbing -------------------------------------------------

    def preload(self, kind: str, u, v, J, x, poly: LaurentPoly) -> None:
        key = (tuple(u), tuple(v), frozenset(J), x)
        self.tables[kind][key] = poly
        self.loaded.add((kind, key))

    def new_entries(self):
        """Entries computed in this session (not preloaded)."""
        for kind in ("R", "P"):
            for key, poly in self.tables[kind].items():
                if (kind, key) not in self.loaded:
                    yield kind, key, poly

    def _get(self, kind, key):
        poly = self.tables[kind].get(key)
        if poly is not None and (kind, key) in self.loaded:
            self.cache_hits += 1
        return poly

    # -- public, validated entry points -----------------------------------

    def _check_pair(self, u, v, J, x):
        J = self.sys.check_subset(J)
        check_kl_type(x)
        u = tuple(u)
        v = tuple(v)
        for name, w in (("u", u), ("v", v)):
            if self.sys.canonicalize(w)[0] != w:
                raise InputError(f"{name} is not a canonical reduced word")
            if not self.sys.is_min_rep(w, J):
                raise PreconditionError(
                    f"{name} = '{self.sys.word_str(w)}' is not in W^J"
                )
        return u, v, J

    def parabolic_r(self, u, v, J, x: str) -> LaurentPoly:
        u, v, J = self._check_pair(u, v, J, x)
        return self._r(u, v, J, x)

    def parabolic_kl(self, u, v, J, x: str) -> LaurentPoly:
        u, v, J = self._check_pair(u, v, J, x)
        return self._kl(u, v, J, x)

    def parabolic_kl_duality(self, u, v, J, x: str) -> LaurentPoly:
        u, v, J = self._check_pair(u, v, J, x)
        return self._kl_dual(u, v, J, x)

    def mu(self, w, v, J, x: str) -> int:
        """Coefficient of q^((l(v)-l(w)-1)/2) in P^{J,x}_{w,v}."""
        w, v, J = self._check_pair(w, v, J, x)
        return self._mu(w, v, J, x)

    # -- R recursion ------------------------------------------------------

    def _r(self, u, v, J, x) -> LaurentPoly:
        if u == v:
            return ONE
        if not bruhat_leq(self.sys, u, v):
            return ZERO
        key = (u, v, J, x)
        got = self._get("R", key)
        if got is not None:
            return got
        sys = self.sys
        s = v[0]
        sv = v[1:]
        su = sys.multiply_gen(u, s, "left")
        if len(su) < len(u):
            res = self._r(su, sv, J, x)
        elif sys.is_min_rep(su, J):
            res = _QM1 * self._r(u, sv, J, x) + Q * self._r(su, sv, J, x)
        else:
            res = _R3[x] * self._r(u, sv, J, x)
        if not (res.is_zero or res.low >= 0):
            raise InvariantError("R-polynomial left Z[q]")
        self.tables["R"][key] = res
        return res

    # -- fast path: descent recursion with mu corrections --------------------

    def _kl(self, u, v, J, x) -> LaurentPoly:
        if u == v:
            return ONE
        if not bruhat_leq(self.sys, u, v):
            return ZERO
        key = (u, v, J, x)
        got = self._get("P", key)
        if got is not None:
            return got
        sys = self.sys
        s = v[0]
        sv = v[1:]
        su = sys.multiply_gen(u, s, "left")
        if len(su) < len(u):
            res = self._kl(su, sv, J, x) + Q * self._kl(u, sv, J, x)
        elif sys.is_min_rep(su, J):
            res = Q * self._kl(su, sv, J, x) + self._kl(u, sv, J, x)
        else:
            res = _P3[x] * self._kl(u, sv, J, x)
        for w in cone(self.sys, sv):
            if w == sv or not sys.is_min_rep(w, J):
                continue
            if not bruhat_leq(sys, u, w):
                continue
            sw = sys.multiply_gen(w, s, "left")
            if len(sw) > len(w) and not (x == "q" and not sys.is_min_rep(sw, J)):
                continue
            m = self._mu(w, sv, J, x)
            if m:
                gap = len(v) - len(w)
                if gap % 2:
                    raise InvariantError("mu correction at odd length gap")
                res = res - m * LaurentPoly.q_power(gap // 2) * self._kl(u, w, J, x)
        if not (res.is_zero or (
            res.low >= 0 and 2 * res.degree <= len(v) - len(u) - 1
        )):
            raise InvariantError("degree bound violated")
        self.tables["P"][key] = res
        return res

    def _mu(self, w, v, J, x) -> int:
        gap = len(v) - len(w)
        if gap % 2 == 0:
            return 0
        return self._kl(w, v, J, x).coeff((gap - 1) // 2)

    # -- normative path: bar-duality solver ------------------------------------

    def _kl_dual(self, u, v, J, x) -> LaurentPoly:
        if u == v:
            return ONE
        if not bruhat_leq(self.sys, u, v):
            return ZERO
        key = (u, v, J, x)
        got = self._get("Pdual", key)
        if got is not None:
            return got
        sys = self.sys
        gap = len(v) - len(u)
        rhs = ZERO
        for w in cone(self.sys, v):
            if w == u or not sys.is_min_rep(w, J):
                continue
            if not bruhat_leq(sys, u, w):
                continue
            term = self._r(u, w, J, x) * self._kl_dual(w, v, J, x).bar()
            term = term.shift(len(v) - len(w))
            if (len(w) - len(u)) % 2:
                term = -term
            rhs = rhs + term
        res = rhs.truncate_above((gap - 1) // 2)
        if rhs != res - res.bar().shift(gap):
            raise InvariantError("duality right-hand side is not self-mirrored")
        if not (res.is_zero or res.low >= 0):
            raise InvariantError("KL polynomial left Z[q]")
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
    if not bruhat_leq(sys, u, v):
        return True
    total = ZERO
    sign = -1 if (len(v) - len(u)) % 2 else 1
    for w in cone(sys, v):
        if not sys.is_min_rep(w, J) or not bruhat_leq(sys, u, w):
            continue
        term = table._r(w, v, J, x).bar() * table._r(u, w, J, x)
        total = total + term.shift(len(v) - len(w))
    total = sign * total
    return total == (ONE if u == v else ZERO)
