"""Parabolic R-polynomials and Kazhdan-Lusztig polynomials of both types.

Two independent computation paths are kept side by side, as methods of
the per-system `KLTable` (`get_table`):

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
helpers below are the library's one polynomial arithmetic (the tests
check them against the reference `Laurent` in `tests/oracles.py`);
`LaurentPoly`, a value with no arithmetic, is the public type, made at
the entry points.  The recursions run on ids in the order index
`bruhat._order(sys, J)`, which give lengths, the cover sv, the left
action s·z and [u, v]^J.  An entry point checks its arguments and reads
the ids of u and v once per call (`_check_pair`), and returns the memo's
tuple as a `LaurentPoly` without a copy; the scan reads the tuples of
cases it checked when it built them.
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


def _truncate(p: tuple, k: int) -> tuple:
    """The terms of p of degree <= k (k >= 0)."""
    return _trim(list(p[: k + 1]))


def _memoized(kind: str):
    """A recursion step (self, sys, order, iu, iv, J, x), on ids in the
    index order = `bruhat._order(sys, J)`, memoized in tables[kind] by
    (iu, iv, J, x): 1 at u = v, 0 unless u <= v, else body(...) on the
    same arguments.  sys and order are fixed for a whole recursion, so
    they are passed down rather than looked up on each step."""

    def wrap(body):
        def step(self, sys, order, iu, iv, J, x):
            if iu == iv:
                return _ONE
            key = (iu, iv, J, x)
            memo = self.tables[kind]
            got = memo.get(key)
            if got is not None:
                return got
            if not order.down[iv] >> iu & 1:
                return ()
            res = memo[key] = body(self, sys, order, iu, iv, J, x)
            return res

        return step

    return wrap


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
    garbage collector frees.  An entry point dereferences it once per call
    and passes the system down the recursion, with the order index.
    """

    def __init__(self, sys: CoxeterSystem):
        self._sys = weakref.ref(sys)
        self.tables: dict[str, dict] = {"R": {}, "P": {}, "Pdual": {}}
        self.mirrors: dict = {}

    # -- public, validated entry points -----------------------------------

    def _check_pair(self, u, v, J, x):
        """The arguments (sys, order, iu, iv, J) of a recursion step, after
        checking J, x, u and v, numbering v's cone on a miss; None when u
        is not numbered, so not <= v."""
        sys = self._sys()
        if sys is None:
            raise PreconditionError("the table's Coxeter system no longer exists")
        J = sys.check_subset(J)
        if x != "q" and x != "-1":
            check_kl_type(x)
        order = _order(sys, J)
        u = sys._check_rep(u, order.jmask, "u")
        v = sys._check_rep(v, order.jmask, "v")
        ids = order.ids
        iv = ids.get(v)
        if iv is None:
            iv = order.id(sys, v)
        iu = ids.get(u)
        return None if iu is None else (sys, order, iu, iv, J)

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
        _, order, iw, iv, _ = ids
        gap = order.lens[iv] - order.lens[iw]
        p = self._kl(*ids, x) if gap % 2 else ()
        k = (gap - 1) // 2
        return p[k] if 0 <= k < len(p) else 0

    # -- R recursion ------------------------------------------------------

    @_memoized("R")
    def _r(self, sys, order, iu, iv, J, x) -> tuple:
        isv = order.covers[iv][0]
        su = order.act(sys, iu, order.words[iv][0])
        if su is None:  # su leaves W^J
            return _trim(_addto([], self._r(sys, order, iu, isv, J, x), *_R3[x]))
        if su.__class__ is int:  # su < u
            return self._r(sys, order, su, isv, J, x)
        # (q - 1) R_{u,sv} + q R_{su,sv}; su is numbered if su <= sv
        a = self._r(sys, order, iu, isv, J, x)
        out = _addto(_addto([], a, 1, 1), a, -1)
        isu = order.ids.get(su)
        if isu is not None:
            _addto(out, self._r(sys, order, isu, isv, J, x), 1, 1)
        return _trim(out)

    # -- fast path: descent recursion with mu corrections --------------------

    @_memoized("P")
    def _kl(self, sys, order, iu, iv, J, x) -> tuple:
        lens = order.lens
        s, isv = order.words[iv][0], order.covers[iv][0]
        su = order.act(sys, iu, s)
        if su is None:
            # (q + 1) P_{u,sv} for x = q, else 0
            a = self._kl(sys, order, iu, isv, J, x) if x == "q" else ()
            out = _addto(list(a), a, 1, 1)
        elif su.__class__ is int:
            out = list(self._kl(sys, order, su, isv, J, x))
            _addto(out, self._kl(sys, order, iu, isv, J, x), 1, 1)
        else:
            isu = order.ids.get(su)
            out = [] if isu is None else _addto([], self._kl(sys, order, isu, isv, J, x), 1, 1)
            _addto(out, self._kl(sys, order, iu, isv, J, x))
        lsv = lens[isv]
        for w in _bits(order.up[iu] & order.down[isv]):
            # mu(w, sv) is 0 unless l(sv) - l(w) is odd (w == sv included)
            if not (lsv - lens[w]) % 2:
                continue
            # w counts when sw < w, or for x = q when sw leaves W^J
            sw = order.act(sys, w, s)
            if not (sw.__class__ is int or sw is None and x == "q"):
                continue
            p = self._kl(sys, order, w, isv, J, x)
            k = (lsv - lens[w] - 1) // 2
            if k < len(p) and p[k]:
                gap = lens[iv] - lens[w]
                if gap % 2:
                    raise InvariantError("mu correction at odd length gap")
                _addto(out, self._kl(sys, order, iu, w, J, x), -p[k], gap // 2)
        res = _trim(out)
        if res and 2 * (len(res) - 1) > lens[iv] - lens[iu] - 1:
            raise InvariantError("degree bound violated")
        return res

    # -- normative path: bar-duality solver ------------------------------------

    @_memoized("Pdual")
    def _kl_dual(self, sys, order, iu, iv, J, x) -> tuple:
        lens, mirrors, rs = order.lens, self.mirrors, self.tables["R"]
        lu, lv = lens[iu], lens[iv]
        gap = lv - lu
        # sum over w in (u, v]^J of (-1)^(l(w)-l(u)) R_{u,w} q^(l(v)-l(w)) bar(P_{w,v}),
        # of degree <= gap: deg R_{u,w} <= l(w) - l(u), and `_mirror` checks the rest
        rhs = [0] * (gap + 1)
        for w in _bits((order.up[iu] & order.down[iv]) ^ 1 << iu):
            wkey = (w, iv, J, x)
            mirrored = mirrors.get(wkey)
            if mirrored is None:
                p = self._kl_dual(sys, order, w, iv, J, x)
                mirrored = mirrors[wkey] = _mirror(p, lv - lens[w])
            r = rs.get((iu, w, J, x))
            if r is None:
                r = self._r(sys, order, iu, w, J, x)
            lw = lens[w] - lu
            if len(r) > lw + 1:
                raise InvariantError("R polynomial above its degree bound")
            for k, a in enumerate(mirrored):
                if a:
                    a = -a if lw % 2 else a
                    for i, b in enumerate(r, k):
                        rhs[i] += a * b
        rhs = _trim(rhs)
        res = _truncate(rhs, (gap - 1) // 2)
        if rhs != _trim(_addto(list(res), _mirror(res, gap), -1)):
            raise InvariantError("duality right-hand side is not self-mirrored")
        return res


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
    total = []
    for w in _bits(order.up[iu] & order.down[iv]):
        mirrored = _mirror(table._r(sys, order, w, iv, J, x), order.lens[iv] - order.lens[w])
        _addmul(total, mirrored, table._r(sys, order, iu, w, J, x))
    # the sign (-1)^(l(v)-l(u)) cannot turn 0 into 1, and is 1 at u = v
    return _trim(total) == (_ONE if iu == iv else ())
