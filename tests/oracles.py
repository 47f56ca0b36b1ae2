"""Independent oracles that only the tests run.

None of these is on a library path.  Each decides a question by a route
that shares no code with the one the package takes, and each imports
only public coxkl names, so a fault in the code under test cannot hide
in the oracle too.

* `PyIntKernel`: canonical forms and descents by the matrix algorithm,
  an n x n matrix over Python ints rebuilt on every call, against the
  package's point kernel `RingKernel`; over `Golden` (Z[phi]) for bonds
  of 5 (`golden_cartan`).
* `subword_leq_oracle`: u <= v by enumerating all 2^l subwords of v.
* `project_to_quotient` and `deodhar_criterion`: u <= v through the
  images of u and v in every maximal quotient.
* `laurent_normal_form`: the offset, coefficients and display of a
  Laurent polynomial, from a map of its nonzero terms.
* `Laurent`: the reference arithmetic of Laurent polynomials (sums,
  products, q-shifts, bar, truncation), on a map of nonzero terms rather
  than the library's dense coefficient tuples; `Q` is q.
"""

from __future__ import annotations

from coxkl import CoxeterSystem, bruhat_leq


class Golden:
    """a + b phi in Z[phi], phi = (1 + sqrt 5) / 2, with phi^2 = phi + 1,
    ordered as real numbers: 2 (a + b phi) = (2a + b) + b sqrt 5."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = a, b

    @staticmethod
    def of(x):
        return x if isinstance(x, Golden) else Golden(x)

    def __add__(self, other):
        other = Golden.of(other)
        return Golden(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Golden(-self.a, -self.b)

    def __sub__(self, other):
        return self + -Golden.of(other)

    def __rsub__(self, other):
        return Golden.of(other) - self

    def __mul__(self, other):
        other = Golden.of(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        return Golden(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.a or self.b)

    def __le__(self, other):
        diff = self - other
        x, y = 2 * diff.a + diff.b, diff.b  # 2 diff = x + y sqrt 5
        if x <= 0 and y <= 0:
            return True
        if x >= 0 and y >= 0:
            return False
        return x * x < 5 * y * y if x > 0 else x * x > 5 * y * y


def golden_cartan(matrix) -> tuple:
    """The symmetric Cartan matrix -2cos(pi/m) of a Coxeter matrix with
    bonds 2, 3 and 5, over `Golden`: -2cos(pi/5) = -phi."""
    value = {1: 2, 2: 0, 3: -1, 5: Golden(0, -1)}
    return tuple(tuple(value[m] for m in row) for row in matrix)


class PyIntKernel:
    """Word kernel over arbitrary-precision integers, or `Golden`.

    Columns of an n x n matrix hold the images of the simple roots in
    the simple-root basis; a generator is a right descent exactly when
    its column goes negative.  The kernel keeps no state.
    """

    kind = "pure"

    def __init__(self, cartan):
        self.n = len(cartan)
        self.cartan = tuple(tuple(row) for row in cartan)

    def _apply_right(self, cols, s):
        # cols <- cols . sigma_s : col_t -= a(s,t) col_s  (t != s), col_s negated
        row = self.cartan[s]
        cs = cols[s]
        for t in range(self.n):
            if t == s:
                continue
            a = row[t]
            if a:
                cols[t] = [x - a * y for x, y in zip(cols[t], cs)]
        cols[s] = [-y for y in cs]

    def _identity(self):
        n = self.n
        return [[1 if u == t else 0 for u in range(n)] for t in range(n)]

    def canonicalize(self, word):
        """ShortLex canonical form of the element of `word`.

        Returns (canonical_word, was_reduced).
        """
        minv = self._identity()  # matrix of the inverse element
        for s in reversed(word):
            self._apply_right(minv, s)
        out = []
        while True:
            found = -1
            for t in range(self.n):
                if all(x <= 0 for x in minv[t]):
                    found = t
                    break
            if found < 0:
                break
            out.append(found)
            self._apply_right(minv, found)
        return tuple(out), len(out) == len(word)

    def right_descent_mask(self, word) -> int:
        """Bitmask of generators whose right multiplication shortens."""
        m = self._identity()
        for s in word:
            self._apply_right(m, s)
        mask = 0
        for t in range(self.n):
            if all(x <= 0 for x in m[t]):
                mask |= 1 << t
        return mask


def subword_leq_oracle(sys: CoxeterSystem, u, v) -> bool:
    """Decide u <= v by raw enumeration of all 2^l subwords of v.

    Deliberately brute force; an independent cross-check of bruhat_leq
    and of cone.
    """
    u = tuple(u)
    v = tuple(v)
    seen = set()
    for bits in range(1 << len(v)):
        sub = tuple(s for i, s in enumerate(v) if bits >> i & 1)
        seen.add(sys.canonicalize(sub)[0])
    return u in seen


def project_to_quotient(sys: CoxeterSystem, w, J, side: str = "right") -> tuple:
    """Minimal-length representative of the coset w W_J (right) or W_J w (left)."""
    jmask = sys.subset_mask(J)
    w = tuple(w)
    while True:
        hit = sys.descent_mask(w, side) & jmask
        if not hit:
            return w
        s = (hit & -hit).bit_length() - 1
        w = sys.multiply_gen(w, s, side)


def deodhar_criterion(sys: CoxeterSystem, u, v) -> bool:
    """Compare u, v through all maximal-quotient projections.

    Equivalent to bruhat_leq(u, v): the Bruhat order is determined by its
    images in the maximal quotients.  An independent cross-check.
    """
    u = tuple(u)
    v = tuple(v)
    for s in sys.generators:
        J = frozenset(sys.generators) - {s}
        if not bruhat_leq(
            sys,
            project_to_quotient(sys, u, J, "right"),
            project_to_quotient(sys, v, J, "right"),
        ):
            return False
    return True


def laurent_normal_form(coeffs, offset: int) -> tuple:
    """(offset, coeffs, display) of the sum of c_i q^(offset + i): coeffs
    run from the lowest nonzero term to the highest, the zero polynomial
    is (0, (), "0"), and terms show lowest first, as "c", "cq" or "cq^k"
    with a coefficient of magnitude 1 left out beside q."""
    terms = {offset + i: c for i, c in enumerate(coeffs) if c != 0}
    if not terms:
        return 0, (), "0"
    lo, hi = min(terms), max(terms)
    shown = []
    for k, c in sorted(terms.items()):
        mag = "" if k != 0 and abs(c) == 1 else str(abs(c))
        var = "" if k == 0 else "q" if k == 1 else f"q^{k}"
        sign = ("- " if c < 0 else "+ ") if shown else ("-" if c < 0 else "")
        shown.append(sign + mag + var)
    return lo, tuple(terms.get(k, 0) for k in range(lo, hi + 1)), " ".join(shown)


class Laurent:
    """A Laurent polynomial over the integers as the map {exponent:
    coefficient} of its nonzero terms.

    An operand or comparand may be an int (a constant), a `Laurent` or
    any value with `offset` and `coeffs` (a `coxkl.LaurentPoly`); `==` is
    equality of polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, coeffs=(), offset: int = 0):
        self.terms = {offset + i: c for i, c in enumerate(coeffs) if c}

    @classmethod
    def of(cls, p) -> "Laurent":
        if isinstance(p, Laurent):
            return p
        if isinstance(p, int):
            return cls((p,))
        return cls(p.coeffs, p.offset)

    @classmethod
    def _from_terms(cls, pairs) -> "Laurent":
        out = cls()
        for k, c in pairs:
            out.terms[k] = out.terms.get(k, 0) + c
        out.terms = {k: c for k, c in out.terms.items() if c}
        return out

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Highest exponent, or None for the zero polynomial."""
        return max(self.terms, default=None)

    @property
    def low(self):
        """Lowest exponent, or None for the zero polynomial."""
        return min(self.terms, default=None)

    def coeff(self, k: int) -> int:
        return self.terms.get(k, 0)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return Laurent._from_terms([*self.terms.items(), *Laurent.of(other).terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return Laurent._from_terms((k, -c) for k, c in self.terms.items())

    def __sub__(self, other):
        return self + -Laurent.of(other)

    def __rsub__(self, other):
        return Laurent.of(other) - self

    def __mul__(self, other):
        other = Laurent.of(other)
        return Laurent._from_terms(
            (i + j, a * b) for i, a in self.terms.items() for j, b in other.terms.items()
        )

    __rmul__ = __mul__

    def shift(self, k: int) -> "Laurent":
        """Multiply by q**k."""
        return Laurent._from_terms((i + k, c) for i, c in self.terms.items())

    def bar(self) -> "Laurent":
        """Substitute q -> q**-1."""
        return Laurent._from_terms((-i, c) for i, c in self.terms.items())

    def truncate_above(self, k: int) -> "Laurent":
        """Keep only the terms with exponent <= k."""
        return Laurent._from_terms((i, c) for i, c in self.terms.items() if i <= k)

    def __eq__(self, other):
        try:
            other = Laurent.of(other)
        except AttributeError:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"Laurent({self.terms!r})"


Q = Laurent((1,), 1)
