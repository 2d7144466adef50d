"""Bernoulli numbers and generalized Bernoulli numbers.

Conventions matter here and are easy to get wrong:

* plain B_n follows the generating function x/(e^x - 1), so B_1 = -1/2;
* the principal character's sequence follows t e^t/(e^t - 1) instead, so
  its index-1 value is +1/2 while agreeing with B_n everywhere else.
  It is answered from the plain values and has no cache key of its own.

Plain even B_n come from tangent numbers (Brent & Harvey,
arXiv:1108.0286) in integers.  B_{n,chi} come from integer power sums of
chi over half the range, 1 <= a < f/2, by the reflection
B_n(1-x) = (-1)^n B_n(x); it also makes B_{n,chi} exactly 0 when
chi(-1) != (-1)^n.  Indices asked for together share one walk over the
powers.  The terms of each index are added in integers, in Horner form in
f^2, over a row of C(n,j) L B_j that depends on n alone: it is built once
per index and shared by every character.  The depth-2 checks ask for r
and 3r, which share a parity.  Phase 1 of a scan (suite.scan) asks once
per non-principal character for every r and 3r of its grid, in this
process or in forked workers that return the values for it to merge, so
a scan walks each character once.  chi is tabulated on the process-wide
smallest-prime-factor sieve and evaluated only at primes.
"""
from __future__ import annotations

import threading
from collections.abc import Sequence
from fractions import Fraction
from math import comb, lcm
from operator import floordiv, mul

from .characters import QuadChar, char_values


class BernoulliCache:
    """Exact cache of B_n and B_{n,chi} keyed by (n, discriminant-or-None).

    Reads are lock-free; writes are serialized so threads can share one
    instance.  Scan workers are forked processes, each with its own copy.
    Entries are never evicted.  Besides the values, the cache keeps two
    kinds of scratch state, which are never stored, merged or returned as
    entries: the last column of the tangent-number triangle that plain B_n
    come from, so asking for a larger n extends it instead of starting
    over, and the row of C(n,j) L B_j of each index n the B_{n,chi} kernel
    has used (see _binomial_row), so later characters reuse it.  `len` and
    `entries` count and list cached values only.
    """

    def __init__(self) -> None:
        self._values: dict[tuple[int, int | None], Fraction] = {
            (0, None): Fraction(1),
            (1, None): Fraction(-1, 2),
        }
        self._tangent: list[int] = []
        self._rows: dict[int, tuple[int, list[int], int]] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, n: int, disc: int | None) -> Fraction | None:
        return self._values.get((n, disc))

    def entries(self) -> list[tuple[int, int | None, Fraction]]:
        with self._lock:
            return [(n, disc, v) for (n, disc), v in sorted(
                self._values.items(), key=lambda kv: (kv[0][1] is not None, kv[0][1] or 0, kv[0][0])
            )]

    def merge(self, entries) -> None:
        """Install the (n, disc, Fraction) triples whose key is not yet present."""
        with self._lock:
            for n, disc, v in entries:
                self._values.setdefault((n, disc), v)

    # -- plain Bernoulli numbers ------------------------------------------

    def bernoulli(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("Bernoulli index must be >= 0")
        if n == 0:
            return Fraction(1)
        if n == 1:
            return Fraction(-1, 2)
        if n % 2 == 1:
            return Fraction(0)
        got = self._values.get((n, None))
        if got is not None:
            return got
        with self._lock:
            self._extend_even(n)
            return self._values[(n, None)]

    def _extend_even(self, n: int) -> None:
        # Brent-Harvey tangent numbers, in Python integers and incrementally.
        # self._tangent is column j of the tangent triangle: the values its
        # entry j takes, from (j-1)! through passes 2..j, so the last is T_j.
        # Column j + 1 needs only column j, so a larger n costs only the new
        # columns, and B_{2j} = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) reads no
        # cached B_m: a wrong merged value cannot spread.  Only absent keys
        # are written, in ascending order, so merged values stay and a gap
        # is filled.
        col = self._tangent
        while 2 * len(col) < n:
            j = len(col) + 1
            prev = 0
            for k in range(j - 1):
                prev = col[k] = (j - 1 - k) * col[k] + (j + 1 - k) * prev
            col.append(2 * prev if j > 1 else 1)
            if (2 * j, None) not in self._values:
                q = 4 ** j
                t = col[-1] if j % 2 else -col[-1]
                self._values[(2 * j, None)] = Fraction(2 * j * t, q * (q - 1))

    # -- generalized Bernoulli numbers ------------------------------------

    def gen_bernoulli(self, n: int, chi: QuadChar) -> Fraction:
        return self.gen_bernoulli_many((n,), chi)[0]

    def gen_bernoulli_many(self, ns: Sequence[int], chi: QuadChar) -> list[Fraction]:
        """[B_{n,chi} for n in ns]; the absent ones come from one kernel pass."""
        if any(n < 0 for n in ns):
            raise ValueError("Bernoulli index must be >= 0")
        if chi.is_principal:
            return [Fraction(1, 2) if n == 1 else self.bernoulli(n) for n in ns]
        disc = chi.discriminant
        missing = sorted({n for n in ns if (n, disc) not in self._values})
        if missing:
            values = self._gen_bernoulli_compute(missing, chi)
            with self._lock:
                for n, v in zip(missing, values):
                    if (n, disc) not in self._values:
                        self._values[(n, disc)] = v
        return [self._values[(n, disc)] for n in ns]

    def _binomial_row(self, n: int) -> tuple[int, list[int], int]:
        """(L, [C(n,j) L B_j for even j from n - n % 2 down to 0], n L B_1)
        with L = lcm(den B_j for j <= n).

        The row depends on n alone, not on the character, so it is built
        once per index and every later character and call reuses it.  Its
        own L keeps it valid whatever larger index is asked for later.
        """
        got = self._rows.get(n)
        if got is None:
            with self._lock:
                got = self._rows.get(n)
                if got is None:
                    bs = [self.bernoulli(j) for j in range(n + 1)]
                    L = lcm(*(b.denominator for b in bs))
                    even = [comb(n, j) * bs[j].numerator * (L // bs[j].denominator)
                            for j in range(n - n % 2, -1, -2)]
                    got = self._rows[n] = (L, even, -(n * L // 2))  # B_1 = -1/2; L even if n > 0
        return got

    def _gen_bernoulli_compute(self, ns: list[int], chi: QuadChar) -> list[Fraction]:
        # Finite Bernoulli-polynomial formula f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f).
        # B_n(1-x) = (-1)^n B_n(x) and chi(f-a) = chi(-1) chi(a) (Washington,
        # Cyclotomic Fields, 4.1) pair a with f - a: the sum is 0 exactly when
        # chi(-1) != (-1)^n, and otherwise twice its part over 1 <= a < f/2
        # (chi vanishes at f/2 and at f, which share a factor with f > 2):
        #   B_{n,chi} = (2/f) sum_j C(n,j) B_j f^j T_{n-j},
        #   T_k = sum_{1 <= a < f/2} chi(a) a^k.
        # Only j in {0, 1} and even j have B_j != 0, so T_k is needed only for
        # k of n's parity and k = n - 1.  The indices of chi's parity share
        # one walk over k up to the largest, each step one product and one sum
        # over the a with chi(a) != 0.  The even-j part is a polynomial in
        # f^2, added in Horner form over the character-free row of each index
        # (_binomial_row: E_n = [C(n,j) L B_j, j even, high to low], L its
        # common denominator), k = n - j running upward:
        #   acc = acc * f^2 + E_n[i] T_k,
        # then the j = 1 term n L B_1 f T_{n-1}, and one division per index.
        # Building a row asks for every B_j up to its index, and the loop
        # asks for the rest up to the largest index, so a request leaves the
        # same plain entries in the cache, in ascending order, whatever chi's
        # parity.
        rows = {n: self._binomial_row(n) for n in ns if chi.parity == (-1) ** n}
        for j in range(max(rows, default=-1) + 1, max(ns) + 1):
            self.bernoulli(j)
        if not rows:
            return [Fraction(0)] * len(ns)
        f = chi.conductor
        top = max(rows)
        vals = char_values(chi, (f - 1) // 2)
        avals = [a for a in range(1, len(vals)) if vals[a]]
        squares = [a * a for a in avals]
        terms = [vals[a] * a ** (top % 2) for a in avals]  # chi(a) a^k
        T = {}
        for k in range(top % 2, top + 1, 2):
            T[k] = sum(terms)
            if k in rows and k:
                T[k - 1] = sum(map(floordiv, terms, avals))
            if k < top:
                terms = list(map(mul, terms, squares))
        f2 = f * f
        out = {}
        for n, (L, even, c1) in rows.items():
            acc = 0
            for e, k in zip(even, range(n % 2, n + 1, 2)):
                acc = acc * f2 + e * T[k]
            if n:
                acc += c1 * f * T[n - 1]
            out[n] = Fraction(2 * acc, L * f)
        return [out.get(n, Fraction(0)) for n in ns]


DEFAULT_CACHE = BernoulliCache()


def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2 (odd indices > 1 vanish)."""
    return DEFAULT_CACHE.bernoulli(n)


def gen_bernoulli(n: int, chi: QuadChar) -> Fraction:
    """Generalized Bernoulli number B_{n,chi} (exact rational)."""
    return DEFAULT_CACHE.gen_bernoulli(n, chi)


def gen_bernoulli_many(ns: Sequence[int], chi: QuadChar) -> list[Fraction]:
    """[B_{n,chi} for n in ns], the absent ones from one kernel walk."""
    return DEFAULT_CACHE.gen_bernoulli_many(ns, chi)
