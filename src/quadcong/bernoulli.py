"""Bernoulli numbers and generalized Bernoulli numbers.

Conventions matter here and are easy to get wrong:

* plain B_n follows the generating function x/(e^x - 1), so B_1 = -1/2;
* the principal character's sequence follows t e^t/(e^t - 1) instead, so
  its index-1 value is +1/2 while agreeing with B_n everywhere else.
  It is answered from the plain values and has no cache key of its own.

Plain B_0, B_1 and B_2 are seeded, odd B_n above 1 are 0, and every other
even B_n comes from zeta(n), which writes its own key alone: B_n = N/D
with D the von Staudt-Clausen denominator, and N an integer that
fixed-point bounds on 2 n! D zeta(n) / (2 pi)^n, every rounding directed
outward, pin down (Fillebrown, J. Algorithms 13, 1992).  The value is
returned only when exactly one integer lies between the bounds; otherwise
the route retries with more guard bits and then raises ArithmeticError.
So every plain value is exact, and none is built from another cached one.

B_{n,chi} come from integer power sums of chi over half the range,
1 <= a < f/2, by the reflection B_n(1-x) = (-1)^n B_n(x); it also makes
B_{n,chi} exactly 0 when chi(-1) != (-1)^n.  Indices asked for together
share one walk over the powers.  The terms of each index are added in
integers, in Horner form in f^2, over a row of C(n,j) L B_j that depends
on n alone: it is built once per index and shared by every character.  The
depth-2 checks ask for r and 3r, which share a parity.  Phase 1 of a scan
(suite.scan) asks once per non-principal character for every r and 3r of
its grid, in this process or in forked workers that return the values for
it to merge, so a scan walks each character once.  chi is tabulated on the
process-wide smallest-prime-factor sieve and evaluated only at primes.
"""
from __future__ import annotations

import threading
from collections.abc import Sequence
from fractions import Fraction
from math import comb, factorial, lcm, lgamma, log, pi, prod
from operator import floordiv, mul

from .characters import QuadChar, char_values
from .primes import divisors, factorize, is_prime, primes_up_to

# Guard bits of the zeta route, on top of n.bit_length(); doubled on retry.
_GUARD_BITS = 16

# The most memory the B_{n,chi} kernel may ask for; a larger conductor is
# refused before anything is allocated (see _kernel_bytes).
_KERNEL_MAX_BYTES = 1 << 32


def _kernel_bytes(f: int, top: int) -> int:
    """About the most bytes the kernel holds at once for conductor f and
    largest index top.  Per a < f/2: about 150 for the sieve entry, the
    value slot and the ints a and a^2, and about 2.7 times the size of the
    term chi(a) a^top, which has top * bits(f/2) bits: the walk holds two
    lists of terms at once, and large ints carry allocator overhead.  Peak
    RSS measured against this estimate: 389 against 386 MB at f = 4 * 10^5,
    top = 297, and 140 against 181 MB at f = 2 * 10^6, top = 6.
    """
    half = f // 2
    return half * (150 + top * half.bit_length() // 3)


class BernoulliCache:
    """Exact cache of B_n and B_{n,chi} keyed by (n, discriminant-or-None).

    Reads are lock-free; writes are serialized so threads can share one
    instance.  Scan workers are forked processes, each with its own copy.
    Entries are never evicted.  `bernoulli(n)` answers a plain index from
    the seeds or the cache, or certifies it from zeta(n) (_bernoulli_zeta).
    Besides the values, the cache keeps two kinds of scratch state, which
    are never stored, merged or returned as entries: the bounds of pi and
    of (4/pi)^(2^i) at the zeta route's working precision, rebuilt only
    when that precision doubles; and the row of C(n,j) L B_j of each index
    n the B_{n,chi} kernel has used (see _binomial_row), so later
    characters reuse it.  `len` and `entries` count and list cached values
    only.
    """

    def __init__(self) -> None:
        self._values: dict[tuple[int, int | None], Fraction] = {
            (0, None): Fraction(1),
            (1, None): Fraction(-1, 2),
            # zeta(2)'s Euler product would sieve the primes up to 2^W
            (2, None): Fraction(1, 6),
        }
        self._pi_powers: tuple[int, list[tuple[int, int]]] = (0, [])
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

    def character_count(self) -> int:
        """The number of cached B_{n,chi}, the entries a cache file holds."""
        with self._lock:
            return sum(disc is not None for _n, disc in self._values)

    def merge(self, entries) -> None:
        """Install the (n, disc, Fraction) triples whose key is not yet present."""
        with self._lock:
            for n, disc, v in entries:
                self._values.setdefault((n, disc), v)

    # -- plain Bernoulli numbers ------------------------------------------

    def bernoulli(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("Bernoulli index must be >= 0")
        if n > 1 and n % 2 == 1:
            return Fraction(0)
        got = self._values.get((n, None))
        if got is not None:
            return got
        with self._lock:
            if (n, None) not in self._values:
                self._values[(n, None)] = self._bernoulli_zeta(n)
            return self._values[(n, None)]

    def _bernoulli_zeta(self, n: int) -> Fraction:
        """B_n for even n >= 4 from zeta(n), certified; the lock is held.

        B_n = N/D with D the von Staudt-Clausen denominator, and
        |N| = 2 n! D zeta(n) / (2 pi)^n = A zeta(n) (4/pi)^n / 2^(3n),
        A = 2 n! D, is an integer (Fillebrown, J. Algorithms 13, 1992).  With
        W fractional bits, T_lo <= (4/pi)^n 2^W <= T_hi and
        R_lo <= 2^W / zeta(n) <= R_hi give A T_lo / (R_hi 2^(3n)) <= |N| <=
        A T_hi / (R_lo 2^(3n)).  Every bound is rounded outward, so when
        exactly one integer lies between them it is |N|.  The float estimate
        of log2 |N| only sizes W: if it is too small, the check fails and the
        route retries once with doubled guard bits, then raises.
        """
        D = _vsc_denominator(n)
        A = 2 * factorial(n) * D
        est = 1 + (lgamma(n + 1) - n * log(2 * pi)) / log(2) + D.bit_length()
        guard = n.bit_length() + _GUARD_BITS
        for g in (guard, 2 * guard):
            W = int(est) + g
            T_lo, T_hi = self._four_over_pi_pow(n, W)
            R_lo, R_hi = _inv_zeta_bounds(n, W, int(2 ** (W / (n - 1))) + 1)
            lo = -(-(A * T_lo) // (R_hi << 3 * n))  # least integer >= the lower bound
            hi = A * T_hi // (R_lo << 3 * n)  # largest integer <= the upper bound
            if lo == hi:
                return Fraction(lo if n % 4 == 2 else -lo, D)  # sign (-1)^(n/2+1)
        raise ArithmeticError(f"B_{n} from zeta({n}): bounds pin no single integer")

    def _four_over_pi_pow(self, n: int, W: int) -> tuple[int, int]:
        """(lo, hi) with lo <= (4/pi)^n 2^W <= hi, for n >= 1; the lock is held.

        Reads the table of (4/pi)^(2^i) bounds at the cache's precision
        P >= W, shifted down to W bits outward, and multiplies those of n's
        bits.  When W outgrows P, P at least doubles and pi and the table are
        built again, so pi is computed once per doubling of the precision.
        """
        P, table = self._pi_powers
        if W > P:
            P = max(2 * P, W)
            pi_lo, pi_hi = _pi_bounds(P)
            four = 1 << (2 * P + 2)
            table = [(four // pi_hi, -(-four // pi_lo))]
            self._pi_powers = (P, table)
        while len(table) < n.bit_length():
            lo, hi = table[-1]
            table.append((lo * lo >> P, -(-(hi * hi) >> P)))
        s = P - W
        lo = hi = 0
        for i in range(n.bit_length()):
            if n >> i & 1:
                t_lo, t_hi = table[i][0] >> s, -(-table[i][1] >> s)
                if lo:
                    lo, hi = lo * t_lo >> W, -(-(hi * t_hi) >> W)
                else:
                    lo, hi = t_lo, t_hi
        return lo, hi

    # -- generalized Bernoulli numbers ------------------------------------

    def gen_bernoulli(self, n: int, chi: QuadChar) -> Fraction:
        return self.gen_bernoulli_many((n,), chi)[0]

    def gen_bernoulli_many(self, ns: Sequence[int], chi: QuadChar) -> list[Fraction]:
        """[B_{n,chi} for n in ns]; the absent ones come from one kernel pass.

        ValueError, before any table is built, when that pass would need
        more than _KERNEL_MAX_BYTES: a conductor past about 3.9 * 10^6 at
        index 297, the top index of a thm1 grid with p <= 200, or past
        4.3 * 10^7 at index 6.
        """
        if any(n < 0 for n in ns):
            raise ValueError("Bernoulli index must be >= 0")
        if chi.is_principal:
            return [Fraction(1, 2) if n == 1 else self.bernoulli(n) for n in ns]
        disc = chi.discriminant
        missing = sorted({n for n in ns if (n, disc) not in self._values})
        if missing:
            need = _kernel_bytes(chi.conductor, missing[-1])
            if need > _KERNEL_MAX_BYTES:
                raise ValueError(
                    f"B_{{{missing[-1]},chi}} for conductor {chi.conductor} needs about "
                    f"{need / 2 ** 30:.3g} GiB of kernel tables, past the bound of "
                    f"{_KERNEL_MAX_BYTES / 2 ** 30:.3g} GiB")
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
        rows = {n: self._binomial_row(n) for n in ns if chi.parity == (-1) ** n}
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


def _vsc_denominator(n: int) -> int:
    """The denominator of B_n for even n >= 2: the product of the primes p
    with (p - 1) | n (von Staudt-Clausen)."""
    return prod(d + 1 for d in divisors(factorize(n), n) if is_prime(d + 1))


def _inv_zeta_bounds(n: int, W: int, M: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^W / zeta(n) <= hi, for n >= 2 and M >= 2.

    1/zeta(n) is the product of (1 - p^-n) over all primes.  The factors of
    the primes p <= M are applied with floor for lo and ceil for hi (p = 2
    by shifts).  The rest is at most 1 and at least 1/(1 + t) >= 1 - t with
    t = M^(1-n)/(n-1) >= sum_{m > M} m^-n, which lo takes off.
    """
    lo = hi = 1 << W
    for p in primes_up_to(M):
        if p == 2:
            lo, hi = lo + (-lo >> n), hi - (hi >> n)
        else:
            # one division serves both: hi - lo < q, so floor(hi/q) is
            # floor(lo/q) or one more
            q = p ** n
            f, r = divmod(lo, q)
            lo, hi = lo - f - (r > 0), hi - f - (r + hi - lo) // q
    return lo + (-lo // ((n - 1) * M ** (n - 1))), hi


def _arctan_inv(k: int, bits: int) -> tuple[int, int]:
    """(s, e) with |arctan(1/k) 2^bits - s| <= e, for an integer k >= 2.

    Term j of the series, 2^bits / ((2j+1) k^(2j+1)), is formed from
    x_j = floor(x_(j-1) / k^2), x_0 = floor(2^bits / k), which is below the
    exact power by less than 1/(1 - k^-2) <= 4/3; its floor division by
    2j+1 then loses less than 3 in all.  The loop stops at x_J = 0, where
    the alternating tail is below the exact term J < 4/3.  So the error is
    under 3J + 2.
    """
    x, k2 = (1 << bits) // k, k * k
    s = j = 0
    while x:
        s += -(x // (2 * j + 1)) if j & 1 else x // (2 * j + 1)
        x //= k2
        j += 1
    return s, 3 * j + 2


def _pi_bounds(bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= pi 2^bits <= hi, from Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239), with guard bits that keep hi - lo
    within a few units."""
    g = bits.bit_length() + 8
    s5, e5 = _arctan_inv(5, bits + g)
    s239, e239 = _arctan_inv(239, bits + g)
    s, e = 16 * s5 - 4 * s239, 16 * e5 + 4 * e239
    return (s - e) >> g, -(-(s + e) >> g)


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
