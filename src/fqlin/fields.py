"""Exact arithmetic for the coefficient field F_{q^s}((x))^perf.

The scalar tower is built in two layers.  The residue field F_{q^s} with
q = p^v is realised as F_p[g]/(modulus); an element is an int code, its
coordinates over F_p packed base p with the constant coordinate least
significant (so 0 is zero and 1 is one), and the public ``FieldElem`` wraps
one.  On top of it sit perfected Laurent series: finite sums of monomials
c*x^e whose exponents e live in Z[1/p] (denominators limited to p^E for a
configurable depth E), together with an x-adic precision marker.  A series
with precision ``prec`` is known exactly below x^prec and unknown from
x^prec on; an exactly known value has precision ``INF``.  All values are
immutable after construction and all arithmetic is exact, so equal inputs
always produce identical outputs.

Inside a series an exponent is stored as the integer n = e * p^E (E is
fixed per field), the precision as such an integer or ``None`` for "exact",
and a coefficient as its bare code.  The field supplies the arithmetic on
codes (``FieldConfig._ops``, built on first use): residues mod p over a
prime field; log/antilog tables up to order 2^16, with XOR addition in
characteristic 2 and a Zech table otherwise; above that, coordinates in
w-bit slots of one int, a product being one int multiply folded back by the
modulus (Kronecker substitution on one element), which also builds the
tables, and an inverse the extended Euclidean algorithm over F_p[g].  The
constructor takes ``FieldElem``s, and ``terms``, ``coeff``, ``leading()``
and ``prec`` build ``FieldElem``s and ``Fraction``s (or ``INF``) on each
access.

Precision propagates ultrametrically:

* addition keeps ``min(prec_a, prec_b)``,
* multiplication keeps ``min(prec_a + val_b, prec_b + val_a)``, and a
  twisted sum of the products a * b^{q^e} (``twisted_sum``, which
  ``__mul__`` runs on one product) keeps the least of theirs,
* inversion keeps ``prec_a - 2*val_a``,
* division a / b keeps the precision of the product a * b^{-1}.

Raising to the q-th power multiplies exponents and precision by q;
q-th roots divide them by q and may hit the perfection depth cap.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import product

from .errors import (
    DivisionByZero,
    PerfectionDepthExceeded,
    PrecisionExhausted,
    ValidationError,
)


class _Unbounded(float):
    """math.inf, except that INF + n, INF - n, INF * n, INF / n (n > 0),
    n + INF and n * INF (n an int) and q ** INF are INF at once: float
    arithmetic would first convert n, which overflows for a huge n."""

    __slots__ = ()

    def _absorb(self, other):
        return self

    __add__ = __radd__ = __sub__ = __mul__ = __rmul__ = __truediv__ = __rpow__ = _absorb


INF = _Unbounded("inf")  # the one unbounded order, precision and minimum index
# the x-adic precision of an exact value with infinitely many digits, such as
# the inverse of 1 + x, relative to its valuation; and the cap on perf_depth
DEFAULT_XPREC = Fraction(32)
MAX_PERF_DEPTH = 1024
# the residue field has at most 2^MAX_FIELD_BITS elements, which bounds the
# primality test and the modulus search; and q^|k| <= 2^MAX_TWIST_BITS for a
# twist count, bracket index or compositional power k
MAX_FIELD_BITS = 32
MAX_TWIST_BITS = 1024


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _power(mul, c, e, one=1):
    """c to the power e >= 0 under the product mul, by square and multiply
    (one is the unit: the code 1 by default)."""
    out = one
    while e:
        if e & 1:
            out = mul(out, c)
        c = mul(c, c)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# dense polynomials over a residue field (FieldElem coefficient lists,
# constant first): irreducibility of moduli over F_p and the extension
# degree a residue equation over F_{q^s} needs


def _poly_trim(f):
    while f and f[-1].is_zero():
        f.pop()
    return f


def _poly_rem(f, g):
    f = list(f)
    lead = g[-1]
    lead_inv = None if lead == lead.field.one() else lead.inverse()
    while _poly_trim(f) and len(f) >= len(g):
        shift = len(f) - len(g)
        factor = f[-1] if lead_inv is None else f[-1] * lead_inv
        for i, gi in enumerate(g):
            f[shift + i] = f[shift + i] - factor * gi
    return f


def _poly_gcd(f, g):
    f, g = _poly_trim(list(f)), _poly_trim(list(g))
    while g:
        f, g = g, _poly_rem(f, g)
    return f


def _poly_mulmod(f, g, mod):
    out = [mod[-1].field.zero()] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi.is_zero():
            continue
        for j, gj in enumerate(g):
            out[i + j] = out[i + j] + fi * gj
    return _poly_rem(out, mod)


def least_factor_degree(f):
    """Least degree of an irreducible factor of f (deg f >= 1) over its
    coefficient field F: the least d >= 1 with deg gcd(f, w^{|F|^d} - w)
    >= 1, or deg f when there is none up to deg f / 2.  So f is irreducible
    exactly when the result is deg f (Rabin's test, distinct-degree form)."""
    f = _poly_trim(list(f))
    deg = len(f) - 1
    fld = f[-1].field
    zero, one = fld.zero(), fld.one()
    lead_inv = f[-1].inverse()
    f = [c * lead_inv for c in f]  # monic: every remainder mod f skips the inverse
    frob = [zero, one]  # w^{|F|^d} mod f, starting from w
    for d in range(1, deg // 2 + 1):
        frob = _power(lambda a, b: _poly_mulmod(a, b, f), frob, fld.order, [one])
        probe = list(frob) + [zero, zero]
        probe[1] = probe[1] - one
        if len(_poly_gcd(f, probe)) > 1:
            return d
    return deg


def _is_irreducible(mod, fp):
    """Whether the monic integer polynomial mod is irreducible over fp = F_p."""
    return least_factor_degree([fp.elem(c) for c in mod]) == len(mod) - 1


def _first_irreducible(p, degree):
    """Lexicographically first monic irreducible over F_p of the given degree
    (constant coordinate most significant)."""
    if degree == 1:
        return (0, 1)  # w; FieldConfig(p) itself lands here, so no recursion
    # w divides every candidate with constant coordinate 0: start the scan at 1
    fp = FieldConfig(p)
    for coords in product(range(1, p), *[range(p)] * (degree - 1)):
        if _is_irreducible(coords + (1,), fp):
            return coords + (1,)


# ---------------------------------------------------------------------------
# field configuration and residue-field elements


class FieldConfig:
    """Parameters of the scalar tower F_p < F_q < F_{q^s}, q = p^v.

    ``modulus`` is the monic irreducible polynomial over F_p (ascending
    coefficients, degree v*s) presenting F_{q^s}; when omitted the
    lexicographically first monic irreducible of that degree is chosen.
    ``perf_depth`` caps exponent denominators at p^E, E <= MAX_PERF_DEPTH
    (default 8v).  The field F_{q^s} has at most 2^32 elements
    (MAX_FIELD_BITS), checked before p is tested for primality, so p < 2^32
    and v*s <= 32.  ``max_twist`` bounds the twist counts, bracket indices
    and compositional powers k taken over the field: q^|k| <= 2^1024
    (MAX_TWIST_BITS).
    """

    def __init__(self, p, v=1, s=1, modulus=None, perf_depth=None):
        if v < 1 or s < 1:
            raise ValidationError("v and s must be positive")
        degree = v * s
        if degree > MAX_FIELD_BITS or p**degree > 2**MAX_FIELD_BITS:
            raise ValidationError(
                f"the field of order p^(v*s) = {p}^{degree} has more than 2^{MAX_FIELD_BITS} elements"
            )
        if not _is_prime(p):
            raise ValidationError(f"p = {p} is not prime")
        if perf_depth is None:
            perf_depth = 8 * v
        if not 0 <= perf_depth <= MAX_PERF_DEPTH:
            raise ValidationError(f"perf_depth must be in 0..{MAX_PERF_DEPTH}, got {perf_depth}")
        if modulus is None:
            modulus = _first_irreducible(p, degree)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != degree + 1 or modulus[-1] != 1:
                raise ValidationError(
                    f"modulus must be monic of degree {degree} (got {modulus})"
                )
            if degree > 1 and not _is_irreducible(modulus, FieldConfig(p)):
                raise ValidationError(f"modulus {modulus} is reducible over F_{p}")
        self._key = (p, v, s, modulus, perf_depth)
        self.p, self.v, self.s, self.modulus, self.perf_depth = self._key
        # the exponent scale p^perf_depth, kept on the instance so that series
        # operations read one attribute instead of forming the power
        self._scale = p**perf_depth

    # equal, and hashed, by value over (p, v, s, modulus, perf_depth)
    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "FieldConfig(p=%r, v=%r, s=%r, modulus=%r, perf_depth=%r)" % self._key

    @property
    def q(self):
        return self.p**self.v

    @cached_property
    def max_twist(self):
        """The largest k with q^k <= 2^MAX_TWIST_BITS."""
        q, bound = self.q, 2**MAX_TWIST_BITS
        k, power = 0, q
        while power <= bound:
            k, power = k + 1, power * q
        return k

    def check_twist(self, k, name):
        """Refuse |k| > max_twist, before q^k is formed."""
        if abs(k) > self.max_twist:
            raise ValidationError(
                f"|{name}| = {abs(k)} is out of range: q^|{name}| <= 2^{MAX_TWIST_BITS} "
                f"needs |{name}| <= {self.max_twist}"
            )

    @property
    def degree(self):
        return self.v * self.s

    @property
    def order(self):
        return self.p**self.degree

    # -- element constructors ------------------------------------------------

    def elem(self, value):
        """A FieldElem from itself, an integer of F_p or a coordinate sequence
        (constant coordinate first)."""
        if isinstance(value, FieldElem):
            if value.field is not self and value.field != self:
                raise ValidationError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElem(self, value % self.p)
        coords = [int(c) % self.p for c in value]
        if len(coords) != self.degree:
            raise ValidationError(
                f"expected {self.degree} coordinates, got {len(coords)}"
            )
        return FieldElem(self, sum(c * self.p**i for i, c in enumerate(coords)))

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def gen(self):
        if self.degree == 1:
            # g is the root of a degree-one modulus, i.e. a prime-field scalar
            return self.elem(-self.modulus[0])
        return FieldElem(self, self.p)

    def _codes(self):
        """Every element's code, ascending lexicographically in the coordinates."""
        steps = (range(0, self.p ** (i + 1), self.p**i) for i in range(self.degree))
        return map(sum, product(*steps))  # the constant coordinate slowest

    def elements(self):
        """All field elements, in the order of ``_codes()``."""
        return (FieldElem(self, code) for code in self._codes())

    @cached_property
    def _ops(self):
        return _code_ops(self)


def _reduction_rows(cfg):
    """Coordinates of g^k mod modulus for k = degree .. 2*degree-2."""
    n, p, mod = cfg.degree, cfg.p, cfg.modulus
    rows = [tuple(-c % p for c in mod[:n])]  # g^n
    for _ in range(n - 2):  # shift by g, then reduce the carry out of g^{n-1}
        top = rows[-1][-1]
        rows.append(tuple((c - top * m) % p for c, m in zip((0,) + rows[-1][:-1], mod)))
    return tuple(rows)


# arithmetic on codes: ``inv`` takes a nonzero code, and ``frob(k)`` is the
# map y -> y^{p^k}, or None for the identity
_CodeOps = namedtuple("_CodeOps", "add neg mul inv frob")
TABLE_ORDER = 2**16  # the largest field order with log/Zech tables


def _code_ops(cfg):
    """Residues mod p over a prime field, log/Zech tables up to TABLE_ORDER
    and slot-packed coordinates above."""
    p = cfg.p
    if cfg.degree == 1:
        return _CodeOps(
            operator.xor if p == 2 else lambda a, b: (a + b) % p,
            lambda a: -a % p,
            lambda a, b: a * b % p,
            lambda a: pow(a, p - 2, p),
            lambda k: None,
        )
    ops = _coordinate_ops(cfg)
    return ops if cfg.order > TABLE_ORDER else _table_ops(cfg, ops)


def _coordinate_ops(cfg):
    """Arithmetic on codes through their coordinates in w-bit slots of one
    int.  Two half-code tables (low and high base-p digits) give the slots
    of a code, a product is one int multiply, and its slots n .. 2n-2 fold
    back with the reduction rows before each slot is taken mod p."""
    p, n = cfg.p, cfg.degree
    w = ((2 * n - 1) * (p - 1) ** 2).bit_length()  # holds a slot until the final mod p
    slot, top, half, split = (1 << w) - 1, n * w, n // 2, p ** (n // 2)

    def halves(cols):
        """Half-code tables of the F_p-linear map sending g^i to the slots
        cols[i]: the image of c is low[c % split] + high[c // split]."""
        tables = [[0], [0]]
        for i, col in enumerate(cols):
            tables[i >= half] = [t + d * col for d in range(p) for t in tables[i >= half]]
        return tables

    low, high = halves([1 << (w * i) for i in range(n)])
    rows = [sum(c << (w * i) for i, c in enumerate(row)) for row in _reduction_rows(cfg)]

    def code(s):
        """The code of the slots s (at most 2n - 1 of them)."""
        carry, s, k = s >> top, s & ((1 << top) - 1), 0
        while carry:
            s += (carry & slot) % p * rows[k]
            carry, k = carry >> w, k + 1
        out = 0
        for i in range(top - w, -1, -w):
            out = out * p + (s >> i & slot) % p
        return out

    def mul(a, b):
        return code((low[a % split] + high[a // split]) * (low[b % split] + high[b // split]))

    frob = {}

    def frob_map(k):
        k %= n
        if k and k not in frob:
            cols = [_power(mul, p, i * p**k) for i in range(n)]  # (g^i)^{p^k}; g has code p
            f_low, f_high = halves([low[c % split] + high[c // split] for c in cols])
            frob[k] = lambda c: code(f_low[c % split] + f_high[c // split])
        return frob[k] if k else None

    if p == 2:
        add, neg = operator.xor, lambda a: a
    else:
        add = lambda a, b: code(low[a % split] + high[a // split] + low[b % split] + high[b // split])
        neg = lambda a: code((p - 1) * (low[a % split] + high[a // split]))
    return _CodeOps(add, neg, mul, _euclid_inverse(cfg), frob_map)


def _euclid_inverse(cfg):
    """The inverse of a nonzero code by the extended Euclidean algorithm
    over F_p[g]: from (r0, r1) = (modulus, a) and (s0, s1) = (0, 1), keep
    s_i * a = r_i modulo the modulus while r0 loses its leading term to a
    multiple of r1, and swap once r0 falls below r1, until r1 is a
    constant.  In characteristic 2 a code is its polynomial, one bit per
    coefficient, so a step is a shift and an XOR."""
    p, modulus = cfg.p, cfg.modulus
    if p == 2:
        mod = sum(c << i for i, c in enumerate(modulus))

        def inv2(a):
            r0, r1, s0, s1 = mod, a, 0, 1
            while r1 != 1:
                k = r0.bit_length() - r1.bit_length()
                if k < 0:
                    r0, r1, s0, s1, k = r1, r0, s1, s0, -k
                r0 ^= r1 << k
                s0 ^= s1 << k
            return s1

        return inv2

    def inv(a):
        r0, r1, s0, s1 = list(modulus), [], [], [1]  # coefficients, constant first
        while a:
            a, d = divmod(a, p)
            r1.append(d)
        while len(r1) > 1:
            lead_inv = pow(r1[-1], -1, p)
            while len(r0) >= len(r1):
                c, k = p - r0[-1] * lead_inv % p, len(r0) - len(r1)
                for i, x in enumerate(r1):
                    r0[k + i] = (r0[k + i] + c * x) % p
                s0 += [0] * (len(s1) + k - len(s0))
                for i, x in enumerate(s1):
                    s0[k + i] = (s0[k + i] + c * x) % p
                while r0 and not r0[-1]:
                    r0.pop()
            r0, r1, s0, s1 = r1, r0, s1, s0
        c, out = pow(r1[0], -1, p), 0  # s1 * a = r1[0]
        for x in reversed(s1):
            out = out * p + x * c % p
        return out

    return inv


def _table_ops(cfg, ops):
    """Log/antilog tables of a field up to TABLE_ORDER, built with the slot
    arithmetic ops."""
    p, n, order = cfg.p, cfg.degree, cfg.order
    # exp[k] = h^k for the primitive h of least code (h^{m/r} != 1 for each
    # prime r | m).  x -> x*h is F_p-linear: each power is the sum of the images
    # of the last one's low and high digits, an XOR in characteristic 2
    m, split = order - 1, p ** (n // 2)
    primes = [r for r in range(2, m + 1) if m % r == 0 and _is_prime(r)]
    h = next(h for h in range(2, order) if all(_power(ops.mul, h, m // r) != 1 for r in primes))
    low = [ops.mul(c, h) for c in range(split)]
    high = [ops.mul(c * split, h) for c in range(order // split)]
    # log[0] = 2m sends a product with zero, and a Zech sum that cancels,
    # into the zero tail of exp
    powers, log, x = [], [2 * m] * order, 1
    for k in range(m):
        powers.append(x)
        log[x] = k
        x = ops.add(low[x % split], high[x // split])
    exp = powers * 2 + [0] * (2 * m + 1)
    if p > 2:
        zech = [log[x + 1 if (x + 1) % p else x + 1 - p] for x in powers]  # log(1 + h^k)

        def add(a, b):
            if not a or not b:
                return a or b
            la = log[a]
            return exp[la + zech[log[b] - la]]

    frob = {}

    def frob_table(k):
        k %= n
        if k and k not in frob:
            frob[k] = [0] + [exp[log[c] * p**k % m] for c in range(1, order)]
        return frob[k].__getitem__ if k else None

    neg = [exp[l + (m // 2 if p > 2 else 0)] for l in log]  # -1 = h^{m/2} for odd p
    inv = [exp[m - l] for l in log]
    mul = lambda a, b: exp[log[a] + log[b]]
    return _CodeOps(operator.xor if p == 2 else add, neg.__getitem__, mul, inv.__getitem__, frob_table)


class FieldElem:
    """Element of F_{q^s}: a wrapped int code, whose arithmetic is the
    field's (``FieldConfig._ops``); ``coords`` reads its coordinates over
    F_p, constant coordinate first."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def coords(self):
        p = self.field.p
        return tuple(self.code // p**i % p for i in range(self.field.degree))

    def _check(self, other):
        if not isinstance(other, FieldElem) or (
            other.field is not self.field and other.field != self.field
        ):
            raise ValidationError("mixed-field arithmetic")

    def __add__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field._ops.add(self.code, other.code))

    def __neg__(self):
        return FieldElem(self.field, self.field._ops.neg(self.code))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field._ops.mul(self.code, other.code))

    def __pow__(self, e):
        base = self.inverse() if e < 0 else self
        return FieldElem(self.field, _power(self.field._ops.mul, base.code, abs(e)))

    def inverse(self):
        if not self.code:
            raise DivisionByZero("inverse of zero field element")
        return FieldElem(self.field, self.field._ops.inv(self.code))

    def pow_p(self, e):
        """y -> y^{p^e}; negative e applies the inverse Frobenius."""
        frob = self.field._ops.frob(e)
        return self if frob is None else FieldElem(self.field, frob(self.code))

    def is_zero(self):
        return not self.code

    def __bool__(self):
        return bool(self.code)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and (other.field is self.field or other.field == self.field)
            and other.code == self.code
        )

    def __hash__(self):
        return hash((self.field.p, self.field.modulus, self.code))

    def __repr__(self):
        return f"FieldElem{self.coords}"


# ---------------------------------------------------------------------------
# exponents in Z[1/p]


def den_exp(fr, p):
    """The e with denominator(fr) = p^e, or None when the denominator of the
    Fraction fr is not a power of p."""
    den = fr.denominator
    e = 0
    while den % p == 0:
        den //= p
        e += 1
    return e if den == 1 else None


def _scaled(field, exp):
    """The integer n with exp = n / p^perf_depth; raises when exp has no such
    form (its denominator is not a power of p, or exceeds the depth cap)."""
    exp = Fraction(exp)
    n, r = divmod(exp.numerator * field._scale, exp.denominator)
    if not r:
        return n
    e = den_exp(exp, field.p)
    if e is None:
        raise ValidationError(
            f"exponent denominator of {exp} is not a power of p = {field.p}"
        )
    raise PerfectionDepthExceeded(
        f"exponent {exp} needs perfection depth {e} > cap {field.perf_depth}"
    )


# ---------------------------------------------------------------------------
# perfected Laurent series


class PerfSeries:
    """Finite sum of monomials c*x^e, exponents in Z[1/p], plus precision.

    ``_terms`` is a list, never changed after construction, of (n, c) with
    n = e * p^perf_depth ascending, c the nonzero int code of a coefficient
    (wrapped in a ``FieldElem`` only by ``terms``, ``coeff`` and ``leading``)
    and n below ``_prec``; ``_prec`` is such an integer, or None for exact.
    """

    # _prec keeps None for exact: INF there cost 10-13% of riccati and recursion ops/s (int-float compares)
    __slots__ = ("field", "_terms", "_prec")

    def __init__(self, field, terms, prec=INF):
        scale = field._scale
        iprec = None if prec == INF else _scaled(field, prec)
        merged = {}
        off_grid = {}  # exponents not n / p^perf_depth: an error unless dropped
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, coeff in items:
            exp = Fraction(exp)
            n, r = divmod(exp.numerator * scale, exp.denominator)
            if iprec is not None and n >= iprec:
                continue
            code = field.elem(coeff).code
            bucket, key = (off_grid, exp) if r else (merged, n)
            if key in bucket:
                code = field._ops.add(bucket[key], code)
            bucket[key] = code
        bad = [exp for exp, code in off_grid.items() if code]
        if bad:
            _scaled(field, min(bad))  # raises
        self.field = field
        self._terms = _nonzero_sorted(merged)
        self._prec = iprec

    @classmethod
    def _make(cls, field, terms, prec):
        """A series from pairs (n, c) and a precision already in the stored
        form, skipping the checks of the constructor."""
        out = object.__new__(cls)
        out.field = field
        out._terms = terms
        out._prec = prec
        return out

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, prec=INF):
        return cls(field, (), prec)

    @classmethod
    def constant(cls, field, value):
        return cls(field, [(Fraction(0), field.elem(value))])

    @classmethod
    def one(cls, field):
        return cls.constant(field, 1)

    @classmethod
    def x_pow(cls, field, exp, coeff=1):
        return cls(field, [(Fraction(exp), field.elem(coeff))])

    # -- structure ------------------------------------------------------------

    @property
    def terms(self):
        """The (exponent, coefficient) pairs, exponents ascending as Fractions."""
        fld = self.field
        return tuple((Fraction(n, fld._scale), FieldElem(fld, c)) for n, c in self._terms)

    @property
    def prec(self):
        """The precision as a Fraction, or INF for an exact value."""
        return INF if self._prec is None else Fraction(self._prec, self.field._scale)

    def _check(self, other):
        if not isinstance(other, PerfSeries) or (
            other.field is not self.field and other.field != self.field
        ):
            raise ValidationError("mixed-field series arithmetic")

    def leading(self):
        if not self._terms:
            return None
        n, c = self._terms[0]
        return Fraction(n, self.field._scale), FieldElem(self.field, c)

    def valuation_lb(self):
        """Exact valuation if a term is known, else the precision bound."""
        if self._terms:
            return Fraction(self._terms[0][0], self.field._scale)
        return self.prec

    def is_zero(self):
        """Zero modulo the known precision."""
        return not self._terms

    def is_exact_zero(self):
        return not self._terms and self._prec is None

    def coeff(self, exp):
        exp = Fraction(exp)
        n, r = divmod(exp.numerator * self.field._scale, exp.denominator)
        c = 0 if r else dict(self._terms).get(n, 0)
        return FieldElem(self.field, c)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        pa, pb = self._prec, other._prec
        prec = pa if pb is None else pb if pa is None else min(pa, pb)
        add = self.field._ops.add
        acc = {}
        for terms in (self._terms, other._terms):
            for n, c in terms:
                if prec is not None and n >= prec:
                    break
                acc[n] = add(acc[n], c) if n in acc else c
        return PerfSeries._make(self.field, _nonzero_sorted(acc), prec)

    def __neg__(self):
        neg = self.field._ops.neg
        return PerfSeries._make(
            self.field, [(n, neg(c)) for n, c in self._terms], self._prec
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return twisted_sum(self.field, ((self, other, 0),))

    def shift_x(self, exp):
        """Multiply by the exact monomial x^exp."""
        exp = Fraction(exp)
        shift, r = divmod(exp.numerator * self.field._scale, exp.denominator)
        if r:
            # off the exponent grid: the constructor raises unless no
            # shifted exponent survives (the exact zero)
            return PerfSeries(
                self.field, [(e + exp, c) for e, c in self.terms], self.prec + exp
            )
        prec = None if self._prec is None else self._prec + shift
        return PerfSeries._make(
            self.field, [(n + shift, c) for n, c in self._terms], prec
        )

    def div(self, other, prec=INF):
        """The quotient self / other: the terms and precision of
        ``self * other.inv(prec)``, without forming the inverse (``_div``)."""
        if prec == INF:
            return self._div(other)
        fld, prec = other.field, Fraction(prec)
        n, r = divmod(prec.numerator * fld._scale, prec.denominator)
        w = other._terms[0][0] if other._terms else None
        if r and w is not None and n >= -w and (other._prec is None or n < other._prec - 2 * w):
            _scaled(fld, prec)  # an off-grid request that sets the limit and leaves digits: raises
        return self._div(other, n)

    def _div(self, other, limit=None, twist=None):
        """``div`` to a requested precision limit in the stored form (None
        for none).  Long division emits one digit per leading term of the
        remainder, so the cost is |quotient| * |other|: linear in the output
        for a binomial divisor.  Each digit d x^n makes one remainder update,
        fed by the divisor's tail times -d x^n and, with a ``twist`` beta, by
        beta d^q x^{qn}.  The twist makes it the w with other * w = self +
        beta w^q: its terms land past n when the first digit n_1 has
        (q - 1) n_1 > v(other) - v(beta), and w is known below prec(beta) +
        q n_1 - v(other)."""
        fld = other.field
        if not other._terms:
            if other._prec is None:
                raise DivisionByZero("division by the zero series")
            raise PrecisionExhausted(
                f"cannot divide by a series known only as O(x^{other.prec})"
            )
        w, c0 = other._terms[0]
        if other._prec is not None and (limit is None or other._prec - 2 * w < limit):
            limit = other._prec - 2 * w
        ops = fld._ops
        if limit is None:
            if len(other._terms) == 1 and twist is None:
                return self * PerfSeries._make(fld, [(-w, ops.inv(c0))], None)
            limit = int(DEFAULT_XPREC) * fld._scale - w
        if limit <= -w:
            raise PrecisionExhausted(
                "inverse would carry no known digits at the requested precision"
            )
        self._check(other)
        # __mul__'s rule against an inverse of valuation -w and precision
        # limit; with no known term, prec_a - w wins since limit > -w
        a, pa = self._terms, self._prec
        if not a:
            return PerfSeries._make(fld, [], None if pa is None else pa - w)
        qprec = limit + a[0][0]
        if pa is not None and pa - w < qprec:
            qprec = pa - w
        q, bt, frob = fld.q, (), None
        if twist is not None:
            self._check(twist)
            n1, bt = a[0][0] - w, twist._terms
            if bt and (q - 1) * n1 <= w - bt[0][0]:
                raise ValidationError("the twist does not contract: beta w^q would reach the current digit")
            if twist._prec is not None and twist._prec + q * n1 - w < qprec:
                qprec = twist._prec + q * n1 - w
            frob = ops.frob(fld.v)
        stop = qprec + w  # a remainder term from stop on gives no digit
        add, mul = ops.add, ops.mul
        c0_inv = ops.inv(c0)
        tail = [(n, ops.neg(c)) for n, c in other._terms[1:]]
        rem = {n: c for n, c in a if n < stop}
        heap = list(rem)  # ascending, so already a heap
        digits = []
        while heap:
            n = heappop(heap)
            c = rem.pop(n)
            if not c:
                continue
            d = mul(c, c0_inv)
            e = n - w
            digits.append((e, d))
            for base, x, terms in ((e, d, tail), (q * e, frob(d) if frob else d, bt)):
                for m, t in terms:
                    key = base + m
                    if key >= stop:
                        break  # terms ascend: the rest lands past the precision
                    if key in rem:
                        rem[key] = add(rem[key], mul(x, t))
                    else:
                        rem[key] = mul(x, t)
                        heappush(heap, key)
        return PerfSeries._make(fld, digits, qprec)

    def inv(self, prec=INF):
        """Multiplicative inverse, carrying precision prec_a - 2*val_a.

        Exact single monomials invert exactly.  Any other exact input has an
        infinite expansion, which is truncated at DEFAULT_XPREC relative to
        its valuation unless an explicit absolute ``prec`` is given.
        """
        fld = self.field
        return PerfSeries._make(fld, [(0, 1)], None).div(self, prec)

    def frobenius(self, e):
        """Raise to the q^e-th power (q-th roots for negative e)."""
        if e == 0:
            return self
        fld = self.field
        qe = fld.q ** abs(e)
        frob = fld._ops.frob(e * fld.v)
        terms = self._terms if frob is None else [(n, frob(c)) for n, c in self._terms]
        prec = self._prec
        if e > 0:
            return PerfSeries._make(fld, [(n * qe, c) for n, c in terms], None if prec is None else prec * qe)
        # a root stays on the grid exactly when q^-e divides every stored exponent
        for n in ([] if prec is None else [prec]) + [n for n, _ in terms]:
            if n % qe:
                _scaled(fld, Fraction(n, fld._scale * qe))  # raises
        return PerfSeries._make(fld, [(n // qe, c) for n, c in terms], None if prec is None else prec // qe)

    def truncate(self, prec):
        if prec == INF:
            return self
        prec = Fraction(prec)
        n, r = divmod(prec.numerator * self.field._scale, prec.denominator)
        if r and (self._prec is None or n < self._prec):
            _scaled(self.field, prec)  # off the grid below the precision: raises
        return self._truncate(n)

    def _truncate(self, n):
        """``truncate`` at a precision n in the stored form."""
        if self._prec is not None and n >= self._prec:
            return self
        return PerfSeries._make(self.field, [t for t in self._terms if t[0] < n], n)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, PerfSeries)
            and (other.field is self.field or other.field == self.field)
            and other._terms == self._terms
            and other._prec == self._prec
        )

    def __hash__(self):
        return hash((self.field.p, self.field.modulus, tuple(self._terms), self._prec))

    def __repr__(self):
        body = " + ".join(f"{c!r}*x^{e}" for e, c in self.terms) or "0"
        tail = "" if self._prec is None else f" + O(x^{self.prec})"
        return f"<PerfSeries {body}{tail}>"


def _nonzero_sorted(acc):
    """The items of acc (n -> c) with c nonzero, by ascending n."""
    return [(n, c) for n, c in sorted(acc.items()) if c]


def twisted_sum(field, triples):
    """The sum of a * b^{q^e} over the triples (a, b, e), as one series.

    Terms and precision equal those of adding ``a * b.frobenius(e)`` up left
    to right, from the exact zero.  The precision is the least of the
    products' (the multiplication rule on a and the twisted b), so it is
    known before any term is formed; every product then adds its terms
    below it into one accumulator, which is sorted once.  b is twisted on
    the fly: exponents times q^e and, on an extension field, ``ops.frob``
    on the codes.  A negative e (a root) goes through ``frobenius`` first,
    which reports an exponent that leaves the grid."""
    q, v = field.q, field.v
    prec = None  # None is exact until a product says otherwise
    top = 0  # past the last exponent of any exact product
    work = []  # (a terms, twisted b terms) of every product with terms
    for a, b, e in triples:
        if e < 0:
            b, e = b.frobenius(e), 0
        a._check(b)
        if a.field is not field and a.field != field:
            raise ValidationError("mixed-field series arithmetic")
        at, bt, pa, pb = a._terms, b._terms, a._prec, b._prec
        qe = q**e
        if pb is not None:
            pb *= qe
        # the product's precision min(prec_a + val_b, prec_b + val_a), where a
        # missing term means val = prec and None (exact) absorbs the sum
        left = None
        if pa is not None and (bt or pb is not None):
            left = pa + (bt[0][0] * qe if bt else pb)
        if pb is not None and (at or pa is not None):
            right = pb + (at[0][0] if at else pa)
            if left is None or right < left:
                left = right
        if left is not None and (prec is None or left < prec):
            prec = left
        if at and bt:
            frob = field._ops.frob(e * v) if e else None
            if frob is not None:
                bt = [(n * qe, frob(c)) for n, c in bt]
            elif qe != 1:
                bt = [(n * qe, c) for n, c in bt]
            work.append((at, bt))
            top = max(top, at[-1][0] + bt[-1][0] + 1)
    limit = top if prec is None else prec
    acc = {}
    if field.degree == 1:  # residues: sum the integer products, reduce once
        for at, bt in work:
            for ea, ca in at:
                stop = limit - ea
                for eb, cb in bt:
                    if eb >= stop:
                        break  # bt ascends: the rest of the row is past the precision
                    n = ea + eb
                    acc[n] = acc.get(n, 0) + ca * cb
        p = field.p
        terms = [(n, c % p) for n, c in sorted(acc.items()) if c % p]
        return PerfSeries._make(field, terms, prec)
    ops = field._ops
    add, mul = ops.add, ops.mul
    for at, bt in work:
        for ea, ca in at:
            stop = limit - ea
            for eb, cb in bt:
                if eb >= stop:
                    break
                n = ea + eb
                t = mul(ca, cb)
                acc[n] = add(acc[n], t) if n in acc else t
    return PerfSeries._make(field, _nonzero_sorted(acc), prec)

