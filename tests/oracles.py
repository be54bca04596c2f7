"""Test oracles: the coefficients and the concrete representation of the
Cuntz word algebra, the dense layout of the Cuntz pair and its dump, the
exact dyadic entries of the corrector's first iterate, the dense fill of
a sparse product, and random Parseval semi-inner-product pairs.

The package itself needs none of these; the tests check its word algebra,
its written pair, its certified first bounds, its exact products and its
sip identities against them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from framekit.cli import dump_word_element
from framekit.cuntz import _GEN, CuntzElement, _letters
from framekit.linops import _form, herm, inverse, is_invertible
from framekit.sip import SipPair, sip_functional


def coeff(e: CuntzElement, left) -> complex:
    """The coefficient of the unstarred word left in e."""
    return e.table.get((_letters(left), ()), 0j)


# --- concrete interleaving representation ---------------------------------
#
# u e_k = e_{2k}, v e_k = e_{2k+1}; here uu* + vv* = 1 holds, so equality
# is decided by applying both sides to basis vectors.


def _word_apply(w: tuple, s: tuple, k: int) -> Optional[int]:
    # right* strips low bits (u: 0, v: 1), then left appends bits, first letter lowest
    for c in s:
        if c not in _GEN:
            raise ValueError(f"no concrete action for symbol {c!r}")
        bit = 0 if c == "u" else 1
        if k % 2 != bit:
            return None
        k //= 2
    for c in reversed(w):
        if c not in _GEN:
            raise ValueError(f"no concrete action for symbol {c!r}")
        k = 2 * k + (0 if c == "u" else 1)
    return k


def concrete_apply(e: CuntzElement, x) -> dict:
    """Apply e in the interleaving representation to a finitely supported
    vector (dict index -> value, or a sequence read as e_0, e_1, ...)."""
    if not isinstance(x, dict):
        x = {i: complex(val) for i, val in enumerate(x) if complex(val) != 0}
    out: dict = {}
    for (w, s), c in e.table.items():
        for k, val in x.items():
            img = _word_apply(w, s, int(k))
            if img is not None:
                out[img] = out.get(img, 0j) + c * val
    return {k: v for k, v in out.items() if v != 0}


def concrete_equal(x: CuntzElement, y: CuntzElement, count: int = 16,
                   tol: float = 1e-12) -> bool:
    """Equality in the concrete representation, probed on e_0..e_{count-1}."""
    for k in range(count):
        a = concrete_apply(x, {k: 1.0})
        b = concrete_apply(y, {k: 1.0})
        for idx in set(a) | set(b):
            if abs(a.get(idx, 0j) - b.get(idx, 0j)) > tol:
                return False
    return True


# --- the Cuntz pair laid out dense ------------------------------------------


def dense_pair(n: int, mu, delta, b, u, v, one):
    """D_mu, X_mu as dense object matrices, cell by cell, with the ring's
    empty element in every other cell: the layout that cuntz._pair keeps
    as rows of its nonzero cells."""
    D = np.full((n, n), type(one)(), dtype=object)
    X = np.full((n, n), type(one)(), dtype=object)
    for r in range(n):
        i = r + 1
        D[r, r] = (1 / (mu * delta)) * v
        if r + 1 < n:
            X[r + 1, r] = one
            D[r + 1, r] = (1 / (mu * mu * delta)) * u
            D[r, r + 1] = i * one
        D[r, n - 1] = D[r, n - 1] + mu ** (n - i - 1) * (b[r] * u)
        X[r, n - 1] = X[r, n - 1] + (mu ** (n - i + 1) * delta) * b[r]
    return D, X


def dense_word_matrix(M) -> dict:
    """The report entry of a dense matrix of word elements, cell by cell."""
    n = M.shape[0]
    return {"n": n, "entries": [[dump_word_element(M[i, j]) for j in range(n)]
                                for i in range(n)]}


def sparse_product(A, B):
    """A @ B of object arrays, taken in the sparse form and filled out with
    the zero of B's entries, ``type(B.flat[0])()``."""
    return (_form(A) @ _form(B)).dense(type(B.flat[0])())


# --- dyadic entries of the first corrector iterate ------------------------
#
# z = (1-E)^{-1} a with a_i = n·1 at i = n only; in the concrete
# representation each entry of z satisfies a terminating recursion driven
# by the parity pattern of its index pair.


@lru_cache(maxsize=None)
def _z_entry(n: int, i: int, p: int, q: int) -> Fraction:
    if not 2 <= i <= n:
        return Fraction(0)
    y = Fraction(n) if (i == n and p == q) else Fraction(0)
    if p == 0 and q == 0:
        return 2 * y
    if p % 2 == 1 and q % 2 == 0:
        i2 = i + 1
    elif p % 2 == 0 and q % 2 == 1:
        i2 = i - 1
    else:
        i2 = i
    return y + Fraction(1, 2) * _z_entry(n, i2, p >> 1, q >> 1)


def kernel_entry(n: int, i: int, p: int, q: int) -> Fraction:
    """Exact concrete entry <e_p, z_i e_q> of z = (1-E)^{-1} a."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if p < 0 or q < 0:
        raise ValueError("indices must be nonnegative")
    return _z_entry(n, i, p, q)


def first_iterate_entry(n: int, i: int, p: int, q: int) -> Fraction:
    """Exact concrete entry of the first iterate b0 = L z, 1 <= i <= n."""
    if not 1 <= i <= n:
        return Fraction(0)
    if q % 2 == 1:
        return -Fraction(1, 2) * kernel_entry(n, i, p, (q - 1) // 2)
    return -Fraction(1, 2) * kernel_entry(n, i + 1, p, q // 2)


# --- Parseval semi-inner-product pairs -------------------------------------


def make_parseval(p: float, d: int, m: int, seed: int = 0) -> SipPair:
    """Random omega_n with tau_n solved so the frame operator is exactly
    the identity (left inverse of the duality-map matrix)."""
    if m < d:
        raise ValueError("need m >= d vectors to reconstruct")
    rng = np.random.default_rng(seed)
    while True:
        Omega = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        W = np.vstack([sip_functional(Omega[:, n], p) for n in range(m)])
        if is_invertible(herm(W) @ W):
            break
    Tau = inverse(herm(W) @ W) @ herm(W)
    return SipPair(p, Omega, Tau)
