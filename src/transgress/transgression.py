"""The transgression H^1(T) -> H^2(G/T) of the fibration G -> G/T.

With respect to the circle basis t_1..t_n of H^1(T) (dual to the chosen
unit-lattice basis) and the degree-2 Schubert basis omega_1..omega_n of
H^2(G/T), the transgression is one integer matrix: transgression_matrix
returns the transpose of the transition matrix from the lattices module, and
row i gives tau(t_i) in the omega basis.  modp_analysis returns the pair
(kernel, cokernel) of tau mod p.  The determinant is (up to sign) the order
of the fundamental group, so the map mod p is an isomorphism, both tuples
empty, exactly when p does not divide that order; singular_primes lists the
primes where it is not.
"""

from __future__ import annotations

from . import exactlin, lattices
from .exactlin import Matrix, Vector, transpose
from .lattices import GroupSpec


def transgression_matrix(g: GroupSpec) -> Matrix:
    """tau = C^T: entry (i, j) is the coefficient of omega_j in tau(t_i)."""
    return transpose(lattices.transition_matrix(g))


def modp_analysis(g: GroupSpec, p: int) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """(kernel, cokernel) of tau mod p: the reduced-echelon basis of the kernel
    in the t basis, and coset representatives of the cokernel in the omega
    basis.  A combination c of the t_i dies iff c @ tau = 0, i.e. tau^T c =
    0, and the cokernel is the omega side modulo the row space of tau."""
    return exactlin.modp_kernel_cokernel(transpose(transgression_matrix(g)), p)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def singular_primes(g: GroupSpec) -> list[int]:
    """Primes p at which the transgression mod p fails to be an isomorphism.

    These are the primes of |pi1|, read off g.pi1_order with no tau: |det tau|
    = |pi1| (the det law), and transition_matrix checks that equality on each
    tau it builds.  Nonempty output for any group with nontrivial fundamental
    group; this is the counterexample set to the claim that the mod-p
    transgression is always invertible.
    """
    return _prime_factors(g.pi1_order)


def format_combination(coeffs: Vector, symbol: str) -> str:
    """Render e.g. (1, 0, -1) as 't_1-t_3' for human-readable tables."""
    parts = []
    for i, c in enumerate(coeffs, start=1):
        if not c:
            continue
        term = f"{symbol}_{i}" if abs(c) == 1 else f"{abs(c)}*{symbol}_{i}"
        parts.append(("-" if c < 0 else "+" if parts else "") + term)
    return "".join(parts) if parts else "0"
