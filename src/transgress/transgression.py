"""The transgression H^1(T) -> H^2(G/T) of the fibration G -> G/T.

With respect to the circle basis t_1..t_n of H^1(T) (dual to the chosen
unit-lattice basis) and the degree-2 Schubert basis omega_1..omega_n of
H^2(G/T), the transgression matrix is the transpose of the transition
matrix from the lattices module.  Row i gives tau(t_i) in the omega basis.
Its determinant is (up to sign) the order of the fundamental group, so the
map mod p is an isomorphism exactly when p does not divide that order.
"""

from __future__ import annotations

from typing import NamedTuple

from . import exactlin, lattices
from .exactlin import Matrix, Vector, transpose
from .lattices import GroupSpec


class TransgressionMap(NamedTuple):
    group: GroupSpec
    matrix: Matrix  # entry (i, j): coefficient of omega_j in tau(t_i)
    domain_labels: tuple[str, ...]
    codomain_labels: tuple[str, ...]


def transgression_matrix(g: GroupSpec) -> TransgressionMap:
    c = lattices.transition_matrix(g)
    n = g.rank
    return TransgressionMap(
        group=g,
        matrix=transpose(c),
        domain_labels=tuple(f"t_{i}" for i in range(1, n + 1)),
        codomain_labels=tuple(f"omega_{j}" for j in range(1, n + 1)),
    )


class ModPAnalysis(NamedTuple):
    p: int
    matrix: Matrix
    kernel: tuple[Vector, ...]  # reduced-echelon basis in the t basis
    cokernel: tuple[Vector, ...]  # coset representatives in the omega basis
    is_isomorphism: bool

    def kernel_contains(self, coeffs: Vector) -> bool:
        """Is the combination sum coeffs[i] * t_{i+1} in the kernel?"""
        if len(coeffs) != len(self.matrix):
            raise ValueError("vector has wrong dimension")
        return exactlin.rank(self.kernel + (coeffs,), self.p) == len(self.kernel)

    def cokernel_class_is_nonzero(self, coeffs: Vector) -> bool:
        """Is the class of sum coeffs[j] * omega_{j+1} nonzero in the cokernel?"""
        if len(coeffs) != len(self.matrix):
            raise ValueError("vector has wrong dimension")
        rows = self.matrix + (tuple(coeffs),)
        return exactlin.rank(rows, self.p) > exactlin.rank(self.matrix, self.p)


def modp_analysis(g: GroupSpec, p: int) -> ModPAnalysis:
    tau = transgression_matrix(g)
    m = tau.matrix
    # A combination c of the t_i dies iff c @ m = 0, i.e. m^T c = 0; the
    # cokernel lives in the omega side modulo the row space of m.
    kernel, cokernel = exactlin.modp_kernel_cokernel(transpose(m), p)
    return ModPAnalysis(
        p=p,
        matrix=m,
        kernel=kernel,
        cokernel=cokernel,
        is_isomorphism=not kernel and not cokernel,
    )


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
