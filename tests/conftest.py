import functools

import pytest

from transgress import LieType, build_root_system, weyl_group
from transgress.exactlin import Matrix, Vector, det, dims, transpose
from transgress.rootdata import positive_roots

# Every simple type at rank <= 8.
ALL_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@functools.lru_cache(maxsize=None)
def cached_root_system(name: str):
    return build_root_system(LieType(name[0], int(name[1:])))


@functools.lru_cache(maxsize=None)
def cached_weyl_group(name: str):
    return weyl_group(cached_root_system(name))


def generate_all_roots(
    cartan: Matrix, simple_roots: tuple[Vector, ...]
) -> frozenset[Vector]:
    """Closure of the simple roots under all simple reflections (BFS)."""
    n = len(cartan)

    def refl(v, i):
        return tuple(x - v[i] * a for x, a in zip(v, simple_roots[i]))

    roots = set(simple_roots)
    frontier = sorted(roots)
    while frontier:
        new = []
        for v in frontier:
            for i in range(n):
                w = refl(v, i)
                if w not in roots:
                    roots.add(w)
                    new.append(w)
        frontier = sorted(new)
    return frozenset(roots)


def positive_and_negative_roots(rs) -> frozenset[Vector]:
    """Phi = Phi+ u -Phi+, from the package's one root search."""
    positive = positive_roots(rs)
    return frozenset(positive) | {tuple(-x for x in v) for v in positive}


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def is_unimodular(m: Matrix) -> bool:
    r, c = dims(m)
    return r == c and abs(det(m)) == 1


def length_counts(group):
    """Coefficients of the length generating function sum q^l(w), read off
    the enumerated elements."""
    return tuple(len(group.by_length[l]) for l in range(group.top_length + 1))


def dense_rows(rows, width):
    """The sparse {column: value} rows of a d2 block as dense tuples, for a
    target cell of dimension width."""
    return tuple(tuple(row.get(j, 0) for j in range(width)) for row in rows)


@pytest.fixture(scope="session")
def root_system():
    return cached_root_system


@pytest.fixture(scope="session")
def weyl():
    return cached_weyl_group
