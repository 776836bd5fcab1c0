"""Reference computations the benchmark checks polychain's outputs against.

Nothing here imports polychain.  A chain is a plain dict mapping a
lexicographically sorted vertex tuple (tuples of Fractions) to a Fraction
coefficient, the same canonical form the program documents, so outputs can
be compared term by term.  Boundaries come from vertex tuples with
alternating signs, volumes from the exact Gram determinant evaluated at 50
digits, and flat norms from a linear program assembled here from vertex
lists and solved by HiGHS through scipy.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

import mpmath
import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, hstack

mpmath.mp.dps = 50
# Relative slack for comparisons the program claims are exact: far below any
# real discrepancy, far above the rounding of 50-digit arithmetic.
EXACT_TOL = mpmath.mpf("1e-40")
# Absolute slack between float LP values (the CLI's default route tolerance).
LP_TOL = 1e-7


# -- canonical chains -----------------------------------------------------


def _sign(perm):
    """Sign of a permutation of 0..n-1, from its inversions."""
    return -1 if sum(1 for a, b in combinations(perm, 2) if a > b) % 2 else 1


def canon(vertices):
    """Sorted vertex tuple and the parity of the sort; parity 0 on repeats."""
    verts = tuple(vertices)
    if all(a < b for a, b in zip(verts, verts[1:])):
        return verts, 1
    if len(set(verts)) != len(verts):
        return None, 0
    order = sorted(range(len(verts)), key=lambda i: verts[i])
    return tuple(verts[i] for i in order), _sign(order)


def _accumulate(out, key, coeff, modulus=None):
    c = out.get(key, 0) + coeff
    if modulus is not None:
        c %= modulus
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def chain_from_items(items):
    """Canonical chain from (vertices, coefficient) pairs, summing repeats.

    Vertices are tuples of Fractions."""
    out = {}
    for vertices, coeff in items:
        key, sign = canon(vertices)
        if sign:
            _accumulate(out, key, sign * Fraction(coeff))
    return out


def add(a, b, scale=1):
    """a + scale * b."""
    out = dict(a)
    for s, c in b.items():
        _accumulate(out, s, scale * c)
    return out


def boundary(chain, modulus=None):
    """Codimension-one faces with signs (-1)^i, summed; faces of a sorted
    vertex tuple stay sorted."""
    out = {}
    for verts, coeff in chain.items():
        for i in range(len(verts)):
            _accumulate(out, verts[:i] + verts[i + 1:], -coeff if i % 2 else coeff, modulus)
    return out


def mod1(chain):
    """Coefficient-wise projection R -> R/Z, zero terms dropped."""
    return {s: c % 1 for s, c in chain.items() if c % 1}


def read_chain_file(path):
    """A chain file read with json and Fraction alone."""
    with open(path) as fp:
        return document_chain(json.load(fp))


def document_chain(doc):
    """The chain of a chain-file document."""
    return chain_from_items(
        (tuple(tuple(Fraction(x) for x in v) for v in entry["vertices"]), entry["coeff"])
        for entry in doc["simplices"])


# -- volumes and masses -----------------------------------------------------


def mpf(q):
    """A rational at 50 digits."""
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(_sign(perm))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@lru_cache(maxsize=1 << 16)
def volume(vertices):
    """k-volume sqrt(det Gram) / k! as a 50-digit number."""
    v0 = vertices[0]
    edges = [[a - b for a, b in zip(v, v0)] for v in vertices[1:]]
    if not edges:
        return mpmath.mpf(1)
    gram = _det([[sum(x * y for x, y in zip(e1, e2)) for e2 in edges] for e1 in edges])
    return mpmath.sqrt(mpf(gram)) / factorial(len(edges))


def real_norm(c):
    return abs(c)


def circle_norm(c):
    c %= 1
    return min(c, 1 - c)


def mass(chain, norm=real_norm):
    total = mpmath.mpf(0)
    for s, c in chain.items():
        n = norm(c)
        if n:
            total += volume(s) * mpf(n)
    return total


def radical_value(terms):
    """sum c * sqrt(m) from a {m: c} map, at 50 digits."""
    return sum((mpf(c) * mpmath.sqrt(m) for m, c in terms.items()), mpmath.mpf(0))


def parse_radical(text):
    """The report's closed form, "p/q*sqrt(m) + p/q", as a {m: c} map."""
    terms = {}
    if text.strip() == "0":
        return terms
    for part in text.split(" + "):
        coeff, _, rad = part.partition("*sqrt(")
        terms[int(rad.rstrip(")")) if rad else 1] = Fraction(coeff)
    return terms


def close(a, b):
    return abs(a - b) <= EXACT_TOL * max(1, abs(a), abs(b))


def at_most(a, b):
    """a <= b up to 50-digit rounding."""
    return a <= b + EXACT_TOL * max(1, abs(a), abs(b))


# -- Kuhn grids -------------------------------------------------------------


@lru_cache(maxsize=None)
def kuhn_tops(d, n):
    """(cell, sorted vertices, orientation) of every top of the n^d Kuhn grid.

    A top simplex is the monotone path from a cell corner that steps along
    the axes in one order; its orientation is the sign of its edge determinant.
    """
    h = Fraction(1, n)
    out = []
    for cube in product(range(n), repeat=d):
        corner = tuple(h * c for c in cube)
        for perm in permutations(range(d)):
            path = [corner]
            for axis in perm:
                path.append(tuple(x + h if i == axis else x for i, x in enumerate(path[-1])))
            edges = [[a - b for a, b in zip(v, path[0])] for v in path[1:]]
            orient = 1 if _det(edges) > 0 else -1
            verts, sign = canon(path)
            out.append((cube, verts, orient * sign))
    return out


@lru_cache(maxsize=None)
def kuhn_simplices(d, n, k):
    """Sorted k-simplices of the Kuhn grid: every vertex subset of a top."""
    faces = set()
    for _, verts, _ in kuhn_tops(d, n):
        faces.update(combinations(verts, k + 1))
    return tuple(sorted(faces))


@lru_cache(maxsize=None)
def _flat_program(d, n, k):
    rs = kuhn_simplices(d, n, k)
    qs = kuhn_simplices(d, n, k + 1) if k < d else ()
    index = {s: i for i, s in enumerate(rs)}
    rows, cols, vals = [], [], []
    for j, q in enumerate(qs):
        for face, sign in boundary({q: Fraction(1)}).items():
            rows.append(index[face])
            cols.append(j)
            vals.append(float(sign))
    nr, nq = len(rs), len(qs)
    incidence = csr_matrix((vals, (rows, cols)), shape=(nr, nq))
    eye = csr_matrix((np.ones(nr), (range(nr), range(nr))), shape=(nr, nr))
    a = hstack([eye, -eye, incidence, -incidence]).tocsr()
    vol_r = [float(volume(s)) for s in rs]
    vol_q = [float(volume(s)) for s in qs]
    cost = np.array(vol_r + vol_r + vol_q + vol_q)
    return index, a, cost


def flat_norm_lp(chain, d, n):
    """min mass(R) + mass(Q) over P = R + boundary(Q) on the Kuhn grid."""
    if not chain:
        return 0.0
    k = len(next(iter(chain))) - 1
    index, a, cost = _flat_program(d, n, k)
    p = np.zeros(len(index))
    for s, c in chain.items():
        if s not in index:
            raise ValueError("chain term off the %d^%d grid: %r" % (n, d, s))
        p[index[s]] = float(c)
    res = linprog(cost, A_eq=a, b_eq=p, bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError("reference LP failed: %s" % res.message)
    return float(res.fun)


def on_grid(chain, d, n):
    if not chain:
        return True
    k = len(next(iter(chain))) - 1
    table = set(kuhn_simplices(d, n, k))
    return all(s in table for s in chain)


# -- grid functions ----------------------------------------------------------


def grid_function_chain(values, d, n):
    """The function as a top chain: each cell's value on its oriented tops."""
    items = []
    for cube, verts, orient in kuhn_tops(d, n):
        v = values[_cell(cube, n)]
        if v:
            items.append((verts, orient * v))
    return chain_from_items(items)


def _cell(cube, n):
    idx = 0
    for c in cube:
        idx = idx * n + c
    return idx


def total_variation(values, d, n):
    """Sum over cell facets of |jump| * n^(1-d), zero outside the box."""
    jumps = Fraction(0)
    for cube in product(range(n), repeat=d):
        u = values[_cell(cube, n)]
        for axis in range(d):
            if cube[axis] == 0:
                jumps += abs(u)
            up = list(cube)
            up[axis] += 1
            jumps += abs(u - (values[_cell(up, n)] if up[axis] < n else 0))
    return jumps / Fraction(n) ** (d - 1)


# -- shrink homotopy ---------------------------------------------------------


def homothety(chain, center, ratio):
    return chain_from_items(
        [([tuple(c + ratio * (x - c) for x, c in zip(v, center)) for v in s], coeff)
         for s, coeff in chain.items()])


def shrink_bound(chain, ratio, d):
    """2(1 - ratio) * sqrt(d) * (mass + boundary mass) in the unit box."""
    m = mass(chain) + mass(boundary(chain))
    return 2 * (1 - mpf(ratio)) * mpmath.sqrt(d) * m


def refine_segments(chain, n):
    """A 1-chain of grid-direction segments cut at the lines of the n-grid."""
    items = []
    for (a, b), c in chain.items():
        pieces = max(abs(y - x) for x, y in zip(a, b)) * n
        if pieces.denominator != 1:
            raise ValueError("segment does not end on the %d-grid" % n)
        step = [(y - x) / pieces for x, y in zip(a, b)]
        for j in range(int(pieces)):
            items.append(([tuple(x + j * s for x, s in zip(a, step)),
                           tuple(x + (j + 1) * s for x, s in zip(a, step))], c))
    return chain_from_items(items)
