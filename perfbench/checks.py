"""Answer checks for the benchmark, written independently of gerbelab.

Everything here works from the definitions: closed-form integer cohomology
tables combined by the Kuenneth formula, universal coefficients, the twisted
coboundary (negation involution, leading face transported along the first
edge), and validators for primitives and non-triviality certificates.  The
workloads use gerbelab only to build nerves; the numbers they are checked
against come from this module.

A check returns ``None`` when the answer is right and a one-line reason when
it is wrong.
"""

from math import gcd, isfinite

# ---------------------------------------------------------------------------
# finitely generated abelian groups as (free rank, invariant factors)


def invariant_factors(orders):
    """Invariant factors d1 | d2 | ... of a direct sum of cyclic groups."""
    powers = {}
    for n in orders:
        n, p = int(n), 2
        while n > 1:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n, q = n // p, q * p
                powers.setdefault(p, []).append(q)
            p += 1
    count = max((len(v) for v in powers.values()), default=0)
    factors = [1] * count
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return tuple(sorted(f for f in factors if f > 1))


def group(free=0, *torsion):
    return (free, invariant_factors(torsion))


ZERO = group()
Z = group(1)
Z2 = group(0, 2)


def direct_sum(*groups):
    return (sum(g[0] for g in groups),
            invariant_factors([t for g in groups for t in g[1]]))


def tensor(a, b):
    torsion = [t for t in a[1] for _ in range(b[0])]
    torsion += [t for t in b[1] for _ in range(a[0])]
    torsion += [gcd(s, t) for s in a[1] for t in b[1]]
    return (a[0] * b[0], invariant_factors(torsion))


def tor(a, b):
    return (0, invariant_factors([gcd(s, t) for s in a[1] for t in b[1]]))


TOP = 4  # degrees 0..4, the nerve dimension cap


def table(*groups):
    """Integer cohomology H^0..H^4, zero past the listed degrees."""
    return tuple(groups) + (ZERO,) * (TOP + 1 - len(groups))


def kunneth(hx, hy):
    """H^n(X x Y) = sum_{p+q=n} H^p(X) (x) H^q(Y)
                   + sum_{p+q=n+1} Tor(H^p(X), H^q(Y))."""
    out = []
    for n in range(TOP + 1):
        parts = [tensor(hx[p], hy[n - p]) for p in range(n + 1)]
        parts += [tor(hx[p], hy[n + 1 - p]) for p in range(n + 2)
                  if p <= TOP and n + 1 - p <= TOP]
        out.append(direct_sum(*parts))
    return tuple(out)


# Integer cohomology of the named spaces.  A "~" marks the rank-one local
# system twisted by the orientation character (negation involution).
CIRCLE = table(Z, Z)
MOBIUS = table(ZERO, Z2)
RP2 = table(Z, ZERO, Z2)
RP2_TWISTED = table(ZERO, Z2, Z)
S2 = table(Z, ZERO, Z)
S4 = table(Z, ZERO, ZERO, ZERO, Z)
S2_X_S1 = kunneth(S2, CIRCLE)
RP2_X_S1 = kunneth(RP2, CIRCLE)
RP2_X_S1_TWISTED = kunneth(RP2_TWISTED, CIRCLE)


def euler(tab):
    return sum((-1) ** k * g[0] for k, g in enumerate(tab))


def expected_group(tab, k, ring):
    """(free rank, invariant factors) as gerbelab reports H^k over a ring.

    ``ring`` is "Z", "Z/n" or "R".  Universal coefficients for a complex of
    free abelian groups: H^k(C; A) = H^k(C) (x) A + Tor(H^{k+1}(C), A).
    """
    if ring == "Z":
        return tab[k]
    nxt = tab[k + 1] if k < TOP else ZERO
    if ring == "R":
        return (tab[k][0], ())
    n = int(ring.split("/")[1])
    cyc = (0, (n,))
    return (0, direct_sum(tensor(tab[k], cyc), tor(nxt, cyc))[1])


def uct_table(answers_z, ring):
    """Predict the answers over ``ring`` from a list of H^k(Z) answers."""
    tab = tuple((f, invariant_factors(t)) for f, t in answers_z)
    tab += (ZERO,) * (TOP + 1 - len(tab))
    return [expected_group(tab, k, ring) for k in range(len(answers_z))]


# ---------------------------------------------------------------------------
# cochains on a nerve, from the definition


def delta_rows(nerve, eps, k):
    """Twisted coboundary d_k as one {column: entry} dict per (k+1)-simplex.

    ``eps`` maps ascending edges to -1 (absent edges are +1); the leading
    face is multiplied by the sign of the first edge, face r by (-1)^r.
    """
    index = {s: i for i, s in enumerate(nerve.simplices[k])}
    rows = []
    for s in (nerve.simplices[k + 1] if k + 1 <= TOP else ()):
        row = {}
        for r in range(len(s)):
            coef = eps.get((s[0], s[1]), 1) if r == 0 else (-1) ** r
            j = index[s[:r] + s[r + 1:]]
            row[j] = row.get(j, 0) + coef
        rows.append({j: c for j, c in row.items() if c})
    return rows


def apply(rows, values):
    return [sum(c * values[j] for j, c in row.items()) for row in rows]


def density(rows, ncols):
    cells = len(rows) * ncols
    return sum(len(r) for r in rows) / cells if cells else 0.0


def sign_twist(nerve, mod2_values):
    """Edge signs (-1)^c of a mod-2 edge cochain."""
    return {e: -1 for e, v in zip(nerve.simplices[1], mod2_values) if v % 2}


def pull_back_edges(product, factor_vertices, edge_value, which=0):
    """Pull edge data back along a projection of ``ordered_product``.

    Product vertex x projects to x // m (first factor) or x % m (second),
    with m the second factor's vertex count.  ``edge_value`` maps factor
    edges to values; degenerate edges get nothing.
    """
    def proj(x):
        return x // factor_vertices if which == 0 else x % factor_vertices
    out = {}
    for a, b in product.simplices[1]:
        e = (proj(a), proj(b))
        if e[0] != e[1] and e in edge_value:
            out[(a, b)] = edge_value[e]
    return out


def gauge(eps, nerve, rng):
    """A cohomologous twist: eps'_ij = s_i eps_ij s_j for random signs s."""
    s = [1 if rng.integers(2) else -1 for _ in range(nerve.vertex_count)]
    out = {}
    for i, j in nerve.simplices[1]:
        v = s[i] * eps.get((i, j), 1) * s[j]
        if v == -1:
            out[(i, j)] = -1
    return out


# ---------------------------------------------------------------------------
# validators


def residue_ok(kind, modulus, value, tol):
    """Is ``value`` zero in the coefficient group?"""
    if kind == "Z":
        return value == 0
    if kind == "Z/n":
        return value % modulus == 0
    if kind == "R":
        return abs(value) <= tol
    return abs(value - round(value)) <= tol  # R/Z


def primitive_error(rows, primitive, target, kind, modulus=None, tol=1e-7):
    """Check d(primitive) = target in the coefficient group."""
    if primitive is None:
        return "trivial answer without a primitive"
    got = apply(rows, list(primitive))
    if len(got) != len(target):
        return "primitive has the wrong degree"
    scale = max([1.0] + [abs(float(v)) for v in target])
    for i, (g, t) in enumerate(zip(got, target)):
        if not residue_ok(kind, modulus, g - t, tol * scale):
            return f"d(primitive) differs from the cocycle at coordinate {i}"
    return None


def certificate_error(rows, ncols, functional, modulus, cocycle, n=None,
                      exact=True, tol=1e-8):
    """A functional on k-cochains must kill every column of d_{k-1} and
    pair non-zero with the cocycle, modulo ``modulus`` (0: exactly).

    For Z/n coefficients (``n`` given) it must also kill n times every
    coordinate, since the module is a quotient of Z.
    """
    f = list(functional)
    if len(f) != len(rows):
        return "certificate functional has the wrong length"
    cols = [0] * ncols
    for fi, row in zip(f, rows):
        if fi:
            for j, c in row.items():
                cols[j] += fi * c
    pairing = sum(fi * v for fi, v in zip(f, cocycle))
    if exact:
        m = int(modulus)
        if any((c % m if m else c) for c in cols):
            return "certificate functional does not kill the coboundaries"
        if n is not None and m and any((n * fi) % m for fi in f):
            return "certificate functional does not kill n Z"
        if (pairing % m if m else pairing) == 0:
            return "certificate pairs to zero with the cocycle"
        return None
    norm = max([1.0] + [abs(x) for x in f])
    if any(abs(c) > tol * norm * max(1, len(rows)) for c in cols):
        return "real certificate does not kill the coboundaries"
    if abs(pairing) <= tol * norm:
        return "real certificate pairs to zero with the cocycle"
    return None


def within(value, bound, what):
    if not isfinite(value) or value > bound:
        return f"{what} {value:.3e} exceeds {bound:.3e}"
    return None
