"""Loop oracle for the tensors and scalars of a left-invariant Norden model.

Plain nested loops over frame indices that share no code with `norden`:
the Koszul connection, nabla J, the torsion potential Q, the curvature of
nabla' = nabla + Q, the tensors P and H, the square norm of nabla J and the
plain and associated scalar curvatures.  The arithmetic is that of the
entries, so `fractions.Fraction` input gives exact values and float input a
float oracle.  Zero factors are skipped, which keeps sparse integer brackets
cheap.

Conventions (README): [e_i, e_j] = C[k][i][j] e_k, column j of J is J e_j,
nabla_{e_i} e_j = G[k][i][j] e_k and (nabla_{e_i} J) e_j = N[k][i][j] e_k.
"""

import itertools
from fractions import Fraction


def to_fractions(arr):
    """Nested lists holding the exact values of a float array as Fractions."""
    if isinstance(arr, list):
        return [to_fractions(x) for x in arr]
    return Fraction(arr)


def _nonzero(matrix):
    return [(i, j, x) for i, row in enumerate(matrix) for j, x in enumerate(row) if x]


def inverse(g):
    """Gauss-Jordan inverse of a square matrix."""
    d = len(g)
    a = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(g)]
    for c in range(d):
        p = next(r for r in range(c, d) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(d):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[d:] for row in a]


def loop_koszul(C, g, g_inv):
    """Levi-Civita coefficients G[k][i][j] from the Koszul formula
    2 g(nabla_i e_j, e_k) = g([e_i,e_j],e_k) + g([e_k,e_i],e_j) + g([e_k,e_j],e_i)."""
    d = len(g)
    low = [[[0] * d for _ in range(d)] for _ in range(d)]
    for m, a, b in itertools.product(range(d), repeat=3):
        c = C[m][a][b]
        if not c:
            continue
        for n in range(d):
            if g[m][n]:
                cg = c * g[m][n] / 2
                low[a][b][n] += cg  # g([e_a,e_b], e_n)
                low[b][n][a] += cg  # g([e_k,e_i], e_j) with k=a, i=b, j=n
                low[n][b][a] += cg  # g([e_k,e_j], e_i) with k=a, j=b, i=n
    G = [[[0] * d for _ in range(d)] for _ in range(d)]
    for k, m, x in _nonzero(g_inv):
        for i, j in itertools.product(range(d), repeat=2):
            if low[i][j][m]:
                G[k][i][j] += x * low[i][j][m]
    return G


def loop_nabla_J(G, J):
    """(nabla_i J) e_j = nabla_i (J e_j) - J (nabla_i e_j)."""
    d = len(J)
    Jnz = _nonzero(J)
    N = [[[0] * d for _ in range(d)] for _ in range(d)]
    for m, j, x in Jnz:
        for k, i in itertools.product(range(d), repeat=2):
            N[k][i][j] += G[k][i][m] * x
    for k, m, x in Jnz:
        for i, j in itertools.product(range(d), repeat=2):
            N[k][i][j] -= x * G[m][i][j]
    return N


def loop_covariant_derivative(G, t, rank):
    """(nabla t)[i][a_1..a_r] = -sum_s G[m][i][a_s] t[a_1..m..a_r] of a
    covariant tensor t of the given rank, as nested lists."""
    d = len(G)

    def entry(idx):
        total = 0
        for s in range(1, rank + 1):
            for m in range(d):
                x = G[m][idx[0]][idx[s]]
                if x:
                    sub = t
                    for a in idx[1:s] + (m,) + idx[s + 1 :]:
                        sub = sub[a]
                    total -= x * sub
        return total

    def table(prefix):
        if len(prefix) == rank + 1:
            return entry(prefix)
        return [table(prefix + (a,)) for a in range(d)]

    return table(())


def loop_Q(N, J):
    """Q(x,y) = 1/4 {(nabla_x J)Jy - (nabla_{Jx} J)y - 2 (nabla_y J)Jx}."""
    d = len(J)
    Q = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a, b, x in _nonzero(J):
        for k, i in itertools.product(range(d), repeat=2):
            Q[k][i][b] += N[k][i][a] * x / 4  # Q(e_i,e_b) gets (nabla_i J) J e_b
            Q[k][b][i] -= x * N[k][a][i] / 4  # Q(e_b,e_i) gets (nabla_{J e_b} J) e_i
            Q[k][b][i] -= N[k][i][a] * x / 2  # Q(e_b,e_i) gets (nabla_i J) J e_b
    return Q


def loop_gram(A, B, g):
    """(i,j,k,l) -> g(A(e_i,e_j), B(e_k,e_l)) for vector-valued A, B."""
    gnz = _nonzero(g)

    def entry(i, j, k, l):
        return sum(x * A[m][i][j] * B[n][k][l] for m, n, x in gnz)

    return entry


def loop_P(Q, g):
    """P(x,y,z,w) = 2 g(Q(x,y),Q(z,w)) + g(Q(z,y),Q(x,w)) + g(Q(x,z),Q(y,w))."""
    qq = loop_gram(Q, Q, g)
    return lambda i, j, k, l: 2 * qq(i, j, k, l) + qq(k, j, i, l) + qq(i, k, j, l)


def loop_H(N, J, g):
    """H(x,y,z,w) = g(B(x,y), B(z,w)), B(x,y) = (nabla_x J)Jy + (nabla_{Jx} J)y."""
    d = len(J)
    B = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a, b, x in _nonzero(J):
        for k, i in itertools.product(range(d), repeat=2):
            B[k][i][b] += N[k][i][a] * x
            B[k][b][i] += x * N[k][a][i]
    return loop_gram(B, B, g)


def loop_curvature(G, C, g):
    """g(R(e_i,e_j)e_k, e_l) of the frame connection G, as a nested table."""
    d = len(g)
    rng = range(d)
    r_vec = [[[[0] * d for _ in rng] for _ in rng] for _ in rng]
    for l, i, j, k in itertools.product(rng, repeat=4):
        r_vec[l][i][j][k] = sum(
            G[l][i][m] * G[m][j][k] - G[l][j][m] * G[m][i][k] - C[m][i][j] * G[l][m][k]
            for m in rng
        )
    gnz = _nonzero(g)
    return [
        [[[sum(x * r_vec[m][i][j][k] for m, n, x in gnz if n == l) for l in rng]
          for k in rng] for j in rng]
        for i in rng
    ]


def loop_scalars(entry, g_inv, J):
    """tau = g^{ij} rho(e_i,e_j) and tau* = g^{ij} rho(e_i,Je_j) of a rank-4
    tensor L, with rho(x,y) = g^{ks} L(e_k,x,y,e_s)."""
    inz, Jnz = _nonzero(g_inv), _nonzero(J)
    tau = tau_star = 0
    for i, j, x in inz:
        for k, s, y in inz:
            tau += x * y * entry(k, i, j, s)
            j_col = (z * entry(k, i, m, s) for m, jj, z in Jnz if jj == j)
            tau_star += x * y * sum(j_col)
    return tau, tau_star


def loop_sq_norm(N, g, g_inv):
    """||nabla J||^2 = g^{ij} g^{ks} g((nabla_{e_i} J)e_k, (nabla_{e_j} J)e_s)."""
    inz = _nonzero(g_inv)
    nn = loop_gram(N, N, g)
    return sum(x * y * nn(i, k, j, s) for i, j, x in inz for k, s, y in inz)


def loop_cyclic_max(entry, d):
    """Largest |L(x,y,z,w) + L(y,z,x,w) + L(z,x,y,w)| over frame indices."""
    return max(
        abs(entry(i, j, k, l) + entry(j, k, i, l) + entry(k, i, j, l))
        for i, j, k, l in itertools.product(range(d), repeat=4)
    )


def loop_tau_star_P(C, g, J):
    """tau*(P) straight from the brackets (float or exact, like the input)."""
    g_inv = inverse(g)
    Q = loop_Q(loop_nabla_J(loop_koszul(C, g, g_inv), J), J)
    return loop_scalars(loop_P(Q, g), g_inv, J)[1]


def loop_panel(C, g, J):
    """Scalars and cyclic sums of one model, keyed like the ScalarPanel fields.

    `bianchi_R_prime`, `cyclic_H` and `cyclic_sym_gram` are the largest
    components of the cyclic sums, over the first three slots, of R', H and
    the Gram side g((nabla_x J)y + (nabla_y J)x, (nabla_z J)w + (nabla_w J)z)
    of EQ_1_15.
    """
    d = len(g)
    g_inv = inverse(g)
    G = loop_koszul(C, g, g_inv)
    N = loop_nabla_J(G, J)
    Q = loop_Q(N, J)
    Gp = [[[G[k][i][j] + Q[k][i][j] for j in range(d)] for i in range(d)]
          for k in range(d)]
    Rp = loop_curvature(Gp, C, g)
    H = loop_H(N, J, g)
    S = [[[N[k][i][j] + N[k][j][i] for j in range(d)] for i in range(d)]
         for k in range(d)]
    H_table = {idx: H(*idx) for idx in itertools.product(range(d), repeat=4)}
    tau_P, tau_star_P = loop_scalars(loop_P(Q, g), g_inv, J)
    tau_H, tau_star_H = loop_scalars(lambda *idx: H_table[idx], g_inv, J)
    return {
        "sq_norm_nablaJ": loop_sq_norm(N, g, g_inv),
        "tau_P": tau_P,
        "tau_star_P": tau_star_P,
        "tau_H": tau_H,
        "tau_star_H": tau_star_H,
        "bianchi_R_prime": loop_cyclic_max(lambda i, j, k, l: Rp[i][j][k][l], d),
        "cyclic_H": loop_cyclic_max(lambda *idx: H_table[idx], d),
        "cyclic_sym_gram": loop_cyclic_max(loop_gram(S, S, g), d),
    }
