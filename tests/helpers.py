"""Independent oracles shared across the test modules.

These deliberately avoid the library's own code paths: the dense
stationarity-system solve checks the closed-form step, and the explicit
projector checks the factored projection.  The scipy-wrapper kernels,
the per-quantity noise draws and numpy's per-evaluation SeedSequence
generator are the straightforward forms of the library's kernels, noise
model and noise stream; the library must match them bit for bit.
"""

import numpy as np
import scipy.linalg


def dense_kkt_step(J, c, g, beta):
    """Solve the QP optimality system as one dense (n+m) x (n+m) solve.

    The subproblem min 0.5*beta*||d||^2 + g'd s.t. c + J d = 0 has the
    stationarity system [[beta*I, J'], [J, 0]] (d, y) = (-g, -c).
    """
    m, n = J.shape
    K = np.zeros((n + m, n + m))
    K[:n, :n] = beta * np.eye(n)
    K[:n, n:] = J.T
    K[n:, :n] = J
    rhs = np.concatenate([-g, -c])
    return np.linalg.solve(K, rhs)[:n]


def explicit_projector(J):
    """Form P = I - J'(JJ')^{-1}J densely (small sizes only)."""
    n = J.shape[1]
    return np.eye(n) - J.T @ np.linalg.inv(J @ J.T) @ J


def random_full_rank(rng, n_max=6, sigma_floor=1e-2):
    """Random (J, c, g) with m < n <= n_max and a well-separated smallest singular value."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, n))
    while True:
        J = rng.normal(size=(m, n))
        if np.linalg.svd(J, compute_uv=False)[-1] > sigma_floor:
            break
    return J, rng.normal(size=m), rng.normal(size=n)


def cho_gram_solver(J):
    """Solver for (JJ')y = b through scipy's cho_factor/cho_solve wrappers."""
    cho = scipy.linalg.cho_factor(J @ J.T, lower=True, check_finite=False)
    return lambda b: scipy.linalg.cho_solve(cho, b, check_finite=False)


def cho_reference_step(J, c, g, beta):
    """(d, v, u, lambda_hat) of the closed-form step via the scipy wrappers."""
    solve = cho_gram_solver(J)
    lambda_hat = solve(J @ g)
    v = -J.T @ solve(c)
    u = -(g - J.T @ lambda_hat) / beta
    return v + u, v, u, lambda_hat


def seed_sequence_rng(seed, counter):
    """numpy's own generator for evaluation ``counter`` of noise seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, counter)))


def uniform_reference_eval(p, x, spec, stream):
    """Noisy (f, c, g, J) drawn with one Generator.uniform call per quantity.

    The generator comes from numpy's SeedSequence path at the stream's
    (seed, counter), not from the stream itself; the counter is advanced
    by one as an evaluation would.
    """
    rng = seed_sequence_rng(stream.seed, stream.counter)
    stream.counter += 1
    f, c = float(p.eval_f(x)), np.asarray(p.eval_c(x), dtype=float)
    g, J = np.asarray(p.eval_g(x), dtype=float), np.asarray(p.eval_J(x), dtype=float)
    if spec.eps1 > 0:
        f = f + rng.uniform(-spec.eps1, spec.eps1)
        c = c + rng.uniform(-spec.eps1, spec.eps1, size=p.m)
    if spec.eps2 > 0:
        g = g + rng.uniform(-spec.eps2, spec.eps2, size=p.n)
        J = J + rng.uniform(-spec.eps2, spec.eps2, size=(p.m, p.n))
    return f, c, g, J
