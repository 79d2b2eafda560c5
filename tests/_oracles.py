"""Dense and exhaustive references the tests check the matrix-free solver against.

- ``materialize_A`` builds the (m+n) x mn constraint matrix on row-major
  vec(X) that the solver never forms, behind a size guard.
- ``power_iteration_norm`` estimates its spectral norm matrix-free, to be
  compared with the closed form sqrt(m + n).
- ``rounding_bound_check`` is the l1 distance bound of the rounding step.
- ``partition_and_delta`` and ``check_identification`` classify the cells of
  an optimal solution and test whether an iterate has identified its support;
  ``tu_submatrix_check`` samples the total unimodularity of the constraint
  matrix; ``data_precision`` recovers the rational grid spacing of the data
  and the restart-length bounds it implies.
- ``grid_cost_reference`` builds a grid cost the long way, through the
  (m, m, 2) array of coordinate differences between cells.
- ``unshared_pdhg_step``, ``unshared_stepsize_bound``, ``unshared_kkt_error``
  and ``unshared_mean_step`` are the solver's per-point arithmetic written
  out the long way: each builds its own reduced cost C - p 1^T - 1 q^T or
  displacement in fresh arrays and ignores the shared slack it is passed.
- ``exact_oracle`` and ``optimal_basis_duals`` solve tiny instances exactly.
  Every vertex of the transportation polytope is the flow solution of some
  spanning tree of the complete bipartite graph on the row and column nodes,
  so both enumerate all trees (checked against the closed-form count
  m^(n-1) n^(m-1)) and minimize over those with feasible flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from otsolve.kkt import Iterate
from otsolve.operator import apply_A, apply_At

MATERIALIZE_LIMIT = 10_000
ORACLE_SIZE_LIMIT = 12
FLOW_FEASIBILITY_TOL = 1e-12
TU_INVERSE_TOL = 1e-9
RATIONAL_TOL = 1e-9


def grid_cost_reference(r: int, kind: str) -> np.ndarray:
    """Entries of ``grid_cost(r, kind)`` from the (r^2, 2) row-major cell coordinates."""
    idx = np.arange(r * r)
    coords = np.stack([idx // r, idx % r], axis=1).astype(np.float64)
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    if kind == "l1":
        return diff.sum(axis=2)
    if kind == "l2":
        return np.sqrt((diff ** 2).sum(axis=2))
    return diff.max(axis=2)


def unshared_pdhg_step(prob, it, tau, sigma, slack):
    X_next = it.X - tau * (prob.C - apply_At(it.p, it.q))
    np.maximum(X_next, 0.0, out=X_next)
    extra = 2.0 * X_next - it.X
    rows, cols = apply_A(extra)
    return Iterate(X_next, it.p + sigma * (prob.f - rows), it.q + sigma * (prob.g - cols))


def unshared_stepsize_bound(it, it_next, omega, work):
    dX = it_next.X - it.X
    dp = it_next.p - it.p
    dq = it_next.q - it.q
    numer = omega * float(np.vdot(dX, dX)) + (
        float(np.vdot(dp, dp)) + float(np.vdot(dq, dq))
    ) / omega
    rows, cols = apply_A(dX)
    denom = 2.0 * abs(float(dp @ rows + dq @ cols))
    if denom <= 1e-10:  # pdhg._EPS_ZERO
        return math.inf
    return numer / denom


def unshared_kkt_error(prob, it, slack=None) -> float:
    rows, cols = apply_A(it.X)
    primal_row = rows - prob.f
    primal_col = cols - prob.g
    violation = apply_At(it.p, it.q) - prob.C
    np.maximum(violation, 0.0, out=violation)
    primal_obj = float(np.vdot(prob.C, it.X))
    dual_obj = float(prob.f @ it.p + prob.g @ it.q)
    gap = primal_obj - dual_obj
    primal_sq = float(np.vdot(primal_row, primal_row) + np.vdot(primal_col, primal_col))
    dual_sq = float(np.vdot(violation, violation))
    return float(
        np.sqrt(primal_sq) / (1.0 + prob.marginal_norm)
        + np.sqrt(dual_sq) / (1.0 + prob.cost_fro_norm)
        + abs(gap) / (1.0 + abs(primal_obj) + abs(dual_obj))
    )


def unshared_mean_step(new: np.ndarray, average: np.ndarray, k: int) -> np.ndarray:
    return average + (new - average) / k


def materialize_A(m: int, n: int) -> np.ndarray:
    """Dense (m+n) x (mn) constraint matrix acting on row-major vec(X)."""
    if m * n > MATERIALIZE_LIMIT:
        raise ValueError(f"refusing to materialize A with mn = {m * n} > {MATERIALIZE_LIMIT}")
    top = np.kron(np.eye(m), np.ones((1, n)))
    bottom = np.kron(np.ones((1, m)), np.eye(n))
    return np.vstack([top, bottom])


def power_iteration_norm(m: int, n: int, max_iters: int = 500, tol: float = 1e-12,
                         seed: int = 0) -> float:
    """Spectral norm by power iteration on the normal map, via apply_A/apply_At."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n))
    X /= np.linalg.norm(X)
    sigma = 0.0
    for _ in range(max_iters):
        Y = apply_At(*apply_A(X))  # A^T A applied to vec(X)
        norm_y = np.linalg.norm(Y)
        sigma_new = float(np.sqrt(norm_y))
        X = Y / norm_y
        if abs(sigma_new - sigma) <= tol * max(1.0, sigma_new):
            return sigma_new
        sigma = sigma_new
    return sigma


def rounding_bound_check(prob, X: np.ndarray, X_feas: np.ndarray) -> bool:
    """Check |X_feas - X|_1 <= 2 (|f - X 1|_1 + |g - X^T 1|_1)."""
    lhs = float(np.abs(X_feas - X).sum())
    rhs = 2.0 * (
        float(np.abs(prob.f - X.sum(axis=1)).sum())
        + float(np.abs(prob.g - X.sum(axis=0)).sum())
    )
    return lhs <= rhs + 1e-12 * (1.0 + rhs)


@dataclass
class Partition:
    """Disjoint cover of the plan cells by optimal-support role.

    N holds strictly positive reduced costs, B1 the optimal support, B2 the
    degenerate remainder; delta is the smaller of the minimum scaled reduced
    cost over N and the minimum optimal mass over B1.
    """

    N: set
    B1: set
    B2: set
    delta: float


def _data_infinity_norm(prob) -> float:
    return float(max(np.abs(prob.C).max(), np.abs(prob.f).max(), np.abs(prob.g).max()))


def _cells(mask: np.ndarray) -> set:
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}


def partition_and_delta(prob, X_star, p_star, q_star, tol: float | None = None) -> Partition:
    """Classify cells of a (near-)optimal solution and compute its margin.

    ``tol`` separates "zero" from "positive" for floating-point inputs; it
    defaults to 1e-7 * (1 + max data magnitude).
    """
    if tol is None:
        tol = 1e-7 * (1.0 + _data_infinity_norm(prob))
    reduced = prob.C - p_star[:, None] - q_star[None, :]
    mask_N = reduced > tol
    mask_B1 = (np.abs(reduced) <= tol) & (X_star > tol)
    B1 = _cells(mask_B1)
    if not B1:
        raise ValueError("inconsistent optimal input: empty support set")
    delta = float(X_star[mask_B1].min())
    if mask_N.any():
        delta = min(delta, float(reduced[mask_N].min()) / math.sqrt(prob.m + prob.n))
    return Partition(N=_cells(mask_N), B1=B1, B2=_cells(~(mask_N | mask_B1)), delta=delta)


def check_identification(prob, partition: Partition, it, tol: float) -> bool:
    """True iff the iterate's support pattern matches the optimal partition.

    Every N cell must carry mass at most tol with reduced cost above tol,
    and every B1 cell must carry mass above tol.
    """
    if partition.N:
        rows, cols = np.array(sorted(partition.N)).T
        if np.any(it.X[rows, cols] > tol):
            return False
        if np.any(prob.C[rows, cols] - it.p[rows] - it.q[cols] <= tol):
            return False
    rows, cols = np.array(sorted(partition.B1)).T
    return not np.any(it.X[rows, cols] <= tol)


def tu_submatrix_check(m: int, n: int, trials: int = 200, seed: int = 0) -> bool:
    """Randomized inverse check of total unimodularity.

    Samples ``trials`` random nonsingular square submatrices of the
    materialized constraint matrix, up to size 8, and verifies every inverse
    entry is within 1e-9 of {-1, 0, 1}. Determinants of 0/1 matrices this
    small are exact integers up to far below the 0.5 singularity threshold.
    """
    A = materialize_A(m, n)
    n_rows, n_cols = A.shape
    max_size = min(8, n_rows, n_cols)
    rng = np.random.default_rng(seed)
    accepted = 0
    attempts = 0
    while accepted < trials:
        attempts += 1
        if attempts > 200 * trials:
            raise RuntimeError("could not sample enough nonsingular submatrices")
        s = int(rng.integers(1, max_size + 1))
        rows = rng.choice(n_rows, size=s, replace=False)
        cols = rng.choice(n_cols, size=s, replace=False)
        sub = A[np.ix_(rows, cols)]
        if abs(np.linalg.det(sub)) < 0.5:
            continue
        accepted += 1
        inv = np.linalg.inv(sub)
        nearest = np.round(inv)
        if np.max(np.abs(inv - nearest)) > TU_INVERSE_TOL or np.any(np.abs(nearest) > 1):
            return False
    return True


@dataclass
class TheoryBounds:
    H: float
    Delta: float
    local_restart_bound: float
    global_restart_bound: float


def data_precision(prob, declared_denominator: int, beta: float = 0.5) -> TheoryBounds:
    """Recover the data grid spacing and the restart-length bounds it implies.

    All entries times the declared denominator must be within 1e-9 of
    integers; the spacing is the declared unit reduced by the gcd of the
    scaled entries. ``beta`` is the restart decay the bounds are quoted for.
    """
    if declared_denominator < 1:
        raise ValueError("declared denominator must be a positive integer")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    scaled = np.concatenate([prob.C.ravel(), prob.f, prob.g]) * declared_denominator
    nearest = np.round(scaled)
    if np.max(np.abs(scaled - nearest)) > RATIONAL_TOL:
        raise ValueError(f"non-rational entry at declared denominator {declared_denominator}")
    ints = [int(abs(v)) for v in nearest if v != 0]
    delta = (math.gcd(*ints) if ints else 1) / declared_denominator
    H = _data_infinity_norm(prob)
    s = prob.m + prob.n
    return TheoryBounds(
        H=H,
        Delta=float(delta),
        local_restart_bound=(16.0 / beta) * s ** 1.5,
        global_restart_bound=(1536.0 / beta) * (H / delta) * s ** 3,
    )


def spanning_tree_count(m: int, n: int) -> int:
    return m ** (n - 1) * n ** (m - 1)


def spanning_trees(m: int, n: int, visit) -> int:
    """Call ``visit(cells)`` for every spanning tree of K_{m,n}.

    ``cells`` is the list of flat plan indices (i * n + j) of the tree edges,
    valid only for the duration of the call. Returns the number of trees.
    Backtracks over cells with a union-find cycle check.
    """
    E = m * n
    need = m + n - 1
    parent = list(range(m + n))
    size = [1] * (m + n)
    chosen: list[int] = []
    count = 0

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(pos: int, cnt: int) -> None:
        nonlocal count
        if cnt == need:
            count += 1
            visit(chosen)
            return
        if E - pos < need - cnt:
            return
        ru, rv = find(pos // n), find(m + pos % n)
        if ru != rv:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            chosen.append(pos)
            rec(pos + 1, cnt + 1)
            chosen.pop()
            size[ru] -= size[rv]
            parent[rv] = rv
        rec(pos + 1, cnt)

    rec(0, 0)
    return count


def _tree_flows(cells: list[int], m: int, n: int, b: list[float]) -> list[float]:
    """Solve the tree's triangular flow system by leaf elimination."""
    N = m + n
    deg = [0] * N
    adj: list[list[tuple[int, int]]] = [[] for _ in range(N)]
    for e, c in enumerate(cells):
        u, v = c // n, m + c % n
        adj[u].append((e, v))
        adj[v].append((e, u))
        deg[u] += 1
        deg[v] += 1
    resid = list(b)
    used = [False] * len(cells)
    flows = [0.0] * len(cells)
    stack = [v for v in range(N) if deg[v] == 1]
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue
        for e, u in adj[v]:
            if not used[e]:
                break
        used[e] = True
        flows[e] = resid[v]
        resid[u] -= resid[v]
        resid[v] = 0.0
        deg[v] = 0
        deg[u] -= 1
        if deg[u] == 1:
            stack.append(u)
    return flows


def _feasible_trees(prob) -> list[tuple[float, list[int], list[float]]]:
    """(cost, cells, flows) of every tree with non-negative flows, in enumeration order."""
    m, n = prob.m, prob.n
    if m + n > ORACLE_SIZE_LIMIT:
        raise ValueError(f"oracle limited to m + n <= {ORACLE_SIZE_LIMIT}, got {m + n}")
    cvec = prob.C.ravel().tolist()
    b = prob.f.tolist() + prob.g.tolist()
    trees = []

    def visit(cells: list[int]) -> None:
        flows = _tree_flows(cells, m, n, b)
        if min(flows) >= -FLOW_FEASIBILITY_TOL:
            trees.append((sum(fl * cvec[c] for fl, c in zip(flows, cells)), list(cells), flows))

    if spanning_trees(m, n, visit) != spanning_tree_count(m, n):
        raise RuntimeError("spanning-tree enumeration self-check failed")
    if not trees:
        raise RuntimeError("no feasible basic solution found")
    return trees


def exact_oracle(prob) -> tuple[float, np.ndarray]:
    """Exact LP optimum (objective, plan) by exhaustive vertex enumeration."""
    cost, cells, flows = min(_feasible_trees(prob), key=lambda tree: tree[0])
    plan = np.zeros((prob.m, prob.n))
    for fl, c in zip(flows, cells):
        plan[c // prob.n, c % prob.n] = max(fl, 0.0)
    return float(cost), plan


def _tree_duals(cells: list[int], C: np.ndarray, m: int, n: int):
    """Dual vectors satisfying p_i + q_j = C_ij on every tree edge."""
    p = np.full(m, np.nan)
    q = np.full(n, np.nan)
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for c in cells:
        adj[c // n].append(c)
        adj[m + c % n].append(c)
    p[0] = 0.0
    stack = [0]
    while stack:
        v = stack.pop()
        for c in adj[v]:
            i, j = c // n, c % n
            if v < m and math.isnan(q[j]):
                q[j] = C[i, j] - p[i]
                stack.append(m + j)
            elif v >= m and math.isnan(p[i]):
                p[i] = C[i, j] - q[j]
                stack.append(i)
    return p, q


def optimal_basis_duals(prob) -> tuple[np.ndarray, np.ndarray]:
    """Exact optimal duals from a dual-feasible minimum-cost tree.

    Takes the feasible trees within 1e-9 of the optimal cost and returns the
    duals of the first one whose reduced costs are all non-negative. Every
    transport LP has an optimal basis that is also dual feasible, so the
    final raise is a self-check.
    """
    trees = _feasible_trees(prob)
    best = min(cost for cost, _, _ in trees)
    window = 1e-9 * (1.0 + abs(best))
    feas_tol = 1e-9 * (1.0 + float(np.abs(prob.C).max()))
    for cost, cells, _ in trees:
        if cost <= best + window:
            p, q = _tree_duals(cells, prob.C, prob.m, prob.n)
            if float((prob.C - p[:, None] - q[None, :]).min()) >= -feas_tol:
                return p, q
    raise RuntimeError("degenerate optimum: no dual-feasible optimal tree found")
