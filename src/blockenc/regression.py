"""Weighted and generalized least squares state preparation.

The quantum solvers output the *direction* of the optimal coefficient vector:
beta = (X^T W X)^{-1} X^T W y (WLS) or (X^T Omega^{-1} X)^{-1} X^T Omega^{-1} y
(GLS), prepared as the pseudoinverse of the design matrix A = sqrt(W) X
(resp. Omega^{-1/2} X) applied to the rescaled target.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoding import (
    BlockEncoding,
    apply_to_state,
    compact,
    complement,
    encode,
    from_kp,
    from_sparse_access,
    preamplified_product,
    product,
    restrict,
)
from .errors import DimensionError, NormError, PreconditionError
from .hamsim import negative_power
from .ledger import CostLedger
from .linalg import embed, hermitian_function, normalize, spectral_norm
from .mmio import read_matrix, read_vector
from .solvers import pseudoinverse_state


@dataclass(frozen=True)
class RegressionProblem:
    """Design matrix, targets, and either diagonal weights or a covariance.

    Conventions: M >= N, ||sqrt(W) X|| <= 1 (resp. ||X|| <= 1, ||Omega|| <= 1,
    Omega positive definite), weights w_i >= 1 and the normalized residual of
    the fit at most eta.
    """

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None = None
    omega: np.ndarray | None = None
    kappa_a: float = 2.0
    kappa_omega: float = 2.0
    eta: float = 0.5

    def __post_init__(self):
        m, n = self.x.shape
        if m < n:
            raise DimensionError(f"need M >= N, got {m} x {n}")
        if self.y.shape != (m,):
            raise DimensionError("y must have one entry per row of X")
        if (self.weights is None) == (self.omega is None):
            raise PreconditionError("provide exactly one of weights or omega")
        if self.weights is not None and np.any(self.weights < 1.0 - 1e-12):
            raise PreconditionError("weights must satisfy w_i >= 1")
        if self.omega is not None:
            eigs = np.linalg.eigvalsh((self.omega + self.omega.T) / 2.0)
            # ||Omega|| <= ||sym|| + ||skew|| <= max |eig| + ||skew||_F: never
            # looser than the SVD norm, and equal to it for a symmetric Omega
            skew = np.linalg.norm((self.omega - self.omega.T) / 2.0)
            if np.max(np.abs(eigs)) + skew > 1.0 + 1e-9:
                raise NormError("||Omega|| must be at most 1")
            if eigs.min() <= 0:
                raise PreconditionError("Omega must be positive definite")
            if eigs.min() < 1.0 / self.kappa_omega - 1e-9:
                raise PreconditionError("Omega violates the stated kappa_omega")
        sing = self._design_svd[1]
        if sing[0] > 1.0 + 1e-9:
            raise NormError("||A|| = ||sqrt(W) X|| (resp. Omega^{-1/2} X) must be <= 1")
        if sing.min() < 1.0 / self.kappa_a - 1e-9:
            raise PreconditionError("design matrix violates the stated kappa_a")
        if self.residual > self.eta + 1e-9:
            raise PreconditionError("measured residual exceeds the stated eta")

    @cached_property
    def omega_inv_sqrt(self) -> np.ndarray:
        """Omega^{-1/2} (read-only), decomposed once per problem."""
        m = _inv_sqrt(self.omega)
        m.flags.writeable = False
        return m

    @cached_property
    def _design_svd(self) -> tuple[np.ndarray, np.ndarray]:
        """Left singular vectors and singular values of A, from its one SVD."""
        u, s, _ = np.linalg.svd(self.design_matrix(), full_matrices=False)
        return u, s

    @cached_property
    def residual(self) -> float:
        """Normalized sum of squared residuals: 1 - ||Pi_col(A) |b>||^2."""
        u, s = self._design_svd
        cols = u[:, s > 1e-12]
        return float(max(0.0, 1.0 - np.linalg.norm(cols.conj().T @ self.target_state()) ** 2))

    def design_matrix(self) -> np.ndarray:
        if self.weights is not None:
            return np.sqrt(self.weights)[:, None] * self.x
        return self.omega_inv_sqrt @ self.x

    def target_state(self) -> np.ndarray:
        """|b>: the weighted/whitened target, normalized."""
        if self.weights is not None:
            return normalize(np.sqrt(self.weights) * self.y)
        return normalize(self.omega_inv_sqrt @ self.y)

    @classmethod
    def from_json(cls, path) -> "RegressionProblem":
        """Problem descriptor: Matrix Market payload paths plus scalars."""
        with open(path) as fh:
            spec = json.load(fh)
        base = pathlib.Path(path).parent
        x = read_matrix(base / spec["x"]).real
        y = read_vector(base / spec["y"]).real
        weights = omega = None
        if "weights" in spec:
            weights = read_vector(base / spec["weights"]).real
        if "omega" in spec:
            omega = read_matrix(base / spec["omega"]).real
        return cls(
            x=x,
            y=y,
            weights=weights,
            omega=omega,
            kappa_a=float(spec.get("kappa_a", 2.0)),
            kappa_omega=float(spec.get("kappa_omega", 2.0)),
            eta=float(spec.get("eta", 0.5)),
        )


def _inv_sqrt(omega: np.ndarray) -> np.ndarray:
    return hermitian_function(omega, lambda w: 1.0 / np.sqrt(np.maximum(w, 1e-300)))


def classical_beta(problem: RegressionProblem) -> np.ndarray:
    """Normal-equation reference solve, normalized to a direction."""
    x, y = problem.x, problem.y
    if problem.weights is not None:
        w = np.diag(problem.weights)
        beta = np.linalg.solve(x.T @ w @ x, x.T @ w @ y)
    else:
        omega_inv = np.linalg.inv(problem.omega)
        beta = np.linalg.solve(x.T @ omega_inv @ x, x.T @ omega_inv @ y)
    return normalize(beta)


@dataclass(frozen=True)
class RegressionResult:
    state: np.ndarray
    ledger: CostLedger


def _solve_complement(
    enc: BlockEncoding,
    b: np.ndarray,
    m_rows: int,
    n_cols: int,
    kappa: float,
    gamma: float,
    eps: float,
    b_cost: CostLedger | None,
) -> RegressionResult:
    """Run pseudoinverse preparation on a symmetrized encoding; read the column block."""
    scale = max(1.0, spectral_norm(enc.target) if enc.target is not None else 1.0)
    work = enc.rescaled(scale) if scale > 1.0 else enc
    psi = np.zeros(work.system_dim, dtype=complex)
    psi[:m_rows] = b
    res = pseudoinverse_state(
        work, psi, max(2.0, kappa * scale), gamma, eps, psi_cost=b_cost
    )
    beta = normalize(res.state[m_rows : m_rows + n_cols])
    return RegressionResult(state=beta, ledger=res.ledger)


def wls_solve(
    problem: RegressionProblem,
    route: str = "kp-a",
    eps: float = 1e-3,
    p: float | None = None,
) -> RegressionResult:
    """Quantum WLS: state eps-close to the normalized (X^T W X)^{-1} X^T W y.

    Routes: "kp-a" stores A = sqrt(W) X in the data structure; "kp-x-weights"
    stores X and the weights separately (requires w_i >= 1, known w_max);
    "sparse" assumes sparse access to the symmetrized A.
    """
    if problem.weights is None:
        raise PreconditionError("wls_solve needs a weighted problem")
    if problem.residual > problem.eta:
        raise PreconditionError("residual bound violated")
    a = problem.design_matrix()
    m_rows, n_cols = a.shape
    b = problem.target_state()
    gamma = 1.0 - problem.eta
    if route == "kp-a":
        enc = from_kp(a, p)
        b_cost = CostLedger.single("kp_b_prep")
    elif route == "kp-x-weights":
        enc = from_kp(problem.x, p, weights=problem.weights)
        # b = sqrt(W)|y> needs O(sqrt(w_max)) amplification rounds on the y tree
        b_cost = CostLedger.single("kp_b_prep", math.sqrt(problem.weights.max()))
    elif route == "sparse":
        abar = np.zeros((m_rows + n_cols, m_rows + n_cols))
        abar[:m_rows, m_rows:] = a
        abar[m_rows:, :m_rows] = a.T
        enc = from_sparse_access(abar)
        b_cost = CostLedger.single("b_prep")
    else:
        raise PreconditionError(f"unknown WLS route {route!r}")
    return _solve_complement(enc, b, m_rows, n_cols, problem.kappa_a, gamma, eps, b_cost)


def _solver_budget(kappa: float, eps: float) -> float:
    return eps / (kappa**2 * max(1.0, math.log2(max(kappa / eps, 2.0))) ** 3)


def _omega_inv_sqrt_encoding(
    problem: RegressionProblem, route: str, delta_inner: float, p: float | None
) -> BlockEncoding:
    if route == "omega-inverse-sqrt-encoding":
        return encode(problem.omega_inv_sqrt)
    if route == "omega-encoding":
        base = encode(problem.omega)
    elif route == "kp":
        base = restrict(from_kp(problem.omega, p, square=True), problem.omega.shape[0])
    elif route == "sparse":
        base = from_sparse_access(problem.omega)
    else:
        raise PreconditionError(f"unknown GLS route {route!r}")
    # kappa_omega only bounds the condition number from above, so a value
    # below the negative power's floor of 2 is still a valid bound at 2
    return compact(negative_power(base, 0.5, max(2.0, problem.kappa_omega), delta_inner))


def gls_solve(
    problem: RegressionProblem,
    route: str = "omega-inverse-sqrt-encoding",
    eps: float = 1e-3,
    p: float | None = None,
) -> RegressionResult:
    """Quantum GLS via the identity (X^T Omega^{-1} X)^{-1} X^T Omega^{-1} = A^+ Omega^{-1/2}.

    The Omega^{-1/2} encoding is either supplied directly, or built from an
    Omega encoding (dense, KP-tree, or sparse route) by a c = 1/2 negative
    power.  The whitened target Omega^{-1/2}|y> is prepared by post-selected
    application, then A^+ is applied by pseudoinverse state preparation.
    """
    if problem.omega is None:
        raise PreconditionError("gls_solve needs a covariance problem")
    m_rows, n_cols = problem.x.shape
    kappa_o = problem.kappa_omega
    kappa_eff = problem.kappa_a * math.sqrt(kappa_o)
    tol = _solver_budget(kappa_eff, eps) / 8.0  # inner errors must clear the solver budget
    u_p = _omega_inv_sqrt_encoding(problem, route, tol * math.sqrt(kappa_o), p)
    # whitened target: apply Omega^{-1/2}/sqrt(kappa_o) (norm <= 1) to |y>
    y_state = normalize(problem.y)
    p_scaled = u_p.rescaled(math.sqrt(kappa_o))
    psi_res = apply_to_state(
        p_scaled,
        y_state,
        gamma_lower=1.0 / math.sqrt(kappa_o),
        eps=max(eps, 4.0 * p_scaled.epsilon * math.sqrt(kappa_o)),
        b_cost=CostLedger.single("y_prep"),
    )
    b = psi_res.state
    # design-matrix encoding A = Omega^{-1/2} X, padded square
    x_pad = embed(problem.x, m_rows)
    u_x = encode(x_pad, alpha=max(1.0, spectral_norm(x_pad)))
    if p_scaled.alpha >= 1.0 and u_x.alpha >= 1.0:
        u_a = preamplified_product(p_scaled, u_x, gamma=tol)
    else:
        u_a = product(p_scaled, u_x)
    u_abar = compact(complement(compact(u_a)))
    psi = np.zeros(u_abar.system_dim, dtype=complex)
    psi[:m_rows] = b
    gamma = 1.0 - problem.eta
    res = pseudoinverse_state(
        u_abar,
        psi,
        max(2.0, problem.kappa_a * math.sqrt(kappa_o)),
        gamma,
        eps,
        psi_cost=psi_res.ledger,
    )
    beta = normalize(res.state[m_rows : m_rows + n_cols])
    return RegressionResult(state=beta, ledger=res.ledger)
