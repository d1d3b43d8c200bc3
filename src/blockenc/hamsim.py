"""Hamiltonian simulation of block-encoded matrices and smooth matrix functions.

e^{itH}, H^{-c}, H^c and truncated-series functions f(H) are all computed
by `linalg.hermitian_function` on the symmetrized extracted block (and on
the claimed target, when one is attached), which is exact at desk scale,
while the ledger charges the analytic costs of the corresponding circuit
constructions (controlled simulation, the sign-split power circuits).
Matrix powers additionally have a truncated-Taylor "series" path so the two
routes can be compared.  The inversion patch W(lam, eps) of the
variable-time solvers enters only through its per-eigenbranch amplitude,
`inversion_patch_amplitude`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import BlockEncoding
from .errors import NormError, PreconditionError, SpectrumError
from .linalg import CONSTRUCTION_TOL, hermitian_function, hermitianize, spectral_norm

_SPECTRUM_SLACK = 1e-9


def _sym_block(u: BlockEncoding) -> np.ndarray:
    return hermitianize(u.applied())


def _log2(x: float) -> float:
    return math.log2(max(x, 2.0))


def block_ham_sim(u: BlockEncoding, t: float, eps: float) -> BlockEncoding:
    """(1, a+2, eps)-encoding of e^{itH} from an (alpha, a, eps/|2t|)-encoding of H."""
    if t != 0.0 and u.epsilon > eps / abs(2.0 * t) + 1e-15:
        raise PreconditionError(
            f"input encoding error {u.epsilon} exceeds eps/|2t| = {eps / abs(2 * t)}"
        )

    def f(w):
        return np.exp(1j * t * w)

    func = hermitian_function(u.applied(), f)
    rounds = abs(u.alpha * t) + _log2(1.0 / eps) if eps > 0 else abs(u.alpha * t) + 1.0
    target = None if u.target is None else hermitian_function(u.target, f)
    return BlockEncoding(
        corner=func,
        alpha=1.0,
        ancillas=u.ancillas + 2,
        epsilon=float(eps),
        system_dim=u.system_dim,
        ledger=u.ledger.scaled(rounds).with_gates(u.ancillas * rounds),
        target=target,
    )


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated power series f(x0 + x) = sum a_l x^l with an envelope certificate.

    `env_tail` bounds the discarded sum_{l>d} |a_l| (radius+delta)^l, so the
    envelope inequality sum |a_l| (r+delta)^l <= envelope can be verified
    numerically at the truncation degree plus the analytic tail.
    """

    center: float
    radius: float
    coeffs: np.ndarray
    delta: float
    envelope: float
    env_tail: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.delta <= self.radius:
            raise PreconditionError(f"delta must lie in (0, r], got {self.delta}")
        if self.envelope <= 0:
            raise PreconditionError("envelope must be positive")
        if self.envelope_sum() > self.envelope * (1.0 + 1e-9):
            raise PreconditionError(
                f"series violates the envelope: sum |a_l|(r+delta)^l = "
                f"{self.envelope_sum()} > B = {self.envelope}"
            )

    def envelope_sum(self) -> float:
        x = self.radius + self.delta
        return float(np.sum(np.abs(self.coeffs) * x ** np.arange(len(self.coeffs)))) + self.env_tail

    def truncation_degree(self, eps_prime: float) -> int:
        """Smallest d with the geometric tail B (r/(r+delta))^(d+1) <= B eps'/2."""
        ratio = self.radius / (self.radius + self.delta)
        if ratio <= 0.0:
            return 0
        return max(0, math.ceil(math.log(2.0 / eps_prime) / math.log(1.0 / ratio)) - 1)

    def evaluate(self, x: np.ndarray, degree: int | None = None) -> np.ndarray:
        """Horner evaluation of the truncated series at x (array of eigenvalues)."""
        co = self.coeffs if degree is None else self.coeffs[: degree + 1]
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for a in reversed(co):
            acc = acc * (x - self.center) + a
        return acc


def negative_power_series(c: float, kappa: float, eps_prime: float) -> TaylorSeries:
    """Binomial series of x^{-c} at x0=1, r=1-1/kappa, delta=1/(2 kappa max(1,c)), B=2 kappa^c."""
    if c <= 0 or kappa < 2:
        raise PreconditionError("need c > 0 and kappa >= 2")
    q = max(1.0, c)
    r = 1.0 - 1.0 / kappa
    delta = 1.0 / (2.0 * kappa * q)
    envelope = 2.0 * kappa**c
    total = (1.0 - (r + delta)) ** (-c)  # exact value of sum |a_k| (r+delta)^k
    degree = TaylorSeries(
        center=1.0, radius=r, coeffs=np.array([1.0]), delta=delta, envelope=envelope,
        env_tail=total - 1.0,
    ).truncation_degree(eps_prime)
    coeffs = np.empty(degree + 1)
    coeffs[0] = 1.0
    for k in range(degree):
        coeffs[k + 1] = coeffs[k] * (-c - k) / (k + 1)
    partial = float(np.sum(np.abs(coeffs) * (r + delta) ** np.arange(degree + 1)))
    return TaylorSeries(
        center=1.0,
        radius=r,
        coeffs=coeffs,
        delta=delta,
        envelope=envelope,
        env_tail=max(0.0, total - partial),
    )


def positive_power_series(c: float, kappa: float, eps_prime: float) -> TaylorSeries:
    """Binomial series of x^c at x0=1, r=1-1/kappa, delta=1/kappa, B=2 (exact total)."""
    if not 0.0 < c <= 1.0:
        raise PreconditionError(f"positive powers need c in (0, 1], got {c}")
    if kappa < 2:
        raise PreconditionError("kappa must be >= 2")
    r = 1.0 - 1.0 / kappa
    delta = 1.0 / kappa
    degree = TaylorSeries(
        center=1.0, radius=r, coeffs=np.array([1.0]), delta=delta, envelope=2.0,
        env_tail=1.0,
    ).truncation_degree(eps_prime)
    coeffs = np.empty(degree + 1)
    coeffs[0] = 1.0
    for k in range(degree):
        coeffs[k + 1] = coeffs[k] * (c - k) / (k + 1)
    partial = float(np.sum(np.abs(coeffs) * np.ones(degree + 1)))
    return TaylorSeries(
        center=1.0,
        radius=r,
        coeffs=coeffs,
        delta=delta,
        envelope=2.0,
        env_tail=max(0.0, 2.0 - partial),
    )


def smooth_function(
    u: BlockEncoding,
    series: TaylorSeries,
    eps_prime: float,
    exact_f=None,
) -> BlockEncoding:
    """(B, a+2, B eps')-encoding of f(H) by truncated-series evaluation.

    The truncation degree is the smallest one whose geometric tail is below
    half the error budget; the circuit model charges one controlled-simulation
    of H plus the Fourier-combination gate cost.
    """
    if not 0.0 < eps_prime <= 0.5:
        raise PreconditionError(f"eps_prime must lie in (0, 1/2], got {eps_prime}")
    h = _sym_block(u)
    w, v = np.linalg.eigh(h)
    slack = u.epsilon + _SPECTRUM_SLACK
    if np.any(np.abs(w - series.center) > series.radius + slack):
        raise SpectrumError(
            f"spectrum of H not within radius {series.radius} of {series.center}"
        )
    degree = series.truncation_degree(eps_prime)
    if degree >= len(series.coeffs):
        if series.env_tail > 0.0:
            raise PreconditionError(
                f"series holds {len(series.coeffs)} coefficients but degree {degree} is needed"
            )
        degree = len(series.coeffs) - 1  # finite series: the discarded tail is exactly zero
    b = series.envelope
    func = (v * series.evaluate(w, degree)) @ v.conj().T
    block = func / b
    nrm = spectral_norm(block)
    if nrm > 1.0:
        block = block / nrm
    # one controlled (M, gamma)-simulation with M ~ r log(1/eps')/delta, gamma ~ 1/r
    m_sim = series.radius * _log2(1.0 / eps_prime) / series.delta
    sim_rounds = u.alpha * m_sim / max(series.radius, 1e-300) + _log2(m_sim) * _log2(
        m_sim / eps_prime
    )
    gates = (series.radius / series.delta) * _log2(
        series.radius / (series.delta * eps_prime)
    ) * _log2(1.0 / eps_prime)
    target = None
    if u.target is not None:
        f = exact_f if exact_f is not None else (lambda x: series.evaluate(x, degree))
        target = hermitian_function(u.target, f)
    return BlockEncoding(
        corner=block,
        alpha=b,
        ancillas=u.ancillas + 2,
        epsilon=b * eps_prime,
        system_dim=u.system_dim,
        ledger=u.ledger.scaled(max(sim_rounds, 1.0)).with_gates(gates),
        target=target,
    )


def _check_positive_spectrum(u: BlockEncoding, kappa: float, allow_negative: bool) -> np.ndarray:
    """Eigenvalues of the symmetrized block, checked to lie (in modulus) in [1/kappa, 1]."""
    w = np.linalg.eigvalsh(_sym_block(u))
    slack = u.epsilon + _SPECTRUM_SLACK
    vals = np.abs(w) if allow_negative else w
    if np.any(vals < 1.0 / kappa - slack) or np.any(vals > 1.0 + slack):
        raise SpectrumError(
            f"eigenvalues must lie in {'± ' if allow_negative else ''}[1/kappa, 1]; got "
            f"range [{vals.min():.3g}, {vals.max():.3g}] for kappa = {kappa}"
        )
    return w


def _power_budget(kappa: float, c: float, eps: float) -> float:
    return eps / (kappa ** (1.0 + c) * (1.0 + c) * _log2(kappa ** (1.0 + c) / eps) ** 3)


def negative_power(
    u: BlockEncoding, c: float, kappa: float, eps: float, path: str = "spectral"
) -> BlockEncoding:
    """(2 kappa^c, a+2, eps)-encoding of H^{-c} for I/kappa <= H <= I.

    The spectral path diagonalizes the extracted block (negative eigenvalues
    get the odd extension sign(x)|x|^{-c}, matching the sign-split circuit);
    the series path evaluates a truncated binomial series and requires a
    positive spectrum.
    """
    if c <= 0:
        raise PreconditionError(f"c must be positive, got {c}")
    if kappa < 2:
        raise PreconditionError(f"kappa must be >= 2, got {kappa}")
    if u.epsilon > _power_budget(kappa, c, eps) + 1e-15:
        raise PreconditionError(
            f"input error {u.epsilon} exceeds the negative-power budget "
            f"{_power_budget(kappa, c, eps)}"
        )
    alpha_out = 2.0 * kappa**c
    rounds = u.alpha * kappa * (1.0 + c) * _log2(kappa ** (1.0 + c) / eps)
    if path == "series":
        _check_positive_spectrum(u, kappa, allow_negative=False)
        series = negative_power_series(c, kappa, eps / alpha_out)
        out = smooth_function(u, series, eps / alpha_out, exact_f=lambda x: x ** (-c))
        return out
    if path != "spectral":
        raise ValueError(f"unknown path {path!r}")
    _check_positive_spectrum(u, kappa, allow_negative=True)

    def f(w):
        return np.sign(w) * np.abs(w) ** (-c)

    block = hermitian_function(u.applied(), f) / alpha_out
    nrm = spectral_norm(block)
    if nrm > 1.0:
        block = block / nrm
    target = None if u.target is None else hermitian_function(u.target, f)
    return BlockEncoding(
        corner=block,
        alpha=alpha_out,
        ancillas=u.ancillas + 2,
        epsilon=float(eps),
        system_dim=u.system_dim,
        ledger=u.ledger.scaled(max(rounds, 1.0)).with_gates(u.ancillas * rounds),
        target=target,
    )


def positive_power(
    u: BlockEncoding, c: float, kappa: float, eps: float, path: str = "spectral"
) -> BlockEncoding:
    """(2, a+2, eps)-encoding of H^c for c in (0, 1] and I/kappa <= H <= I."""
    if not 0.0 < c <= 1.0:
        raise PreconditionError(f"c must lie in (0, 1], got {c}")
    if kappa < 2:
        raise PreconditionError(f"kappa must be >= 2, got {kappa}")
    w = _check_positive_spectrum(u, kappa, allow_negative=False)
    if path == "series":
        series = positive_power_series(c, kappa, eps / 2.0)
        return smooth_function(u, series, eps / 2.0, exact_f=lambda x: x**c)
    if path != "spectral":
        raise ValueError(f"unknown path {path!r}")
    if np.max(w) ** c / 2.0 > 1.0 + CONSTRUCTION_TOL:
        raise NormError(f"||H^c|| / 2 = {np.max(w) ** c / 2.0} exceeds 1")

    def f(w):
        return np.maximum(w, 0.0) ** c

    block = hermitian_function(u.applied(), f) / 2.0
    rounds = u.alpha * kappa * _log2(kappa / eps)
    target = None if u.target is None else hermitian_function(u.target, f)
    return BlockEncoding(
        corner=block,
        alpha=2.0,
        ancillas=u.ancillas + 2,
        epsilon=float(eps),
        system_dim=u.system_dim,
        ledger=u.ledger.scaled(max(rounds, 1.0)).with_gates(u.ancillas * rounds),
        target=target,
    )


def inversion_patch_amplitude(lam: float, phi: float, power: float, alpha_max: float) -> float:
    """Flagged amplitude of the inversion patch W(phi, eps') on eigenvalue lam.

    sign(lam) max(|lam|, phi)^(-power) / alpha_max, clamped to [-1, 1]; lam = 0
    takes the + sign.  All patches of one solver share alpha_max, which the
    variable-time flag algebra requires.
    """
    lam_eff = max(abs(lam), phi)
    g = math.copysign(lam_eff**-power, lam if lam != 0 else 1.0) / alpha_max
    return max(-1.0, min(1.0, g))
