"""Composed solvers: singular value estimation, variable-time linear systems,
pseudoinverse state preparation and norm estimation.

Negative matrix powers share the linear-system pipeline: `pseudoinverse_state`
and `qls_norm_estimate` take a power c and prepare H^{-c}|psi> (resp. estimate
its norm); c = 1 is the linear system.

Every solver consumes a block-encoding, simulates the staged algorithm per
eigenbranch, and reports both the output state and the symbolic cost.  The
reference values the harness compares against come from direct linear algebra
in `linalg`, never from these pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import BlockEncoding, apply_to_state
from .errors import OverlapError, PreconditionError, SpectrumError
from .hamsim import inversion_patch_amplitude, negative_power
from .ledger import CostLedger
from .linalg import normalize
from .vtime import (
    VSTA,
    VTAAResult,
    _dirichlet,
    ae_multiplicative,
    build_vtaa,
    gpe_split,
    mindful_amplify,
)

_ZERO_EIG = 1e-9


# -- singular value estimation -------------------------------------------------


@dataclass(frozen=True)
class SVEConfig:
    """Precision target Delta, failure probability eps, odd T >= 2 pi / Delta."""

    delta: float
    eps: float
    t_steps: int
    repetitions: int

    def __post_init__(self):
        if self.t_steps % 2 == 0 or self.t_steps < 2.0 * math.pi / self.delta:
            raise PreconditionError("T must be odd and at least 2 pi / Delta")


def sve_config(delta: float, eps: float) -> SVEConfig:
    t_steps = int(math.ceil(2.0 * math.pi / delta))
    if t_steps % 2 == 0:
        t_steps += 1
    reps = 2 * int(math.ceil(math.log2(1.0 / eps))) + 1
    return SVEConfig(delta=delta, eps=eps, t_steps=t_steps, repetitions=reps)


@dataclass(frozen=True)
class SVEBranch:
    """Outcome distribution of one singular component under the Dirichlet kernel."""

    sigma: float
    z_values: np.ndarray
    probs: np.ndarray
    beta_sq: float  # good-branch weight before measurement
    t_steps: int

    def estimate_of(self, z: int) -> float:
        return 2.0 * math.pi * abs(z) / self.t_steps

    def sample_estimate(self, rng, repetitions: int) -> float | None:
        """Median estimate over the repetitions that land in the good branch."""
        good = rng.random(repetitions) < self.beta_sq
        n_good = int(good.sum())
        if n_good == 0:
            return None
        zs = rng.choice(self.z_values, size=n_good, p=self.probs)
        return float(np.median([self.estimate_of(z) for z in zs]))


@dataclass(frozen=True)
class SVEOutcome:
    branches: tuple[SVEBranch, ...]
    config: SVEConfig
    ledger: CostLedger


def singular_value_estimation(
    u: BlockEncoding, psi, cfg: SVEConfig, span_tol: float = 1e-9
) -> SVEOutcome:
    """Dirichlet-kernel SVE of the encoded matrix on a state in its left-singular span.

    Per component sigma_j the estimate 2 pi z / T obeys |est - sigma| <= Delta
    with probability >= 1 - eps after the parallel repetitions.
    """
    a = u.applied()
    left, sing, right_h = np.linalg.svd(a)
    psi = normalize(np.asarray(psi, dtype=complex))
    if psi.size != a.shape[0]:
        raise PreconditionError("state dimension does not match the encoded matrix")
    coeffs = left.conj().T @ psi
    support = sing > _ZERO_EIG
    lost = float(np.sum(np.abs(coeffs[~support]) ** 2)) + (
        float(np.sum(np.abs(coeffs[len(sing):]) ** 2)) if len(coeffs) > len(sing) else 0.0
    )
    if lost > span_tol:
        raise SpectrumError(
            f"state has weight {lost} outside the left singular span"
        )
    t_steps = cfg.t_steps
    n = (t_steps - 1) // 2
    z = np.arange(-n, n + 1)
    branches = []
    for j in np.nonzero(support)[0]:
        sigma = float(sing[j])
        beta_sq = 0.5 + float(_dirichlet(n, np.array([2.0 * sigma]))[0]) / (2.0 * t_steps)
        amps = (
            _dirichlet(n, 2.0 * math.pi * z / t_steps + sigma)
            + _dirichlet(n, 2.0 * math.pi * z / t_steps - sigma)
        ) / (2.0 * t_steps)
        probs = amps**2 / beta_sq
        probs = probs / probs.sum()
        branches.append(
            SVEBranch(
                sigma=sigma,
                z_values=z,
                probs=probs,
                beta_sq=beta_sq,
                t_steps=t_steps,
            )
        )
    rounds = (u.alpha / cfg.delta) * max(1.0, math.log2(1.0 / cfg.eps)) * (u.ancillas + 1)
    return SVEOutcome(
        branches=tuple(branches), config=cfg, ledger=u.ledger.scaled(rounds)
    )


# -- variable-time linear systems ---------------------------------------------


@dataclass(frozen=True)
class QLSConfig:
    kappa: float
    eps: float
    stages: int
    eps_prime: float
    gamma_lower: float
    power: float = 1.0

    @property
    def alpha_max(self) -> float:
        return 2.0 * self.kappa**self.power


def qls_config(
    kappa: float, eps: float, gamma_lower: float = 1.0, power: float = 1.0
) -> QLSConfig:
    if kappa < 2:
        raise PreconditionError(f"kappa must be >= 2, got {kappa}")
    stages = int(math.ceil(math.log2(kappa))) + 1
    alpha_max = 2.0 * kappa**power
    return QLSConfig(
        kappa=kappa,
        eps=eps,
        stages=stages,
        eps_prime=eps / (stages * alpha_max),
        gamma_lower=gamma_lower,
        power=power,
    )


@dataclass(frozen=True)
class SolveResult:
    state: np.ndarray
    ledger: CostLedger
    profile_p_succ: float
    run_time: float
    vtaa: VTAAResult


def _check_spectrum(w, coeffs, kappa, gamma_lower, slack):
    kernel = np.abs(w) <= _ZERO_EIG
    bad_range = (~kernel) & (
        (np.abs(w) < 1.0 / kappa - slack) | (np.abs(w) > 1.0 + slack)
    )
    bad_weight = float(np.sum(np.abs(coeffs[bad_range]) ** 2))
    if bad_weight > 1e-9:
        raise SpectrumError(
            f"state weight {bad_weight:.3g} sits on eigenvalues outside "
            f"[-1, -1/kappa] U [1/kappa, 1] (kappa = {kappa})"
        )
    col_weight = float(np.sum(np.abs(coeffs[~kernel]) ** 2))
    if col_weight < gamma_lower * (1.0 - 1e-9) - 1e-12:
        raise OverlapError(
            f"overlap with the column space is {math.sqrt(max(col_weight, 0.0)):.4g}, "
            f"below the stated sqrt(gamma) = {math.sqrt(gamma_lower):.4g}"
        )


def _stage_phi(stage: int) -> float:
    # gapped phase estimation requires phi <= 1/4, so the dyadic schedule
    # starts at 1/8 and still reaches below 1/(2 kappa) within m stages
    return 2.0 ** -(stage + 2)


def _stage_times(u: BlockEncoding, cfg: QLSConfig, t_psi: float) -> tuple[float, ...]:
    """Cumulative stopping times: GPE at precision phi_j plus the inversion patch."""
    c = cfg.power
    times = []
    total = t_psi
    for j in range(1, cfg.stages + 1):
        inv_phi = 1.0 / _stage_phi(j)
        gpe_cost = inv_phi * max(1.0, math.log2(1.0 / cfg.eps_prime))
        patch_cost = (
            inv_phi
            * (1.0 + c)
            * max(1.0, math.log2(inv_phi * max(cfg.kappa**c, 2.0) / cfg.eps_prime))
        )
        total += u.alpha * (u.ancillas + 1) * (gpe_cost + patch_cost)
        times.append(total)
    return tuple(times)


def _build_power_vsta(u: BlockEncoding, psi, cfg: QLSConfig, t_psi: float):
    """The staged algorithm on the eigenbranches of psi: (eigenvectors, VSTA, p_succ bound).

    Labels are the live eigenbranches, |<v_k|psi>| > 1e-14.  Stage j runs GPE
    at precision phi_j, then on the stopped part the inversion patch.  GPE is
    evaluated once per stage, over the labels still running there (a0 > 0 at
    every earlier stage); the later entries of a stopped branch stay zero, as
    nothing of it runs, and a stage with nothing running is skipped.
    """
    w, v = u.eigh()
    coeffs = v.conj().T @ normalize(np.asarray(psi, dtype=complex))
    _check_spectrum(w, coeffs, cfg.kappa, cfg.gamma_lower, slack=u.epsilon + 1e-9)
    live = np.abs(coeffs) > 1e-14
    w = w[live]
    shape = (cfg.stages, len(w))
    good, bad, cont = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    running = np.ones(len(w), dtype=bool)
    for j in range(cfg.stages):
        labels = np.flatnonzero(running)
        if labels.size == 0:
            break
        phi = _stage_phi(j + 1)
        lams = w[labels]
        a0, a1 = gpe_split(lams, phi, cfg.eps_prime)
        g = np.array([inversion_patch_amplitude(float(lam), phi, cfg.power, cfg.alpha_max)
                      for lam in lams])
        good[j, labels] = a1 * g
        bad[j, labels] = a1 * np.sqrt(np.maximum(0.0, 1.0 - g * g))
        cont[j, labels] = a0
        running &= cont[j] > 0
    vsta = VSTA(
        times=_stage_times(u, cfg, t_psi), initial=coeffs[live], good=good, bad=bad, cont=cont
    )
    return v[:, live], vsta, 0.5 * cfg.gamma_lower / cfg.alpha_max**2


def _assemble_output(vtaa: VTAAResult, v_live: np.ndarray) -> np.ndarray:
    good = vtaa.good_label_amplitudes()
    if not np.any(good):
        raise OverlapError("no good-flagged amplitude survived the run")
    return normalize(v_live @ good)


def variable_time_apply(
    u: BlockEncoding,
    psi,
    cfg: QLSConfig,
    t_psi: float = 1.0,
    psi_cost: CostLedger | None = None,
) -> SolveResult:
    """Core VTAA pipeline preparing H^{-c} |psi> / ||H^{-c} |psi>|| for c = cfg.power.

    Builds the staged algorithm (gapped phase estimation at precision 2^-j,
    then the inversion patch W(2^-j, eps')), amplifies it variable-time, and
    uncomputes the ancillas, leaving the good component on the system register.
    """
    budget = cfg.eps / (
        cfg.kappa ** (1.0 + cfg.power)
        * max(1.0, math.log2(max(cfg.kappa ** max(1.0, cfg.power) / cfg.eps, 2.0))) ** 3
    )
    if u.epsilon > budget + 1e-15:
        raise PreconditionError(
            f"input encoding error {u.epsilon} exceeds the solver budget {budget:.3g}"
        )
    v_live, vsta, p_lower = _build_power_vsta(u, psi, cfg, t_psi)
    vtaa = build_vtaa(vsta, p_succ_lower=p_lower)
    state = _assemble_output(vtaa, v_live)
    ledger = u.ledger.scaled(vtaa.run_time / max(u.alpha * (u.ancillas + 1), 1e-300))
    if psi_cost is not None:
        ledger = ledger + psi_cost.scaled(max(1.0, vtaa.stage_uses[0]))
    return SolveResult(
        state=state,
        ledger=ledger,
        profile_p_succ=vtaa.profile.p_succ,
        run_time=vtaa.run_time,
        vtaa=vtaa,
    )


def _is_hermitian(u: BlockEncoding) -> bool:
    m = u.target if u.target is not None else u.applied()
    if not np.any(m != m.conj().T):
        return True  # exactly Hermitian: skip the SVD of the 2-norm
    return bool(np.linalg.norm(m - m.conj().T, 2) <= 1e-9 + 2.0 * u.epsilon)


def qls_solve(
    u: BlockEncoding, b, cfg: QLSConfig | None = None, kappa: float | None = None,
    eps: float = 1e-3, t_psi: float = 1.0,
) -> SolveResult:
    """Variable-time QLS: a state eps-close to H^{-1}|b> / ||H^{-1}|b>||.

    Non-Hermitian inputs are wrapped automatically through the complement
    encoding [[0, A], [A^dag, 0]], whose inverse carries A^{-1}|b> on the
    column block.
    """
    if cfg is None:
        cfg = qls_config(kappa, eps, gamma_lower=1.0, power=1.0)
    if not _is_hermitian(u):
        from .encoding import compact, complement

        d = u.system_dim
        wrapped = compact(complement(u))
        b_vec = normalize(np.asarray(b, dtype=complex))
        psi = np.zeros(2 * d, dtype=complex)
        psi[:d] = b_vec
        res = variable_time_apply(wrapped, psi, cfg, t_psi=t_psi)
        return SolveResult(
            state=normalize(res.state[d:]),
            ledger=res.ledger,
            profile_p_succ=res.profile_p_succ,
            run_time=res.run_time,
            vtaa=res.vtaa,
        )
    return variable_time_apply(u, b, cfg, t_psi=t_psi)


def pseudoinverse_state(
    u: BlockEncoding, psi, kappa: float, gamma_lower: float, eps: float,
    t_psi: float = 1.0, power: float = 1.0, psi_cost: CostLedger | None = None,
) -> SolveResult:
    """H^+ |psi> / ||H^+ |psi>|| given ||Pi_col(H) psi|| >= sqrt(gamma_lower)."""
    cfg = qls_config(kappa, eps, gamma_lower=gamma_lower, power=power)
    return variable_time_apply(u, psi, cfg, t_psi=t_psi, psi_cost=psi_cost)


@dataclass(frozen=True)
class NormEstimate:
    value: float  # Gamma: multiplicative estimate of ||H^-c psi||
    state: np.ndarray
    ledger: CostLedger


def qls_norm_estimate(
    u: BlockEncoding,
    psi,
    kappa: float,
    gamma_lower: float,
    eps: float,
    delta: float,
    rng,
    power: float = 1.0,
    t_psi: float = 1.0,
) -> NormEstimate:
    """(1 +/- eps)-estimate of ||H^{-c} |psi>|| with probability >= 1 - delta.

    Mindful amplification tracks the gain Gamma to eps/3 precision, a final
    amplitude estimation adds eps/3, and the product unwinds to the
    unamplified success amplitude times alpha_max.
    """
    cfg = qls_config(kappa, eps, gamma_lower=gamma_lower, power=power)
    v_live, vsta, p_lower = _build_power_vsta(u, psi, cfg, t_psi)
    mr = mindful_amplify(vsta, eps / 3.0, delta / 2.0, rng, p_succ_lower=p_lower)
    final_amp = mr.vtaa.schedule.stages[-1].amplitude_after
    est_final, ae_ledger = ae_multiplicative(final_amp, eps / 3.0, delta / 2.0, rng)
    norm_est = cfg.alpha_max * est_final / mr.gamma
    run_units = mr.vtaa.run_time + mr.estimation_time
    ledger = u.ledger.scaled(run_units / max(u.alpha * (u.ancillas + 1), 1e-300))
    state = _assemble_output(mr.vtaa, v_live)
    return NormEstimate(value=norm_est, state=state, ledger=ledger + ae_ledger)


def naive_solve(
    u: BlockEncoding, b, kappa: float, eps: float, c: float = 1.0
) -> SolveResult:
    """Baseline route: block-encode H^{-c}, then post-selected application.

    Amplitude amplification runs against the generic a-priori bound
    ||H^{-c} b|| / kappa^c >= kappa^{-c}, which is what gives this route its
    quadratic condition-number cost.
    """
    inv = negative_power(u, c, kappa, eps / 2.0)
    scaled = inv.rescaled(kappa**c)
    gamma = 1.0 / kappa**c
    res = apply_to_state(scaled, b, gamma_lower=gamma, eps=eps)
    return SolveResult(
        state=res.state,
        ledger=res.ledger,
        profile_p_succ=gamma**2,
        run_time=res.ledger.total_queries(),
        vtaa=None,
    )

