"""Variable-stopping-time algorithms, amplification, and estimation.

The simulator tracks amplitudes per label (an eigenbranch, in the solvers)
instead of materializing phase-estimation and clock registers.  Each stage is
diagonal in the labels: a running branch stops good, stops bad or keeps
running, with relative amplitudes held as stages x labels arrays.  The state
is a vector of running amplitudes plus stages x labels arrays of the stopped
good and bad ones, row j-1 for clock value j.  Gapped phase estimation enters
as a per-eigenbranch two-outcome split with amplitudes from the exact boosted
outcome distribution, so every probability the analysis uses is preserved
while the register count stays inside the qubit budget.  It is evaluated once
per stage, over the array of labels still running there.

Amplitude estimation samples its outcome from the exact canonical
distribution over M grid points (a sum of two Fejer kernels).  Each (angle, M)
table is a read-only float64 CDF, and the two most recent are cached.
Outcomes are drawn by inverting that CDF at uniforms from the generator,
exactly as Generator.choice does with p=.

All stochastic sampling flows from a caller-supplied seeded generator; runs
are reproducible bit-for-bit given a seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.stats import binom

from .errors import PreconditionError
from .ledger import CostLedger

# -- exact amplitude-amplification algebra ----------------------------------


def aa_amplitude(alpha: float, k: int) -> float:
    """Amplitude after k amplification steps: sin((2k+1) arcsin alpha), exactly."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"amplitude must lie in [0, 1], got {alpha}")
    if k < 0:
        raise ValueError("k must be non-negative")
    return math.sin((2 * k + 1) * math.asin(alpha))


# -- gapped phase estimation -------------------------------------------------


def _dirichlet(n: int, x: np.ndarray) -> np.ndarray:
    """sum_{t=-n}^{n} e^{itx} = sin((n+1/2)x)/sin(x/2), with its x -> 0 limit."""
    x = np.asarray(x, dtype=float)
    den = np.sin(x / 2.0)
    tiny = np.abs(den) < 1e-14
    den[tiny] = 1.0
    num = np.sin((n + 0.5) * x)
    num /= den
    num[tiny] = 2.0 * n + 1.0
    return num


# Dirichlet-kernel entries evaluated at once by gpe_split; bounds its temporaries.
_GPE_CHUNK = 1 << 16


def gpe_split(lam, phi: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact boosted GPE branch amplitudes (|alpha_0|, |alpha_1|) per eigenphase.

    Single-round phase estimation on each eigenphase in lam with grid spacing
    phi/8, thresholded at 1.5 phi, majority-boosted over 2 ceil(3 ln(1/eps)) + 1
    repetitions.  Guarantees |alpha_1| <= eps when |lam| <= phi and
    |alpha_0| <= eps when 2 phi <= |lam| <= 1.  Both outputs have lam's shape.
    """
    if not 0.0 < phi <= 0.25:
        raise PreconditionError(f"phi must lie in (0, 1/4], got {phi}")
    lam = np.asarray(lam, dtype=float)
    t_steps = int(math.ceil(16.0 * math.pi / phi))
    if t_steps % 2 == 0:
        t_steps += 1
    n = (t_steps - 1) // 2
    grid = 2.0 * math.pi * np.arange(-n, n + 1) / t_steps
    far = grid[np.abs(grid) >= 1.5 * phi]
    flat = lam.reshape(-1)
    p_large = np.empty(flat.size)
    rows = max(1, _GPE_CHUNK // far.size)
    for start in range(0, flat.size, rows):
        amps = _dirichlet(n, flat[start:start + rows, None] - far) / t_steps
        p_large[start:start + rows] = np.sum(amps**2, axis=1)
    np.clip(p_large, 0.0, 1.0, out=p_large)
    reps = 2 * int(math.ceil(3.0 * math.log(1.0 / min(eps, 0.5)))) + 1
    a1 = np.sqrt(np.clip(binom.sf((reps - 1) // 2, reps, p_large), 0.0, 1.0))
    a0 = np.sqrt(np.maximum(0.0, 1.0 - a1 * a1))
    return a0.reshape(lam.shape), a1.reshape(lam.shape)


# -- amplitude estimation -----------------------------------------------------


# Generator.choice's tolerance on the sum of a probability vector.
_PROB_ATOL = math.sqrt(np.finfo(np.float64).eps)


@lru_cache(maxsize=2)
def _ae_cdf(theta: float, m_ae: int) -> np.ndarray:
    """Read-only CDF of the canonical AE outcome y in [0, M) for angle theta.

    p(y) = (F(y/M - w) + F(y/M + w)) / 2 with w = theta/pi and F the Fejer
    kernel F(d) = sin^2(pi M d) / (M sin(pi d))^2, normalised to sum 1.  With
    x = wM, the numerator is sin^2(pi x) for every integer y, and the upper
    kernel is the lower one read at (M - y) mod M, so one pass of sin over the
    angles pi (y - x) / M, all within (-pi, pi), builds both.  The kernel is 1
    at the grid point within 1e-14 M of x, if there is one.  The CDF is formed
    as Generator.choice forms it (cumulative sum divided by its last entry),
    after choice's check that p is a probability vector, so searchsorted on it
    reproduces choice's draws.  Callers key it by theta rounded to 14 digits.
    """
    x = theta / math.pi * m_ae
    near = np.rint(x)  # NaN stays NaN and fails the probability check below
    num = math.sin(math.pi * (x - near)) ** 2
    p = np.arange(m_ae, dtype=float)
    p -= x
    p *= math.pi / m_ae
    np.sin(p, out=p)
    p *= m_ae
    np.square(p, out=p)
    tiny = int(near) % m_ae if abs(x - near) < 1e-14 * m_ae else None
    if tiny is not None:
        p[tiny] = 1.0  # before the division: its denominator may be 0, and so may num
    np.divide(num, p, out=p)
    if tiny is not None:
        p[tiny] = 1.0
    # p[y] = (p[y] + p[M - y]) / 2 in place; M is a power of 2, so 0 and M/2
    # are their own mirrors
    half = m_ae // 2
    np.add(p[1:half], p[:half:-1], out=p[1:half])
    p[1:half] *= 0.5
    p[half + 1:] = p[half - 1:0:-1]
    p /= p.sum()
    if not p.min() >= 0.0:
        raise ValueError("AE outcome probabilities are not non-negative")
    np.cumsum(p, out=p)
    if not abs(p[-1] - 1.0) <= _PROB_ATOL:
        raise ValueError("AE outcome probabilities do not sum to 1")
    p /= p[-1]
    p.flags.writeable = False
    return p


def ae_sample_estimates(amplitude: float, m_ae: int, reps: int, rng) -> np.ndarray:
    """Sample `reps` raw AE estimates sin(pi y / M) from the exact distribution.

    The outcomes y are drawn by inverting the cached CDF at `reps` uniforms,
    which is how `rng.choice(M, size=reps, p=p)` samples: the same draws,
    and the generator advances by the same `rng.random(reps)`.
    """
    theta = math.asin(min(max(amplitude, 0.0), 1.0))
    ys = _ae_cdf(round(theta, 14), m_ae).searchsorted(rng.random(reps), side="right")
    return np.sin(np.pi * ys / m_ae)


def _boost_reps(delta: float) -> int:
    return 2 * int(math.ceil(18.0 * math.log(1.0 / min(delta, 0.5)))) + 1


def ae_multiplicative(
    amplitude: float, rel: float, delta: float, rng, circuit: CostLedger | None = None
) -> tuple[float, CostLedger]:
    """Median-boosted AE estimate within (1 +/- rel) of `amplitude` w.p. >= 1-delta."""
    if amplitude <= 0:
        raise PreconditionError("multiplicative estimation needs a positive amplitude")
    m_ae = 1 << max(3, math.ceil(math.log2(2.0 * math.pi / (rel * amplitude))))
    reps = _boost_reps(delta)
    est = float(np.median(ae_sample_estimates(amplitude, m_ae, reps, rng)))
    base = circuit if circuit is not None else CostLedger.single("A")
    return est, base.scaled(m_ae * max(1.0, math.log2(1.0 / delta)))


# -- variable-stopping-time algorithms ---------------------------------------


@dataclass(frozen=True)
class VSTA:
    """A staged algorithm that acts on each label separately.

    Row j-1 of `good`, `bad` and `cont` (stages x labels) holds the relative
    amplitudes with which a branch still running at stage j stops good, stops
    bad or keeps running.  Stopped branches keep clock value j and are never
    touched again.  Whatever still runs after the last stage stops bad at t_m,
    so the total stopping probability is 1.
    """

    times: tuple[float, ...]
    initial: np.ndarray  # one amplitude per label
    good: np.ndarray
    bad: np.ndarray
    cont: np.ndarray

    def __post_init__(self):
        if not self.times or self.times[0] <= 0 or any(
            b <= a for a, b in zip(self.times, self.times[1:])
        ):
            raise PreconditionError("need strictly increasing stopping times, t_1 > 0")
        object.__setattr__(self, "initial", np.asarray(self.initial, dtype=complex))
        shape = (len(self.times), self.initial.size)
        for name in ("good", "bad", "cont"):
            rows = np.asarray(getattr(self, name))
            if rows.shape != shape:
                raise PreconditionError(f"{name} has shape {rows.shape}, expected {shape}")
            object.__setattr__(self, name, rows)
        total = float(np.vdot(self.initial, self.initial).real)
        if abs(total - 1.0) > 1e-9:
            raise PreconditionError(f"initial amplitudes must be normalized, got {total}")

    @property
    def stages(self) -> int:
        return len(self.times)


def _run(vsta: VSTA):
    """Run the stages in order, yielding (j, running, good, bad) after stage j.

    `good` and `bad` (stages x labels) hold the stopped amplitudes, row j-1
    for clock value j.  The three arrays are updated in place, so a caller may
    rescale them before the run resumes.
    """
    running = vsta.initial.copy()
    good = np.zeros(vsta.good.shape, dtype=complex)
    bad = np.zeros_like(good)
    for j in range(vsta.stages):
        good[j] = running * vsta.good[j]
        bad[j] = running * vsta.bad[j]
        running *= vsta.cont[j]
        if j == vsta.stages - 1:
            # the remainder stops bad as a branch of its own, so its probability
            # adds to the stopped-bad one (no phase of a bad branch is read)
            bad[j] = np.sqrt(np.abs(bad[j]) ** 2 + np.abs(running) ** 2)
            running[:] = 0.0
        yield j + 1, running, good, bad


def _sq(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


@dataclass(frozen=True)
class StoppingProfile:
    """Exact stopping-time statistics of an unamplified run."""

    times: tuple[float, ...]
    p_stop_at: tuple[float, ...]
    p_maybe_good: tuple[float, ...]
    p_succ: float
    t_norm2: float

    def to_dict(self) -> dict:
        return {
            "times": list(self.times),
            "p_stop_at": list(self.p_stop_at),
            "p_maybe_good": list(self.p_maybe_good),
            "p_succ": self.p_succ,
            "t_norm2": self.t_norm2,
        }


def run_unamplified(vsta: VSTA) -> tuple[np.ndarray, np.ndarray]:
    """Stopped good and bad amplitudes (stages x labels) without amplification."""
    for _, _, good, bad in _run(vsta):
        pass
    return good, bad


def stopping_profile(vsta: VSTA) -> StoppingProfile:
    p_mg = []
    for _, running, good, bad in _run(vsta):
        p_mg.append(_sq(running) + _sq(good))
    p_stop = np.sum(np.abs(good) ** 2 + np.abs(bad) ** 2, axis=1)
    t_norm2 = math.sqrt(sum(t * t * p for t, p in zip(vsta.times, p_stop)))
    return StoppingProfile(
        times=vsta.times,
        p_stop_at=tuple(map(float, p_stop)),
        p_maybe_good=tuple(p_mg),
        p_succ=p_mg[-1],
        t_norm2=t_norm2,
    )


@dataclass(frozen=True)
class StageRecord:
    stage: int
    target: float
    amplitude_before: float
    amplitude_after: float
    k: int
    q: float  # query multiplier 2k+1
    a: float  # amplification achieved
    o: float  # overhead q/a


@dataclass(frozen=True)
class AmplificationSchedule:
    stages: tuple[StageRecord, ...]
    e_bound: float  # measured E
    o_bound: float  # measured product of overheads

    def to_dict(self) -> dict:
        return {
            "stages": [vars(s) for s in self.stages],
            "E": self.e_bound,
            "O": self.o_bound,
        }


def stage_target(j: int, m: int) -> float:
    """Theta(max[1/sqrt(m), 1/(sqrt(m-j+1)(1+ln(m-j+1)))]) with constants (1/2, 1)."""
    r = m - j + 1
    return min(1.0, max(1.0 / math.sqrt(m), 1.0 / (math.sqrt(r) * (1.0 + math.log(r)))))


def _choose_k(amplitude: float, target: float) -> int:
    """Largest k not overamplifying with sin((2k+1)theta) <= target, nudged up
    if the landing point falls below half the target."""
    if amplitude >= target or not amplitude >= sys.float_info.min:
        return 0  # below the smallest normal float, pi / (2 theta) overflows
    theta = math.asin(min(1.0, amplitude))
    k_max = max(0, math.floor((math.pi / (2.0 * theta) - 1.0) / 2.0))
    # sin((2k+1) theta) increases with k up to k_max: the closed form is at
    # most one step off the float comparison
    k = min(k_max, max(0, math.floor((math.asin(target) / theta - 1.0) / 2.0)))
    if k > 0 and aa_amplitude(amplitude, k) > target:
        k -= 1
    elif k < k_max and aa_amplitude(amplitude, k + 1) <= target:
        k += 1
    if aa_amplitude(amplitude, k) < target / 2.0 and k < k_max:
        k += 1
    return k


@dataclass(frozen=True)
class VTAAResult:
    """Amplified algorithm output: stopped amplitudes plus cost accounting."""

    vsta: VSTA
    profile: StoppingProfile
    schedule: AmplificationSchedule
    good: np.ndarray  # stopped amplitudes, stages x labels
    bad: np.ndarray
    stage_uses: tuple[float, ...]
    run_time: float  # total time-unit cost of the amplified algorithm

    def good_label_amplitudes(self) -> np.ndarray:
        """Per-label norm of the good component over the stages, phase from its largest branch."""
        mag = np.abs(self.good)
        lead = self.good[mag.argmax(axis=0), np.arange(mag.shape[1])]
        phase = np.divide(lead, np.abs(lead), out=np.zeros_like(lead), where=lead != 0)
        return phase * np.sqrt(np.sum(mag**2, axis=0))


def build_vtaa(vsta: VSTA, p_succ_lower: float = 0.0) -> VTAAResult:
    """Variable-time amplitude amplification with the staged-target schedule.

    Stage j is amplified to the profile target.  Amplification scales the
    running and good amplitudes by one factor and the bad ones by another, so
    the good part of the output is exactly proportional to the unamplified
    one.  The schedule is deterministic given the measured amplitudes.
    """
    profile = stopping_profile(vsta)
    if profile.p_succ < p_succ_lower * (1.0 - 1e-9):
        raise PreconditionError(
            f"success probability {profile.p_succ} below stated bound {p_succ_lower}"
        )
    m = vsta.stages
    records = []
    for j, running, good, bad in _run(vsta):
        before = math.sqrt(_sq(running) + _sq(good))
        target = stage_target(j, m)
        k = _choose_k(before, target)
        if k > 0:
            theta = math.asin(min(1.0, before))
            s = math.sin((2 * k + 1) * theta) / max(math.sin(theta), 1e-300)
            cos_theta = math.cos(theta)
            c = math.cos((2 * k + 1) * theta) / cos_theta if cos_theta > 1e-15 else 0.0
            running *= s
            good *= s
            bad *= c
        after = math.sqrt(_sq(running) + _sq(good))
        gain = after / before if before > 0 else 1.0
        records.append(
            StageRecord(
                stage=j,
                target=target,
                amplitude_before=before,
                amplitude_after=after,
                k=k,
                q=2.0 * k + 1.0,
                a=gain,
                o=(2.0 * k + 1.0) / gain if gain > 0 else 2.0 * k + 1.0,
            )
        )
    # exact usage counts: A'_m uses segment j prod_{i>=j} q_i times
    q = [r.q for r in records]
    uses = []
    acc = 1.0
    for qj in reversed(q):
        acc *= qj
        uses.append(acc)
    uses.reverse()
    durations = [vsta.times[0]] + [
        b - a for a, b in zip(vsta.times, vsta.times[1:])
    ]
    run_time = sum(u * d for u, d in zip(uses, durations))
    amp_after = [1.0] + [r.amplitude_after for r in records]
    e_bound = max(amp_after[-1] / max(amp_after[j - 1], 1e-300) for j in range(1, m + 1))
    o_bound = float(np.prod([r.o for r in records]))
    return VTAAResult(
        vsta=vsta,
        profile=profile,
        schedule=AmplificationSchedule(stages=tuple(records), e_bound=e_bound, o_bound=o_bound),
        good=good,
        bad=bad,
        stage_uses=tuple(uses),
        run_time=run_time,
    )


def corollary_time_bound(result: VTAAResult) -> float:
    """E O (T_max + (t_1 + ||T||_2 sqrt(ln(T_max/t_1))) / sqrt(p_succ))."""
    profile = result.profile
    t1, tmax = profile.times[0], profile.times[-1]
    i_bound = t1 + profile.t_norm2 * math.sqrt(max(0.0, math.log(tmax / t1)))
    return (
        result.schedule.e_bound
        * result.schedule.o_bound
        * (tmax + i_bound / math.sqrt(max(profile.p_succ, 1e-300)))
    )


@dataclass(frozen=True)
class MindfulResult:
    """Amplified algorithm plus a multiplicative estimate of the total gain."""

    vtaa: VTAAResult
    gamma: float
    true_ratio: float
    estimation_time: float


def mindful_amplify(
    vsta: VSTA,
    eps: float,
    delta: float,
    rng,
    p_succ_lower: float = 0.0,
) -> MindfulResult:
    """Amplify to Theta(1) final amplitude while estimating the gain Gamma.

    Gamma is the product of per-stage ratio estimates, each obtained from two
    amplitude estimations at relative precision eps/(5m), so that
    ||Pi A' 0>|| / (Gamma ||Pi A 0>||) lies in [1-eps, 1+eps] with probability
    at least 1 - delta.
    """
    result = build_vtaa(vsta, p_succ_lower=p_succ_lower)
    m = vsta.stages
    rel = eps / (5.0 * m)
    d_each = delta / (2.0 * m)
    gamma = 1.0
    est_time = 0.0
    for rec in result.schedule.stages:
        if rec.amplitude_before <= 0 or rec.amplitude_after <= 0:
            continue
        num, led1 = ae_multiplicative(rec.amplitude_after, rel, d_each, rng)
        den, led2 = ae_multiplicative(rec.amplitude_before, rel, d_each, rng)
        gamma *= num / den
        est_time += led1.total_queries() + led2.total_queries()
    true_ratio = float(np.prod([r.a for r in result.schedule.stages]))
    return MindfulResult(
        vtaa=result, gamma=gamma, true_ratio=true_ratio, estimation_time=est_time
    )
