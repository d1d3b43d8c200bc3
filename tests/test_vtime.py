import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import binom

from blockenc import vtime as vt
from blockenc.encoding import encode
from blockenc.errors import PreconditionError
from blockenc.fixtures import random_hermitian_spectrum
from blockenc.solvers import qls_norm_estimate


def two_stage_toy(
    p_stop_bad_1: float,
    p_good_2: float,
    t1: float = 1.0,
    t2: float = 4.0,
    p_good_1: float = 0.0,
) -> vt.VSTA:
    """Two-stage toy: stage 1 stops bad (and optionally good) mass, stage 2 splits the rest."""
    rest = max(0.0, 1.0 - p_stop_bad_1 - p_good_1)
    frac_good = p_good_2 / rest if rest > 0 else 0.0
    if frac_good > 1.0:
        raise PreconditionError("p_good_2 exceeds the surviving mass")
    return vt.VSTA(
        times=(t1, t2),
        initial=[1.0],
        good=[[math.sqrt(p_good_1)], [math.sqrt(frac_good)]],
        bad=[[math.sqrt(p_stop_bad_1)], [math.sqrt(1.0 - frac_good)]],
        cont=[[math.sqrt(rest)], [0.0]],
    )


def single_stage(t: float) -> vt.VSTA:
    """One stage that stops every branch good at time t."""
    return vt.VSTA(times=(t,), initial=[1.0], good=[[1.0]], bad=[[0.0]], cont=[[0.0]])


def aa_amplify(state: np.ndarray, projector: np.ndarray, k: int) -> np.ndarray:
    """k exact amplitude-amplification steps on an explicit state.

    The explicit-state reference that `vt.aa_amplitude` is checked against.
    The amplified state stays in span{P psi, (I-P) psi}; components inside the
    projector scale uniformly, so relative structure is preserved.
    """
    psi = np.asarray(state, dtype=complex)
    good = projector @ psi
    bad = psi - good
    a = np.linalg.norm(good)
    theta = math.asin(min(1.0, a))
    s = math.sin((2 * k + 1) * theta)
    c = math.cos((2 * k + 1) * theta)
    out = np.zeros_like(psi)
    if a > 0:
        out += good / a * s
    nb = np.linalg.norm(bad)
    if nb > 0:
        out += bad / nb * c
    return out


def test_aa_amplitude_examples():
    assert abs(vt.aa_amplitude(0.5, 1) - 1.0) < 1e-12
    assert abs(vt.aa_amplitude(0.1, 2) - math.sin(5 * math.asin(0.1))) < 1e-15
    assert vt.aa_amplitude(0.3, 0) == pytest.approx(0.3)


def test_aa_lower_bound_example():
    amp = vt.aa_amplitude(0.1, 2)
    # sqrt(1 - (2k+1)^2 a^2 / 3) (2k+1) a, for k <= pi / (4 asin a) - 1/2
    assert 2 <= math.pi / (4 * math.asin(0.1)) - 0.5
    assert amp >= math.sqrt(1 - 25 * 0.01 / 3) * 5 * 0.1
    assert amp == pytest.approx(math.sin(5 * math.asin(0.1)), abs=1e-12)


def test_aa_amplify_state_form():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    proj = np.zeros((4, 4))
    proj[0, 0] = proj[1, 1] = 1.0
    alpha = np.linalg.norm(proj @ psi)
    for k in range(3):
        out = aa_amplify(psi, proj, k)
        assert abs(np.linalg.norm(proj @ out) - abs(vt.aa_amplitude(min(alpha, 1.0), k))) < 1e-12
        # relative structure within the projector is preserved
        ratio = (proj @ out)[0] / (proj @ psi)[0]
        assert np.allclose(proj @ out, ratio * (proj @ psi))


def test_aa_exact_algebra_grid():
    rng = np.random.default_rng(1)
    for _ in range(200):
        alpha = rng.uniform(0.01, 0.99)
        k = int(rng.integers(0, 6))
        if (2 * k + 1) * math.asin(alpha) > math.pi / 2:
            continue
        psi = np.array([alpha, math.sqrt(1 - alpha**2)])
        proj = np.diag([1.0, 0.0])
        out = aa_amplify(psi, proj, k)
        assert abs(out[0] - vt.aa_amplitude(alpha, k)) < 1e-12


def test_ratio_check_small_angle_limit():
    amp = vt.aa_amplitude(1e-6, 3)
    ratio = 7 * 1e-6 / amp
    assert ratio == pytest.approx(1.0, abs=1e-9)
    assert ratio <= 1 + 1.5 * amp**2


def test_ratio_check_example():
    amp = vt.aa_amplitude(0.3, 1)
    ratio = 3 * 0.3 / amp
    assert ratio == pytest.approx(3 * 0.3 / math.sin(3 * math.asin(0.3)), abs=1e-12)
    assert ratio <= 1 + 1.5 * math.sin(3 * math.asin(0.3)) ** 2


def test_ratio_check_boundary():
    # (2k+1) arcsin(alpha) = pi/2 exactly: ratio bounded by 1 + 3/2
    alpha = math.sin(math.pi / 6)
    amp = vt.aa_amplitude(alpha, 1)
    assert 1 + 1.5 * amp**2 == pytest.approx(2.5)
    assert 3 * alpha / amp <= 2.5


def test_ratio_check_grid():
    for alpha in np.linspace(0.02, 0.9, 25):
        kmax = int((math.pi / (2 * math.asin(alpha)) - 1) / 2)
        for k in range(kmax + 1):
            amp = vt.aa_amplitude(float(alpha), k)
            assert (2 * k + 1) * alpha / amp <= 1 + 1.5 * amp**2 + 1e-12


def test_ratio_check_overamplification_rejected():
    # the ratio lemma needs (2k+1) arcsin(alpha) <= pi/2; the schedule never
    # picks a k past it, even when the target is out of reach
    assert vt._choose_k(0.9, 1.0) == 0
    for p1, pg in [(0.3, 0.04), (0.6, 0.01), (0.1, 0.25), (0.95, 0.01)]:
        for rec in vt.build_vtaa(two_stage_toy(p1, pg)).schedule.stages:
            assert (2 * rec.k + 1) * math.asin(rec.amplitude_before) <= math.pi / 2 + 1e-12


def test_gpe_contract_examples():
    for eps in (1e-2, 1e-4):
        a0, a1 = vt.gpe_split(0.05, 0.1, eps)
        assert a1 <= eps
        a0, a1 = vt.gpe_split(0.3, 0.1, eps)
        assert a0 <= eps
        a0, a1 = vt.gpe_split(0.15, 0.1, eps)  # in the gap: any split accepted
        assert abs(a0**2 + a1**2 - 1.0) < 1e-12


def test_gpe_contract_sweep():
    eps = 1e-3
    for phi in (0.25, 0.1, 2.0**-5):
        for lam in np.linspace(0.0, phi, 7):
            assert vt.gpe_split(float(lam), phi, eps)[1] <= eps
            assert vt.gpe_split(float(-lam), phi, eps)[1] <= eps
        for lam in np.linspace(2 * phi, 1.0, 7):
            assert vt.gpe_split(float(lam), phi, eps)[0] <= eps


def test_gpe_transform_on_unitary():
    # the GPE split of each eigenbranch of a unitary, keyed by its eigenphase
    u = np.diag(np.exp(1j * np.array([0.05, 0.3])))
    splits = {round(lam, 3): vt.gpe_split(lam, 0.1, 1e-3)
              for lam in map(float, np.angle(np.diag(u)))}
    assert splits[0.05][1] <= 1e-3
    assert splits[0.3][0] <= 1e-3
    with pytest.raises(PreconditionError):
        vt.gpe_split(0.05, 0.3, 1e-3)


def _scalar_gpe_split(lam: float, phi: float, eps: float) -> tuple[float, float]:
    # the one-eigenphase form of gpe_split, kept as its bit-for-bit reference
    t_steps = int(math.ceil(16.0 * math.pi / phi))
    if t_steps % 2 == 0:
        t_steps += 1
    n = (t_steps - 1) // 2
    grid = 2.0 * math.pi * np.arange(-n, n + 1) / t_steps
    amps = vt._dirichlet(n, lam - grid) / t_steps
    p_large = float(np.sum(amps[np.abs(grid) >= 1.5 * phi] ** 2))
    p_large = min(max(p_large, 0.0), 1.0)
    reps = 2 * int(math.ceil(3.0 * math.log(1.0 / min(eps, 0.5)))) + 1
    a1_sq = float(binom.sf((reps - 1) // 2, reps, p_large))
    a1 = math.sqrt(min(max(a1_sq, 0.0), 1.0))
    return math.sqrt(max(0.0, 1.0 - a1 * a1)), a1


def _assert_matches_scalar(lam: np.ndarray, phi: float, eps: float) -> None:
    a0, a1 = vt.gpe_split(lam, phi, eps)
    assert a0.shape == a1.shape == lam.shape
    want = np.array([_scalar_gpe_split(float(x), phi, eps) for x in lam.ravel()])
    assert np.array_equal(a0.ravel(), want[:, 0])
    assert np.array_equal(a1.ravel(), want[:, 1])


def test_gpe_split_array_equals_scalar_bit_for_bit():
    rng = np.random.default_rng(28)
    for k in range(3, 9):
        phi = 2.0**-k
        edges = [0.0, 1e-17, -1e-17, phi, -phi, 1.5 * phi, -1.5 * phi, 2 * phi, -2 * phi,
                 1.0, -1.0]
        near = rng.normal(0.0, phi / 4, 12) + np.repeat([phi, -phi], 6)
        lam = np.concatenate([edges, rng.uniform(-1.0, 1.0, 16), near])
        for eps in (1e-2, 1e-3, 1e-9):
            _assert_matches_scalar(lam, phi, eps)
    # a 0-d eigenphase gives 0-d amplitudes, and a 2-D array keeps its shape
    a0, a1 = vt.gpe_split(0.3, 0.1, 1e-3)
    assert a0.shape == a1.shape == ()
    assert (float(a0), float(a1)) == _scalar_gpe_split(0.3, 0.1, 1e-3)
    _assert_matches_scalar(rng.uniform(-1.0, 1.0, (3, 4)), 2.0**-5, 1e-3)


def test_gpe_split_crosses_chunk_boundaries_bit_for_bit():
    phi = 2.0**-3
    t_steps = int(math.ceil(16.0 * math.pi / phi)) | 1
    grid = 2.0 * math.pi * np.arange(-(t_steps // 2), t_steps // 2 + 1) / t_steps
    rows = vt._GPE_CHUNK // int(np.sum(np.abs(grid) >= 1.5 * phi))
    lam = np.random.default_rng(7).uniform(-1.0, 1.0, 2 * rows + 3)
    _assert_matches_scalar(lam, phi, 1e-3)


def test_amplitude_estimate_zero():
    # a zero amplitude estimates as zero, and the multiplicative form rejects it
    rng = np.random.default_rng(2)
    for m_ae in (16, 64, 256):
        assert np.all(vt.ae_sample_estimates(0.0, m_ae, 25, rng) == 0.0)
    with pytest.raises(PreconditionError):
        vt.ae_multiplicative(0.0, 0.1, 0.1, rng)


def test_amplitude_estimate_constant_precision():
    # true amplitude 0.5: multiplicative estimate lands in [0.25, 1] w.p. >= 1 - delta
    rng = np.random.default_rng(3)
    fails = 0
    for _ in range(1000):
        est, _ = vt.ae_multiplicative(0.5, 0.5, 0.05, rng)
        if not 0.25 <= est <= 1.0:
            fails += 1
    assert fails / 1000 <= 0.05


def test_amplitude_estimate_ledger_doubles_per_bit():
    # one more bit of relative precision doubles the AE grid and its ledger
    rng = np.random.default_rng(4)
    _, l1 = vt.ae_multiplicative(0.3, 0.1, 0.1, rng)
    _, l2 = vt.ae_multiplicative(0.3, 0.05, 0.1, rng)
    assert l2.total_queries() == pytest.approx(2 * l1.total_queries())


def _choice_probabilities(theta: float, m_ae: int) -> np.ndarray:
    """The AE outcome distribution as it was fed to rng.choice before the CDF cache.

    Both kernels are evaluated at large arguments, as the sampler once did.
    """
    y = np.arange(m_ae)
    omega = theta / math.pi

    def kernel(delta):
        delta = np.mod(delta + 0.5, 1.0) - 0.5
        tiny = np.abs(delta) < 1e-14
        num = np.sin(np.pi * m_ae * delta) ** 2
        den = (m_ae * np.sin(np.pi * delta)) ** 2
        return np.where(tiny, 1.0, num / np.where(tiny, 1.0, den))

    p = 0.5 * (kernel(y / m_ae - omega) + kernel(y / m_ae + omega))
    return p / p.sum()


def _choice_cdf(theta: float, m_ae: int) -> np.ndarray:
    cdf = _choice_probabilities(theta, m_ae).cumsum()  # as Generator.choice forms it
    cdf /= cdf[-1]
    return cdf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "amplitude, m_ae, reps, seed",
    [
        (0.3, 64, 37, 0),
        (math.sin(math.pi / 4), 8, 21, 1),  # omega * M = 2: the kernel's tiny branch
        (0.0, 16, 9, 2),  # omega = 0: tiny branch at y = 0, numerator 0
        (1.0, 32, 9, 3),  # omega = 1/2: tiny branch at y = M/2
        (0.0123, 1 << 12, 109, 4),
        (0.7, 1 << 16, 55, 5),
        (0.37, 1 << 20, 2000, 6),
    ],
)
def test_ae_samples_match_choice_draw_for_draw(amplitude, m_ae, reps, seed):
    vt._ae_cdf.cache_clear()
    theta = round(math.asin(amplitude), 14)
    p = _choice_probabilities(theta, m_ae)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # a cache miss, then a hit
        got = vt.ae_sample_estimates(amplitude, m_ae, reps, rng)
        want = np.sin(np.pi * ref.choice(m_ae, size=reps, p=p) / m_ae)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state
    # the reference's large-argument numerators carry ~1e-11 of rounding at M = 2^20
    atol = 1e-9 if m_ae >= 1 << 20 else 1e-13
    assert np.max(np.abs(vt._ae_cdf(theta, m_ae) - _choice_cdf(theta, m_ae))) <= atol


def test_ae_cdf_cache_keeps_the_two_newest():
    vt._ae_cdf.cache_clear()
    assert vt._ae_cdf.cache_info().maxsize == 2
    first = vt._ae_cdf(0.1, 64)
    assert vt._ae_cdf(0.1, 64) is first and not first.flags.writeable
    second = vt._ae_cdf(0.2, 64)
    vt._ae_cdf(0.3, 64)  # evicts the oldest key, 0.1
    assert vt._ae_cdf(0.2, 64) is second
    assert vt._ae_cdf.cache_info().currsize == 2
    again = vt._ae_cdf(0.1, 64)
    assert again is not first and np.array_equal(again, first)


def test_ae_cdf_is_read_only():
    cdf = vt._ae_cdf(0.4, 64)
    assert not cdf.flags.writeable
    with pytest.raises(ValueError):
        cdf[0] = 0.0
    assert vt._ae_cdf(0.4, 64) is cdf
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)


def test_ae_cdf_rejects_non_probabilities():
    with pytest.raises(ValueError, match="probabilities"):
        vt._ae_cdf(float("nan"), 8)


def test_norm_estimate_unchanged_by_the_reference_table(monkeypatch):
    # a whole mindful-amplification run draws the same AE outcomes from the
    # reference formula as from the sampler's table
    rng = np.random.default_rng(0)
    h = random_hermitian_spectrum(rng, 8, 4.0)
    psi = rng.normal(size=8)
    psi /= np.linalg.norm(psi)

    def estimate():
        est = qls_norm_estimate(encode(h, 1.0), psi, 4.0, 1.0, 1e-3, 0.1, np.random.default_rng(1))
        return est.value

    value = estimate()
    monkeypatch.setattr(vt, "_ae_cdf", _choice_cdf)
    assert estimate() == value


def test_stopping_profile_single_stage():
    prof = vt.stopping_profile(single_stage(2.0))
    assert prof.p_succ == pytest.approx(1.0)
    assert prof.t_norm2 == pytest.approx(2.0)


def test_stopping_profile_two_stage():
    toy = two_stage_toy(0.3, 0.04)
    prof = vt.stopping_profile(toy)
    assert prof.p_stop_at == pytest.approx((0.3, 0.7))
    assert prof.p_succ == pytest.approx(0.04)
    # ||T||_2^2 = sum p_j t_j^2
    assert prof.t_norm2**2 == pytest.approx(0.3 * 1.0 + 0.7 * 16.0)


def test_vsta_validation():
    rows = np.zeros((2, 1))
    with pytest.raises(PreconditionError):
        vt.VSTA(times=(2.0, 1.0), initial=[1.0], good=rows, bad=rows, cont=rows)
    with pytest.raises(PreconditionError):
        vt.VSTA(times=(1.0,), initial=[2.0], good=[[1.0]], bad=[[0.0]], cont=[[0.0]])
    with pytest.raises(PreconditionError):  # one row per stage, one column per label
        vt.VSTA(times=(1.0, 2.0), initial=[1.0], good=rows, bad=rows, cont=np.zeros((2, 2)))


def test_build_vtaa_theta1_input():
    # success already Theta(1): no amplification steps scheduled
    res = vt.build_vtaa(single_stage(1.0))
    assert all(rec.k == 0 for rec in res.schedule.stages)
    assert res.run_time == pytest.approx(1.0)


def test_build_vtaa_success_bound():
    toy = two_stage_toy(0.3, 0.04)
    with pytest.raises(PreconditionError):
        vt.build_vtaa(toy, p_succ_lower=0.5)


def test_vtaa_proportionality():
    for p1, pg in [(0.3, 0.04), (0.6, 0.01), (0.1, 0.25)]:
        res = vt.build_vtaa(two_stage_toy(p1, pg))
        good_un, _ = vt.run_unamplified(res.vsta)
        nonzero = good_un != 0
        amp = dict(enumerate(res.good[nonzero]))
        un = dict(enumerate(good_un[nonzero]))
        ratios = [amp[k] / un[k] for k in un]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)
        fid = abs(sum(np.conj(un[k] / np.linalg.norm(list(un.values()))) * amp[k]
                      for k in un)) / np.linalg.norm(list(amp.values()))
        assert fid >= 1 - 1e-9


def test_vtaa_cheap_early_stop():
    # most mass stops bad at t_1: cost stays below the naive t_m / sqrt(p_succ)
    toy = two_stage_toy(0.95, 0.01, t1=1.0, t2=50.0)
    res = vt.build_vtaa(toy)
    naive = 50.0 / math.sqrt(0.01)
    assert res.run_time <= naive
    assert res.run_time <= vt.corollary_time_bound(res)


def test_vtaa_stage_targets():
    toy = two_stage_toy(0.3, 0.01, t1=1.0, t2=4.0)
    res = vt.build_vtaa(toy)
    for rec in res.schedule.stages:
        target = vt.stage_target(rec.stage, 2)
        assert rec.target == pytest.approx(target)
        # landed in [target/2, 1] (or started above target with k = 0)
        if rec.k > 0:
            assert rec.amplitude_after >= target / 2 - 1e-12


def test_vtaa_ledger_bound_suite():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p1 = float(rng.uniform(0.05, 0.9))
        pg = float(rng.uniform(0.005, (1 - p1) * 0.9))
        t2 = float(rng.uniform(2.0, 40.0))
        res = vt.build_vtaa(two_stage_toy(p1, pg, t1=1.0, t2=t2))
        assert res.run_time <= vt.corollary_time_bound(res) * (1 + 1e-9)


def test_overhead_product_exp3c_bound():
    # Lemma 12 chain: prod o_j <= exp(sum 3/2 amp_j^2) <= exp(3 C), from the
    # per-stage ratio lemma o_j <= 1 + 3/2 amp_j^2
    rng = np.random.default_rng(9)
    cases = [(0.3, 0.04), (0.5, 0.02), (0.7, 0.1)]
    for _ in range(12):
        p1 = float(rng.uniform(0.05, 0.9))
        cases.append((p1, float(rng.uniform(0.005, (1 - p1) * 0.9))))
    for p1, pg in cases:
        res = vt.build_vtaa(two_stage_toy(p1, pg))
        m = 2
        c_const = 0.0
        exponent = 0.0
        for rec in res.schedule.stages:
            amp_sq = rec.amplitude_after**2
            assert rec.o <= 1 + 1.5 * amp_sq
            exponent += 1.5 * amp_sq
            profile = max(1.0 / m, 1.0 / ((m - rec.stage + 1) *
                          (1 + math.log(m - rec.stage + 1)) ** 2))
            c_const = max(c_const, 1.5 * amp_sq / profile)
        assert res.schedule.o_bound <= math.exp(exponent) + 1e-9
        assert res.schedule.o_bound <= math.exp(3.0 * c_const) + 1e-9


def test_mindful_single_stage():
    rng = np.random.default_rng(6)
    res = vt.mindful_amplify(single_stage(1.0), 0.1, 0.1, rng)
    assert 0.9 <= res.gamma / res.true_ratio <= 1.1


def test_mindful_telescoping_identity():
    res = vt.build_vtaa(two_stage_toy(0.3, 0.04))
    prod = np.prod([r.a for r in res.schedule.stages])
    final = res.schedule.stages[-1].amplitude_after
    assert prod == pytest.approx(final / math.sqrt(res.profile.p_succ))


def test_mindful_two_stage_contract():
    fails = 0
    runs = 300
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        res = vt.mindful_amplify(two_stage_toy(0.3, 0.04), 0.1, 0.1, rng)
        final = res.vtaa.schedule.stages[-1].amplitude_after
        ratio = final / (res.gamma * math.sqrt(res.vtaa.profile.p_succ))
        if not 0.9 <= ratio <= 1.1:
            fails += 1
        assert final >= 0.5  # amplified to Theta(1)
    assert fails / runs <= 0.1


@st.composite
def array_vstas(draw) -> vt.VSTA:
    """1-6 stages, 1-8 labels, every row |good|^2 + |bad|^2 + |cont|^2 = 1, some full stops."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    unit = st.floats(0.0, 1.0)
    raw = draw(hnp.arrays(float, (m, n, 3), elements=unit))
    raw[..., 2][draw(hnp.arrays(bool, (m, n)))] = 0.0  # these branches stop in full
    raw[np.linalg.norm(raw, axis=-1) < 1e-3] = (0.0, 1.0, 0.0)
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    signs = draw(hnp.arrays(float, (m, n, 3), elements=st.sampled_from([-1.0, 1.0])))
    raw *= signs
    initial = draw(hnp.arrays(complex, n, elements=st.complex_numbers(max_magnitude=1.0)))
    if np.linalg.norm(initial) < 1e-3:
        initial[0] = 1.0
    times = np.cumsum(draw(hnp.arrays(float, m, elements=st.floats(0.5, 10.0))))
    return vt.VSTA(
        times=tuple(map(float, times)),
        initial=initial / np.linalg.norm(initial),
        good=raw[..., 0],
        bad=raw[..., 1],
        cont=raw[..., 2],
    )


@settings(deadline=None, max_examples=200, derandomize=True)
@given(array_vstas())
@example(vt.VSTA(times=(1.0,), initial=[1.0], good=[[1e-160]], bad=[[1.0]], cont=[[0.0]]))
def test_array_vsta_invariants(vsta):
    prof = vt.stopping_profile(vsta)
    assert sum(prof.p_stop_at) == pytest.approx(1.0, abs=1e-9)
    assert all(b <= a + 1e-12 for a, b in zip(prof.p_maybe_good, prof.p_maybe_good[1:]))
    res = vt.build_vtaa(vsta)
    good_un, bad_un = vt.run_unamplified(vsta)
    # uniform scaling: the amplified good component is a positive multiple of the unamplified one
    norm_un = np.linalg.norm(good_un)
    scale = np.linalg.norm(res.good) / norm_un if norm_un > 0 else 0.0
    assert np.allclose(res.good, scale * good_un, rtol=0.0, atol=1e-12 * max(1.0, scale))
    # a branch that stopped in full never gains amplitude at a later stage
    stopped = np.cumsum(vsta.cont == 0.0, axis=0) > 0
    after = np.zeros_like(stopped)
    after[1:] = stopped[:-1]
    for arr in (res.good, res.bad, good_un, bad_un):
        assert np.all(arr[after] == 0.0)
