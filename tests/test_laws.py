"""Laws that Hamiltonian simulation and the matrix powers obey, on any input.

A law needs no reference computed the same way as the output: it relates
outputs of the constructions to each other.  Each tolerance is the declared
ε of the steps involved, so a construction whose block carries its own
truncation error still passes while that error stays inside its ε.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockenc import encoding as be
from blockenc import hamsim as hs
from blockenc.fixtures import random_hermitian_spectrum
from blockenc.linalg import spectral_norm

LAWS = settings(deadline=None, max_examples=40, derandomize=True)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 8)
kappas = st.sampled_from([2.0, 4.0, 16.0])
epsilons = st.sampled_from([1e-2, 1e-3, 1e-6])
times = st.floats(-4.0, 4.0)
powers = st.floats(0.1, 1.5)
paths = st.sampled_from(["spectral", "series"])


def _positive_definite(seed, dim, kappa):
    """(1, 0, 0)-encoding of a seeded H with spectrum in [1/kappa, 1]."""
    h = random_hermitian_spectrum(np.random.default_rng(seed), dim, kappa)
    return be.encode((h + h.T) / 2, 1.0)


@LAWS
@given(seeds, dims, kappas, times, times, epsilons)
def test_simulation_times_add(seed, dim, kappa, s, t, eps):
    u = _positive_definite(seed, dim, kappa)
    both = be.product(hs.block_ham_sim(u, s, eps), hs.block_ham_sim(u, t, eps))
    whole = hs.block_ham_sim(u, s + t, eps)
    err = spectral_norm(both.applied() - whole.applied())
    assert err <= both.epsilon + whole.epsilon + 1e-10


@LAWS
@given(seeds, dims, kappas, times, epsilons)
def test_reversed_simulation_is_the_adjoint(seed, dim, kappa, t, eps):
    u = _positive_definite(seed, dim, kappa)
    forward, back = hs.block_ham_sim(u, t, eps), hs.block_ham_sim(u, -t, eps)
    err = spectral_norm(back.applied() - forward.applied().conj().T)
    assert err <= forward.epsilon + back.epsilon


@LAWS
@given(seeds, dims, kappas, epsilons, paths)
def test_square_root_squares_to_the_matrix(seed, dim, kappa, eps, path):
    u = _positive_definite(seed, dim, kappa)
    root = hs.positive_power(u, 0.5, kappa, eps, path=path)
    p = root.applied()
    # P = H^(1/2) + E with ||E|| <= eps, so
    # ||P^2 - H|| = ||P E + E P - E^2|| <= 2 ||P|| eps + eps^2
    bound = 2.0 * spectral_norm(p) * root.epsilon + root.epsilon**2
    assert spectral_norm(p @ p - u.applied()) <= bound


@LAWS
@given(seeds, dims, kappas, powers, powers, epsilons, paths)
def test_negative_powers_multiply(seed, dim, kappa, c1, c2, eps, path):
    u = _positive_definite(seed, dim, kappa)
    both = be.product(hs.negative_power(u, c1, kappa, eps, path=path),
                      hs.negative_power(u, c2, kappa, eps, path=path))
    whole = hs.negative_power(u, c1 + c2, kappa, eps, path=path)
    assert spectral_norm(both.applied() - whole.applied()) <= both.epsilon + whole.epsilon
