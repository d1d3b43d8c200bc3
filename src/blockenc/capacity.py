"""Simulated register capacity.

The cap bounds the simulated register: a state vector's dimension, and a
block-encoding's system_dim * 2^ancillas.  An encoding allocates only its
system_dim x system_dim block, but the register its circuit acts on is
still checked, so a composition cannot describe more qubits than the budget
whatever it stores.  The default budget is 14 qubits; the environment
variable BLOCKENC_MAX_QUBITS can raise it, but never above 20.
"""

import os

from .errors import CapacityError

DEFAULT_MAX_QUBITS = 14
HARD_MAX_QUBITS = 20

ENV_VAR = "BLOCKENC_MAX_QUBITS"


def max_qubits() -> int:
    """Current qubit budget (env override clamped to the hard ceiling)."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise CapacityError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise CapacityError(f"{ENV_VAR} must be positive, got {value}")
    return min(value, HARD_MAX_QUBITS)


def max_dim() -> int:
    return 1 << max_qubits()


def check_dim(dim: int, what: str = "register") -> int:
    """Reject dimensions that exceed the simulated capacity."""
    if dim > max_dim():
        raise CapacityError(
            f"{what} of dimension {dim} exceeds the capacity cap "
            f"2^{max_qubits()} = {max_dim()}"
        )
    if dim < 1:
        raise CapacityError(f"{what} must have positive dimension, got {dim}")
    return dim
