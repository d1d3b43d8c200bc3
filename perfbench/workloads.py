"""Workload definitions: seeded input files, experiment configs and output gates.

Every operation is one `harness.run_experiment` call on inputs written to disk
as the CLI would receive them (Matrix Market, problem JSON, edge list).  Input
`index` 0 is the warm-up instance; timed operations use indices 1..N.  Every
operation gets a distinct instance, so none finds its own results already in
the `vtime` lru_caches.
"""

from __future__ import annotations

import json
import os

import numpy as np

from blockenc import fixtures, mmio

WORKLOADS = ("kp-regression", "dense-qls", "composed-gls", "network-estimate")

# Operations per run: ceil(seconds / NOMINAL_OP_S).  The values are the
# parent commit's seconds per operation on a 2-CPU x86 machine with one BLAS
# thread, so at the parent's speed the timed loop lasts about --seconds; and
# every commit does the same operations for a given seed and --seconds, so
# ledgers, cache contents and peak memory stay comparable.  network-estimate
# is sized to about two thirds of --seconds instead: its amplitude-estimation
# cache grows resident memory by about 65 MB per operation.
NOMINAL_OP_S = {
    "kp-regression": 0.6,
    "dense-qls": 1.35,
    "composed-gls": 0.2,
    "network-estimate": 0.9,
}

# Each workload cycles through (size, route) pairs.  Full sizes were chosen
# so that one layer dominates each workload (see README.md).
_CYCLES = {
    "kp-regression": (
        [(16, 6), (20, 8), (24, 6)],
        ["kp-a", "kp-x-weights"],
    ),
    "composed-gls": (
        # a third of the instances are m=8: keep them a minority so the
        # median stays in the m=64 mode; they exercise the kappa_Omega < 2
        # rejection of fixtures.random_gls_problem at small m
        [(64, 8), (64, 8), (8, 3)],
        ["omega-encoding", "sparse"],
    ),
    "network-estimate": ([12], ["exact", "sparse"]),
    "dense-qls": ([512], ["vtaa"]),
}

_SMOKE_SIZES = {
    "kp-regression": [(6, 2), (8, 3)],
    "composed-gls": [(8, 3), (6, 2)],
    "network-estimate": [5],
    "dense-qls": [16],
}

# eps = 0.02 halves the amplitude-estimation work and memory of each network
# operation against 0.01, so a run fits twice the operations in the same
# memory, which narrowed the run-to-run spread of its timings.
EPSILON = {"network-estimate": 0.02}
DEFAULT_EPSILON = 1e-3
QLS_KAPPA = 16.0


def op_count(workload: str, seconds: float) -> int:
    return max(3, int(np.ceil(seconds / NOMINAL_OP_S[workload])))


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def write_instance(workload: str, seed: int, index: int, workdir: str, smoke: bool) -> dict:
    """Write the input files of one operation; return its experiment description.

    The result holds `task`, `params` (file paths, as the CLI passes them),
    `seed` for the harness and the `epsilon` its gate uses.
    """
    rng = _rng(workload, seed, index)
    sizes, routes = _CYCLES[workload]
    if smoke:
        sizes = _SMOKE_SIZES[workload]
    size = sizes[index % len(sizes)]
    route = routes[index % len(routes)]
    eps = EPSILON.get(workload, DEFAULT_EPSILON)
    stem = os.path.join(workdir, f"op{index}")
    params = {"route": route, "epsilon": eps}
    if workload in ("kp-regression", "composed-gls"):
        m, n = size
        if workload == "kp-regression":
            task, prob = "wls", fixtures.random_wls_problem(rng, m, n)
        else:
            task, prob = "gls", fixtures.random_gls_problem(rng, m, n)
        params["problem"] = _write_problem_files(prob, stem)
    elif workload == "dense-qls":
        task = "qls"
        h = fixtures.random_hermitian_spectrum(rng, size, QLS_KAPPA, signed=True)
        mmio.write_matrix(f"{stem}_h.mtx", h)
        mmio.write_vector(f"{stem}_b.mtx", rng.normal(size=size))
        params.update(matrix=f"{stem}_h.mtx", b=f"{stem}_b.mtx", kappa=QLS_KAPPA)
    else:
        task = "network"
        # n - 1 chords on the spanning tree: a fixed edge count keeps kappa,
        # and with it the amplitude-estimation cost, in a narrow band
        net = fixtures.random_connected_network(rng, size, extra_edges=size - 1)
        with open(f"{stem}_edges.txt", "w") as fh:
            for (u, v), w in zip(net.edges, net.weights):
                fh.write(f"{u} {v} {float(w)!r}\n")
        params.update(edges=f"{stem}_edges.txt", s=0, t=net.n_vertices - 1)
    return {"task": task, "params": params, "seed": seed * 100_003 + index, "epsilon": eps}


def _write_problem_files(prob, stem: str) -> str:
    base = os.path.basename(stem)
    spec = {"x": f"{base}_x.mtx", "y": f"{base}_y.mtx", "kappa_a": prob.kappa_a,
            "kappa_omega": prob.kappa_omega, "eta": prob.eta}
    mmio.write_matrix(f"{stem}_x.mtx", prob.x)
    mmio.write_vector(f"{stem}_y.mtx", prob.y)
    if prob.weights is not None:
        spec["weights"] = f"{base}_w.mtx"
        mmio.write_vector(f"{stem}_w.mtx", prob.weights)
    else:
        spec["omega"] = f"{base}_omega.mtx"
        mmio.write_matrix(f"{stem}_omega.mtx", prob.omega)
    with open(f"{stem}.json", "w") as fh:
        json.dump(spec, fh)
    return f"{stem}.json"


def gate(report, spec: dict) -> bool:
    """Solver tasks: fidelity >= 1 - eps.  Network: relative error <= eps."""
    if report.fidelity is not None:
        return report.fidelity >= 1.0 - spec["epsilon"]
    return report.relative_error is not None and report.relative_error <= spec["epsilon"]


def write_side_tasks(seed: int, workdir: str) -> list[dict]:
    """One small instance of each CLI task that no workload times.

    Error-valued tasks (encode, hamsim, power) report an operator-norm error
    against a reference of 0 and pass when it is at most epsilon; `sve`
    passes when its estimate is within the resolution of the top singular
    value; `qls` route `naive` passes on fidelity >= 1 - epsilon.
    """
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    path = os.path.join(workdir, "side_{}.mtx").format
    mmio.write_matrix(path("rect"), rng.normal(size=(6, 4)))
    mmio.write_matrix(path("signed"), fixtures.random_hermitian_spectrum(rng, 8, 4.0, signed=True))
    mmio.write_matrix(path("positive"), fixtures.random_hermitian_spectrum(rng, 8, 4.0))
    square = rng.normal(size=(8, 8))
    mmio.write_matrix(path("square"), 0.8 * square / np.linalg.norm(square, 2))
    mmio.write_vector(path("b"), rng.normal(size=8))
    eps = DEFAULT_EPSILON
    tasks = [
        ("encode", {"matrix": path("rect"), "mu_mode": "frobenius"}),
        ("encode", {"matrix": path("rect"), "mu_mode": "p-norm", "p": 0.5}),
        ("hamsim", {"matrix": path("signed"), "t": 1.0}),
        ("sve", {"matrix": path("square"), "delta": 0.05}),
        ("power", {"matrix": path("positive"), "c": 0.5, "kappa": 4.0}),
        ("qls", {"matrix": path("signed"), "b": path("b"), "kappa": 4.0, "route": "naive"}),
    ]
    return [{"task": t, "params": dict(p, epsilon=eps), "seed": seed, "epsilon": eps}
            for t, p in tasks]


def side_gate(report, spec: dict) -> bool:
    if report.task == "sve":
        return abs(report.estimate - report.reference) <= spec["params"]["delta"]
    if report.fidelity is not None:
        return report.fidelity >= 1.0 - spec["epsilon"]
    return report.estimate <= spec["epsilon"]
