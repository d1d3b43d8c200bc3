"""Experiment harness: reproducible runs, scaling sweeps, JSON/CSV reports.

Reports pair each pipeline output with a reference computed by direct linear
algebra, never by the simulated pipeline itself.  Identical seeds regenerate
byte-identical reports; wall time goes to stderr so the payload stays
reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import fixtures
from .encoding import encode, from_kp
from .errors import ConfigError
from .hamsim import block_ham_sim, negative_power, positive_power
from .kptree import KPTree, power_trees
from .linalg import complement_matrix, embed, hermitianize, normalize, spectral_norm
from .mmio import read_matrix, read_vector
from .network import (
    build_network,
    effective_resistance,
    parse_edge_list,
    reference_dissipated_power,
    unit_current,
)
from .regression import RegressionProblem, classical_beta, gls_solve, wls_solve
from .solvers import naive_solve, qls_solve, sve_config, singular_value_estimation

TASKS = ("encode", "hamsim", "sve", "qls", "power", "wls", "gls", "network")

_REQUIRED = {
    "encode": ("matrix",),
    "hamsim": ("matrix", "t"),
    "sve": ("matrix", "delta"),
    "qls": ("matrix", "b", "kappa"),
    "power": ("matrix", "c", "kappa"),
    "wls": ("problem",),
    "gls": ("problem",),
    "network": ("edges", "s", "t"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a task name, its inputs, scalars, and a seed."""

    task: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        missing = [k for k in _REQUIRED[self.task] if k not in self.params]
        if missing:
            raise ConfigError(f"task {self.task!r} missing required params: {missing}")

    def digest(self) -> str:
        blob = json.dumps(
            {"task": self.task, "params": _jsonable(self.params), "seed": self.seed},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


@dataclass(frozen=True)
class RunReport:
    config_digest: str
    task: str
    seed: int
    estimate: float
    reference: float
    fidelity: float | None
    relative_error: float | None
    ledger: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "config_digest": self.config_digest,
                "task": self.task,
                "seed": self.seed,
                "estimate": self.estimate,
                "reference": self.reference,
                "fidelity": self.fidelity,
                "relative_error": self.relative_error,
                "ledger": self.ledger,
            },
            sort_keys=True,
            indent=2,
        )


def _load_matrix(spec) -> np.ndarray:
    if isinstance(spec, str):
        return read_matrix(spec).real
    return np.asarray(spec, dtype=float)


def _load_vector(spec) -> np.ndarray:
    if isinstance(spec, str):
        return read_vector(spec).real
    return np.asarray(spec, dtype=float)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute one experiment; deterministic given the seed."""
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    p = config.params
    eps = float(p.get("epsilon", 1e-3))
    handler = _HANDLERS[config.task]
    estimate, reference, fidelity, ledger = handler(p, eps, rng)
    rel = None
    if fidelity is None and reference != 0.0:
        rel = abs(estimate - reference) / abs(reference)
    report = RunReport(
        config_digest=config.digest(),
        task=config.task,
        seed=config.seed,
        estimate=float(estimate),
        reference=float(reference),
        fidelity=fidelity,
        relative_error=rel,
        ledger=ledger,
    )
    wall_ms = (time.perf_counter() - start) * 1e3
    print(f"[blockenc] task={config.task} digest={report.config_digest} wall_ms={wall_ms:.1f}",
          file=sys.stderr)
    return report


def _task_encode(p, eps, rng):
    a = _load_matrix(p["matrix"])
    mode = p.get("mu_mode", "frobenius")
    if mode == "frobenius":
        enc, mu = from_kp(mode="frobenius", tree=KPTree.from_matrix(a))
    else:
        tp, tq = power_trees(a, float(p.get("p", 0.5)))
        enc, mu = from_kp(mode="p-norm", tree_p=tp, tree_q=tq, p=float(p.get("p", 0.5)))
    reference = embed(complement_matrix(a), enc.system_dim)
    err = spectral_norm(reference - enc.applied())
    return err, 0.0, None, enc.ledger.to_dict()


def _task_hamsim(p, eps, rng):
    h = _load_matrix(p["matrix"])
    t = float(p["t"])
    enc = encode(hermitianize(h))
    sim = block_ham_sim(enc, t, eps)
    oracle = scipy.linalg.expm(1j * t * hermitianize(h))
    err = spectral_norm(sim.applied() - oracle)
    return err, 0.0, None, sim.ledger.to_dict()


def _task_sve(p, eps, rng):
    a = _load_matrix(p["matrix"])
    cfg = sve_config(float(p["delta"]), float(p.get("fail", 0.1)))
    enc = encode(a)
    u, sing, _ = np.linalg.svd(a)
    out = singular_value_estimation(enc, normalize(u[:, 0]), cfg)
    est = out.branches[0].sample_estimate(rng, cfg.repetitions)
    return est if est is not None else -1.0, float(sing[0]), None, out.ledger.to_dict()


def _task_qls(p, eps, rng):
    h = _load_matrix(p["matrix"])
    b = _load_vector(p["b"])
    kappa = float(p["kappa"])
    enc = encode(hermitianize(h), alpha=max(1.0, spectral_norm(h)))
    if p.get("route") == "naive":
        res = naive_solve(enc, normalize(b), kappa, eps)
    else:
        res = qls_solve(enc, normalize(b), kappa=kappa, eps=eps)
    exact = normalize(np.linalg.solve(hermitianize(h), b))
    fid = float(abs(np.vdot(res.state, exact)))
    return fid, 1.0, fid, res.ledger.to_dict()


def _task_power(p, eps, rng):
    h = _load_matrix(p["matrix"])
    c = float(p["c"])
    kappa = float(p["kappa"])
    enc = encode(hermitianize(h))
    if c > 0 and bool(p.get("negative", True)):
        spectral = negative_power(enc, c, kappa, eps)
        series = negative_power(enc, c, kappa, eps, path="series")
    else:
        spectral = positive_power(enc, abs(c), kappa, eps)
        series = positive_power(enc, abs(c), kappa, eps, path="series")
    err = spectral_norm(spectral.applied() - series.applied())
    return err, 0.0, None, series.ledger.to_dict()


def _task_wls(p, eps, rng):
    problem = _load_problem(p, rng, weighted=True)
    res = wls_solve(problem, route=p.get("route", "kp-a"), eps=eps)
    fid = float(abs(np.vdot(res.state, classical_beta(problem))))
    return fid, 1.0, fid, res.ledger.to_dict()


def _task_gls(p, eps, rng):
    problem = _load_problem(p, rng, weighted=False)
    res = gls_solve(problem, route=p.get("route", "omega-inverse-sqrt-encoding"), eps=eps)
    fid = float(abs(np.vdot(res.state, classical_beta(problem))))
    return fid, 1.0, fid, res.ledger.to_dict()


def _load_problem(p, rng, weighted: bool) -> RegressionProblem:
    spec = p["problem"]
    if spec == "random":
        if weighted:
            return fixtures.random_wls_problem(rng, int(p.get("m", 6)), int(p.get("n", 3)))
        return fixtures.random_gls_problem(rng, int(p.get("m", 6)), int(p.get("n", 3)))
    return RegressionProblem.from_json(spec)


def _task_network(p, eps, rng):
    spec = p["edges"]
    if isinstance(spec, str):
        with open(spec) as fh:
            net = parse_edge_list(fh.read())
    else:
        net = build_network(spec)
    s, t = int(p["s"]), int(p["t"])
    est = effective_resistance(
        net, s, t, eps=float(p.get("epsilon", 0.1)), delta=float(p.get("delta", 1.0 / 3.0)),
        rng=rng, route=p.get("route", "exact"),
    )
    ref = reference_dissipated_power(net, unit_current(net.n_vertices, s, t))
    return est.value, ref, None, est.ledger.to_dict()


_HANDLERS = {
    "encode": _task_encode,
    "hamsim": _task_hamsim,
    "sve": _task_sve,
    "qls": _task_qls,
    "power": _task_power,
    "wls": _task_wls,
    "gls": _task_gls,
    "network": _task_network,
}


# -- scaling sweeps ------------------------------------------------------------

SWEEP_FAMILIES = ("qls-kappa", "qls-kappa-naive", "qls-epsilon")

CSV_FIELDS = ("instance", "kappa", "epsilon", "queries", "gates", "fidelity",
              "estimate", "reference", "seed")


def _sweep_point(family: str, value: float, eps: float, seed: int) -> dict:
    kappa = value if family != "qls-epsilon" else 8.0
    epsilon = eps if family != "qls-epsilon" else value
    h = np.diag([1.0, 1.0 / kappa])
    b = np.array([0.0, 1.0])
    enc = encode(h)
    if family == "qls-kappa-naive":
        res = naive_solve(enc, b, kappa, epsilon)
    else:
        res = qls_solve(enc, b, kappa=kappa, eps=epsilon)
    exact = normalize(np.linalg.solve(h, b))
    fid = float(abs(np.vdot(res.state, exact)))
    return {
        "instance": f"{family}",
        "kappa": kappa,
        "epsilon": epsilon,
        "queries": res.ledger.total_queries(),
        "gates": res.ledger.gates,
        "fidelity": fid,
        "estimate": fid,
        "reference": 1.0,
        "seed": seed,
    }


@dataclass(frozen=True)
class SweepSummary:
    family: str
    slope: float
    residual: float
    rows: tuple[dict, ...]

    def to_json(self) -> str:
        return json.dumps(
            {"family": self.family, "slope": self.slope, "residual": self.residual},
            sort_keys=True,
        )


def scaling_sweep(family: str, grid=None, eps: float = 1e-3, seed: int = 0) -> SweepSummary:
    """One CSV row per grid point; summary fits a log-log slope of query counts.

    Points run one after another, in grid order.
    """
    if family not in SWEEP_FAMILIES:
        raise ConfigError(f"unknown sweep family {family!r}")
    if grid is None:
        grid = (
            [4.0, 8.0, 16.0, 32.0, 64.0]
            if family != "qls-epsilon"
            else [1e-3 / 2.0**j for j in (0, 2, 4, 6, 8, 10)]
        )
    rows = [_sweep_point(family, v, eps, seed) for v in grid]
    xs = np.log([r["kappa"] if family != "qls-epsilon" else 1.0 / r["epsilon"] for r in rows])
    ys = np.log([r["queries"] for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return SweepSummary(family=family, slope=float(slope), residual=residual, rows=tuple(rows))


def write_sweep_csv(summary: SweepSummary, out_path) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for row in summary.rows:
        writer.writerow(row)
    buf.write(f"# slope={summary.slope!r} residual={summary.residual!r}\n")
    with open(out_path, "w") as fh:
        fh.write(buf.getvalue())
