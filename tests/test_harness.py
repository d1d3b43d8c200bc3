import json
import subprocess
import sys

import numpy as np
import pytest

from blockenc import cli
from blockenc.errors import ConfigError, PreconditionError
from blockenc.harness import (
    CSV_FIELDS,
    ExperimentConfig,
    run_experiment,
    scaling_sweep,
    write_sweep_csv,
)
from blockenc.mmio import write_matrix, write_vector


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(task="nope", params={})
    with pytest.raises(ConfigError):
        ExperimentConfig(task="qls", params={"matrix": [[1.0]]})  # b, kappa missing


def test_qls_identity_fixture():
    cfg = ExperimentConfig(
        task="qls",
        params={"matrix": np.eye(2).tolist(), "b": [0.6, 0.8], "kappa": 2.0},
        seed=0,
    )
    rep = run_experiment(cfg)
    assert rep.fidelity >= 1 - 1e-9


def test_network_p3_fixture():
    cfg = ExperimentConfig(
        task="network",
        params={"edges": [[0, 1, 1.0], [1, 2, 1.0]], "s": 0, "t": 2,
                "epsilon": 0.1, "delta": 0.05},
        seed=3,
    )
    rep = run_experiment(cfg)
    assert rep.reference == pytest.approx(2.0)
    assert abs(rep.estimate / rep.reference - 1.0) <= 0.1


def test_reports_byte_identical():
    cfg = ExperimentConfig(
        task="network",
        params={"edges": [[0, 1, 1.0], [1, 2, 1.0]], "s": 0, "t": 2,
                "epsilon": 0.1},
        seed=7,
    )
    assert run_experiment(cfg).to_json() == run_experiment(cfg).to_json()


def test_report_reference_is_independent():
    # reference for the hamsim task comes from a Pade expm, not the pipeline
    cfg = ExperimentConfig(task="hamsim",
                           params={"matrix": [[0.0, 0.3], [0.3, 0.0]], "t": 1.2},
                           seed=0)
    rep = run_experiment(cfg)
    assert rep.estimate <= 1e-3  # error against the independent oracle


def test_all_tasks_run():
    specs = {
        "encode": {"matrix": np.diag([0.5, 0.25]).tolist()},
        "hamsim": {"matrix": [[0.0, 0.4], [0.4, 0.0]], "t": 0.9},
        "sve": {"matrix": np.diag([0.5, 0.25]).tolist(), "delta": 0.05},
        "qls": {"matrix": np.diag([1.0, 0.5]).tolist(), "b": [1.0, 1.0], "kappa": 2.0},
        "power": {"matrix": np.diag([1.0, 0.5]).tolist(), "c": 1.0, "kappa": 2.0},
        "wls": {"problem": "random", "m": 4, "n": 2},
        "gls": {"problem": "random", "m": 4, "n": 2},
        "network": {"edges": [[0, 1, 1.0], [1, 2, 1.0]], "s": 0, "t": 2},
    }
    for task, params in specs.items():
        rep = run_experiment(ExperimentConfig(task=task, params=params, seed=1))
        assert rep.task == task


def test_sweep_slopes_and_csv(tmp_path):
    summary = scaling_sweep("qls-kappa")
    assert 0.8 <= summary.slope <= 1.3
    naive = scaling_sweep("qls-kappa-naive")
    assert 1.7 <= naive.slope <= 2.3
    write_sweep_csv(summary, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert lines[-1].startswith("# slope=")


def test_sweep_run_time_within_corollary_bound(tmp_path):
    # the realised VTAA cost never exceeds the paper's variable-time bound
    for family in ("qls-kappa", "qls-epsilon"):
        rows = scaling_sweep(family).rows
        assert rows
        for row in rows:
            assert 0 < row["run_time"] <= row["time_bound"]
    naive = scaling_sweep("qls-kappa-naive")
    assert all(r["run_time"] is None and r["time_bound"] is None for r in naive.rows)
    write_sweep_csv(naive, tmp_path / "naive.csv")
    assert (tmp_path / "naive.csv").read_text().splitlines()[1].endswith(",,")


def test_sweep_epsilon_family():
    summary = scaling_sweep("qls-epsilon")
    rows = summary.rows
    assert rows[-1]["queries"] / rows[0]["queries"] <= 5.0


def test_cli_qls(tmp_path):
    write_matrix(tmp_path / "h.mtx", np.diag([1.0, 0.5]))
    write_vector(tmp_path / "b.mtx", np.array([1.0, 1.0]))
    out = tmp_path / "report.json"
    rc = cli.main([
        "qls", "--matrix", str(tmp_path / "h.mtx"), "--b", str(tmp_path / "b.mtx"),
        "--kappa", "2.0", "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["fidelity"] >= 1 - 1e-3
    # identical seeds, byte-identical reports
    out2 = tmp_path / "report2.json"
    cli.main([
        "qls", "--matrix", str(tmp_path / "h.mtx"), "--b", str(tmp_path / "b.mtx"),
        "--kappa", "2.0", "--seed", "5", "--out", str(out2),
    ])
    assert out.read_bytes() == out2.read_bytes()


def test_cli_network_and_exit_codes(tmp_path):
    edges = tmp_path / "p3.txt"
    edges.write_text("0 1 1.0\n1 2 1.0\n")
    rc = cli.main(["network", "--edges", str(edges), "-s", "0", "-t", "2",
                   "--epsilon", "0.1", "--seed", "2",
                   "--out", str(tmp_path / "net.json")])
    assert rc == 0
    report = json.loads((tmp_path / "net.json").read_text())
    assert abs(report["estimate"] / 2.0 - 1.0) <= 0.1
    # contract violations exit with a distinct status
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 0.2\n")  # weight below 1
    assert cli.main(["network", "--edges", str(bad), "-s", "0", "-t", "1"]) == 2


def test_cli_epsilon_out_of_range(tmp_path, capsys):
    write_matrix(tmp_path / "h.mtx", np.diag([1.0, 0.5]))
    write_vector(tmp_path / "b.mtx", np.array([1.0, 1.0]))
    qls = ["qls", "--matrix", str(tmp_path / "h.mtx"), "--b", str(tmp_path / "b.mtx"),
           "--kappa", "2.0"]
    for eps in ("0", "-0.1", "2"):
        assert cli.main(qls + ["--epsilon", eps]) == 2
        assert "epsilon must lie in (0, 1)" in capsys.readouterr().err
    # an explicit 0 is range-checked, not replaced by the sweep default
    assert cli.main(["sweep", "--family", "qls-kappa", "--epsilon", "0"]) == 2
    assert "epsilon must lie in (0, 1)" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        scaling_sweep("qls-kappa", eps=1.0)


def test_cli_sweep(tmp_path):
    rc = cli.main(["sweep", "--family", "qls-kappa", "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert (tmp_path / "s.csv").read_text().count("\n") >= 6


def test_cli_config_file(tmp_path):
    cfg = {"task": "qls", "seed": 4,
           "params": {"matrix": [[1.0, 0.0], [0.0, 0.5]], "b": [1.0, 0.0],
                      "kappa": 2.0}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc = cli.main(["qls", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "r.json")])
    assert rc == 0
    assert json.loads((tmp_path / "r.json").read_text())["seed"] == 4


def test_cli_entrypoint_subprocess(tmp_path):
    out = tmp_path / "r.json"
    rc = subprocess.run(
        [sys.executable, "-m", "blockenc.cli", "qls", "--matrix",
         json.dumps([[1.0, 0.0], [0.0, 0.5]]), "--b", json.dumps([1.0, 1.0]),
         "--kappa", "2"],
        capture_output=True, text=True,
    )
    # inline JSON is not a path: the CLI reports a clean contract/numeric error
    assert rc.returncode in (2, 3)


@pytest.mark.parametrize(
    "task,params",
    [
        ("wls", {"problem": "random", "route": "kp-a"}),
        ("wls", {"problem": "random", "route": "kp-x-weights"}),
        ("gls", {"problem": "random", "route": "kp"}),
        ("network", {"edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [0, 3, 1.5]],
                     "s": 0, "t": 2, "epsilon": 0.1, "route": "kp"}),
    ],
)
def test_mu_mode_p_reaches_the_kp_routes(task, params):
    frob = run_experiment(ExperimentConfig(task=task, params=params, seed=3))
    mu_p = run_experiment(
        ExperimentConfig(task=task, params=dict(params, mu_mode="p-norm", p=0.5), seed=3)
    )
    assert mu_p.ledger != frob.ledger
    if mu_p.fidelity is not None:
        assert mu_p.fidelity >= 1.0 - 1e-3
    else:
        assert mu_p.relative_error <= 0.1


def test_network_task_is_effective_resistance():
    from blockenc.network import build_network, effective_resistance

    edges = [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [0, 3, 1.5], [1, 3, 1.0]]
    params = {"edges": edges, "s": 0, "t": 2, "epsilon": 0.1, "delta": 0.1, "route": "sparse"}
    rep = run_experiment(ExperimentConfig(task="network", params=params, seed=5))
    est = effective_resistance(build_network(edges), 0, 2, eps=0.1, delta=0.1,
                               rng=np.random.default_rng(5), route="sparse")
    assert rep.estimate == est.value
    with pytest.raises(PreconditionError, match="needs distinct vertices"):
        run_experiment(ExperimentConfig(task="network", params=dict(params, t=0), seed=5))


@pytest.mark.parametrize("mode", ["min", "p", "Frobenius", "p_norm"])
def test_unknown_mu_mode_is_a_config_error(tmp_path, mode):
    params = {"matrix": [[1.0, 0.0], [0.0, 0.5]], "mu_mode": mode}
    with pytest.raises(ConfigError, match="mu_mode"):
        run_experiment(ExperimentConfig(task="encode", params=params))
    (tmp_path / "cfg.json").write_text(json.dumps({"task": "encode", "params": params}))
    assert cli.main(["encode", "--config", str(tmp_path / "cfg.json")]) == 2


def _cli_params(tmp_path, argv, config=None):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    return cli._config_from_args(cli.build_parser().parse_args(argv)).params


_EDGES = [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]
_H = [[1.0, 0.0], [0.0, 0.5]]


@pytest.mark.parametrize(
    "task,params",
    [
        ("network", {"edges": _EDGES, "s": 1, "t": 3, "route": "sparse"}),
        ("hamsim", {"matrix": _H, "t": 0.25}),
        ("sve", {"matrix": _H, "delta": 0.2}),
        ("qls", {"matrix": _H, "b": [1.0, 0.0], "kappa": 2.0, "route": "naive"}),
    ],
)
def test_cli_flag_defaults_leave_config_values(tmp_path, task, params):
    got = _cli_params(tmp_path, [task], {"task": task, "params": params})
    assert got == params
    # a flag that is given still overrides the config
    if task == "network":
        assert _cli_params(tmp_path, [task, "-t", "2"], {"task": task, "params": params})["t"] == 2


def test_cli_flags_only_runs_keep_their_params(tmp_path):
    assert _cli_params(tmp_path, ["network", "--edges", "g.txt"]) == {
        "edges": "g.txt", "s": 0, "t": 1, "route": "exact"}
    assert _cli_params(tmp_path, ["hamsim", "--matrix", "h.mtx"]) == {"matrix": "h.mtx", "t": 1.0}
    assert _cli_params(tmp_path, ["sve", "--matrix", "h.mtx"]) == {"matrix": "h.mtx", "delta": 0.05}
    sve = _cli_params(tmp_path, ["sve", "--matrix", "h.mtx", "--resolution", "0.1"])
    assert sve["delta"] == 0.1
    assert _cli_params(tmp_path, ["qls", "--matrix", "h.mtx", "--b", "b.mtx", "--kappa", "2"]) == {
        "matrix": "h.mtx", "b": "b.mtx", "kappa": 2.0, "route": "vtaa"}


def test_cli_config_task_must_match_the_subcommand(tmp_path, capsys):
    config = {"task": "network", "params": {"edges": _EDGES, "s": 0, "t": 2}}
    with pytest.raises(ConfigError, match="does not match"):
        _cli_params(tmp_path, ["qls"], config)
    assert cli.main(["qls", "--config", str(tmp_path / "cfg.json")]) == 2
    assert "does not match the subcommand" in capsys.readouterr().err
