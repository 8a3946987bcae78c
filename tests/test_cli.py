import json

import numpy as np
import pytest

from otalign.cli import main
from otalign.matio import read_matrix_bin, read_matrix_csv, write_matrix_csv


@pytest.fixture
def cost_file(tmp_path):
    p = tmp_path / "cost.csv"
    p.write_text("0,1\n1,0\n")
    return str(p)


@pytest.fixture
def embedding_files(tmp_path, rng):
    from otalign.kernel import normalize_rows

    Z1 = normalize_rows(rng.standard_normal((6, 4)))
    Z2 = normalize_rows(rng.standard_normal((6, 4)))
    p1, p2 = tmp_path / "z1.csv", tmp_path / "z2.csv"
    write_matrix_csv(Z1, p1)
    write_matrix_csv(Z2, p2)
    return str(p1), str(p2)


def test_solve_writes_plan_and_summary(cost_file, tmp_path, capsys):
    out = str(tmp_path / "plan.csv")
    assert main(["solve", cost_file, "--epsilon", "1", "--iters", "5", "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] == 5
    P = read_matrix_csv(out)
    e = np.exp(-1.0)
    assert np.allclose(P, np.array([[1.0, e], [e, 1.0]]) / (1.0 + e), atol=1e-12)


def test_solve_diagnostics_dual_trajectory(cost_file, tmp_path):
    out = str(tmp_path / "plan.csv")
    diag_path = str(tmp_path / "diag.json")
    assert main(["solve", cost_file, "--iters", "3", "--out", out, "--diagnostics", diag_path]) == 0
    diag = json.loads(open(diag_path).read())
    duals = diag["dual_objective"]
    assert len(duals) == 6
    assert all(b >= a - 1e-11 for a, b in zip(duals, duals[1:]))
    assert {"iterations", "row_residual", "col_residual", "converged"} <= set(diag)


def test_solve_diagnostics_equal_pointwise_dual_objectives(cost_file, tmp_path):
    from otalign.kernel import gibbs_kernel
    from otalign.solver import Marginals, SolverOptions, dual_objective, sinkhorn

    mu = tmp_path / "mu.csv"
    mu.write_text("2\n2\n")
    nu = tmp_path / "nu.csv"
    nu.write_text("1\n3\n")
    diag_path = str(tmp_path / "diag.json")
    args = ["solve", cost_file, "--epsilon", "0.3", "--tol", "1e-9", "--mu", str(mu),
            "--nu", str(nu), "--out", str(tmp_path / "plan.csv"), "--diagnostics", diag_path]
    assert main(args) == 0
    duals = json.loads(open(diag_path).read())["dual_objective"]
    C = read_matrix_csv(cost_file)
    m = Marginals(mu=np.array([2.0, 2.0]), nu=np.array([1.0, 3.0]))
    opts = SolverOptions(max_iterations=1000, tolerance=1e-9, mode="tolerance")
    _, _, traj = sinkhorn(gibbs_kernel(C, 0.3), m, opts)
    want = [dual_objective(traj.f[h], traj.g[h], C, 0.3, m) for h in range(traj.n_half)]
    assert len(duals) == len(want) > 2
    assert np.allclose(duals, want, rtol=1e-12, atol=0.0)


def test_solve_without_diagnostics_computes_no_duals(cost_file, tmp_path, monkeypatch):
    import otalign.cli

    def unexpected(*args):
        raise AssertionError("dual objectives computed without --diagnostics")

    monkeypatch.setattr(otalign.cli, "dual_objectives", unexpected)
    assert main(["solve", cost_file, "--out", str(tmp_path / "plan.csv")]) == 0


@pytest.mark.parametrize("command", [
    ["solve", "{cost}", "--tol", "1e-9", "--out", "{out}"],
    ["uot", "{cost}", "--out", "{out}"],
    ["loss", "--loss", "gca-ince", "{z1}", "{z2}", "--plan-out", "{out}"],
    ["plan", "--domains", "0,0,1,2", "--alpha", "0.5", "--out", "{out}"],
    ["train", "--loss", "ince", "--epochs", "1", "--batch", "32", "--classes", "3",
     "--dim", "8", "--n-per-cell", "20", "--embeddings-out", "{out}"],
])
def test_bin_outputs_round_trip(command, cost_file, embedding_files, tmp_path, capsys):
    # a matrix written to a .bin path uses the binary format and reads back
    # equal to the same command's CSV output
    z1, z2 = embedding_files
    read = {}
    for ext, reader in (("csv", read_matrix_csv), ("bin", read_matrix_bin)):
        out = str(tmp_path / f"out.{ext}")
        argv = [a.format(cost=cost_file, z1=z1, z2=z2, out=out) for a in command]
        assert main(argv) == 0
        read[ext] = reader(out)
    assert read["bin"].shape == read["csv"].shape
    assert np.array_equal(read["bin"], read["csv"])


def test_solve_tolerance_mode(cost_file, tmp_path, capsys):
    out = str(tmp_path / "plan.csv")
    assert main(["solve", cost_file, "--tol", "1e-10", "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["row_residual"] <= 1e-10


def test_solve_tol_and_iters_conflict(cost_file, capsys):
    assert main(["solve", cost_file, "--tol", "1e-6", "--iters", "3"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert main(["solve", "does/not/exist.csv"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_solve_rejects_nonsquare(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("0,1,2\n1,0,2\n")
    assert main(["solve", str(p)]) == 2
    assert "square" in capsys.readouterr().err


def test_solve_ragged_input(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("0,1\n1\n")
    assert main(["solve", str(p)]) == 2
    assert "ragged" in capsys.readouterr().err


def test_solve_custom_marginals(cost_file, tmp_path):
    mu = tmp_path / "mu.csv"
    mu.write_text("2\n2\n")
    nu = tmp_path / "nu.csv"
    nu.write_text("1\n3\n")
    out = str(tmp_path / "plan.csv")
    rc = main(["solve", cost_file, "--mu", str(mu), "--nu", str(nu), "--tol", "1e-9", "--out", out])
    assert rc == 0
    P = read_matrix_csv(out)
    assert np.allclose(P.sum(axis=1), 2.0, atol=1e-7)
    assert np.allclose(P.sum(axis=0), [1.0, 3.0], atol=1e-7)


@pytest.mark.parametrize("command", ["solve", "uot"])
def test_solve_rejects_a_zero_marginal_entry(cost_file, tmp_path, capsys, command):
    mu = tmp_path / "mu.csv"
    mu.write_text("0\n1\n")
    assert main([command, cost_file, "--mu", str(mu)]) == 2
    assert "marginal entries must be positive and finite" in capsys.readouterr().err


def test_uot_roundtrip(cost_file, tmp_path, capsys):
    out = str(tmp_path / "plan.csv")
    assert main(["uot", cost_file, "--lambda1", "10", "--lambda2", "10", "--out", out]) == 0
    P = read_matrix_csv(out)
    # column normalization is on by default
    assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)


def test_uot_rejects_negative_penalty(cost_file, capsys):
    assert main(["uot", cost_file, "--lambda1", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_loss_prints_value(embedding_files, capsys):
    z1, z2 = embedding_files
    assert main(["loss", "--loss", "ince", z1, z2, "--epsilon", "0.5"]) == 0
    out = capsys.readouterr().out.strip()
    float(out)  # a single parseable number


def test_loss_matches_library(embedding_files, capsys):
    from otalign.losses import gca_rince_loss

    z1, z2 = embedding_files
    assert main(["loss", "--loss", "gca-rince", z1, z2, "--q", "1.0", "--lambda", "0.5"]) == 0
    printed = float(capsys.readouterr().out.strip())
    want = gca_rince_loss(read_matrix_csv(z1), read_matrix_csv(z2), q=1.0, lam=0.5).value
    assert abs(printed - want) < 1e-6


def test_loss_plan_out(embedding_files, tmp_path, capsys):
    from otalign.kernel import cosine_cost, gibbs_kernel
    from otalign.uot import UotOptions, unbalanced_sinkhorn

    z1, z2 = embedding_files
    plan_path = str(tmp_path / "plan.csv")
    assert main(["loss", "--loss", "gca-ince", z1, z2, "--plan-out", plan_path]) == 0
    assert read_matrix_csv(plan_path).shape == (6, 6)
    # gca-uot builds its plan only when asked; it must equal the dense
    # column-normalized unbalanced plan at the CLI defaults
    assert main(["loss", "--loss", "gca-uot", z1, z2, "--plan-out", plan_path]) == 0
    K = gibbs_kernel(cosine_cost(read_matrix_csv(z1), read_matrix_csv(z2)), 0.5)
    dense, _ = unbalanced_sinkhorn(K, opts=UotOptions(epsilon=0.5, iterations=5))
    assert np.allclose(read_matrix_csv(plan_path), dense.matrix, rtol=1e-12, atol=0.0)


def test_loss_shape_mismatch(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("1,0\n0,1\n")
    b.write_text("1,0\n0,1\n1,0\n")
    assert main(["loss", "--loss", "ince", str(a), str(b)]) == 2
    assert "shapes differ" in capsys.readouterr().err


def test_plan_subcommand(tmp_path):
    out = str(tmp_path / "plan.csv")
    assert main(["plan", "--domains", "0,0,1,1", "--alpha", "0.5", "--raw", "--out", out]) == 0
    P = read_matrix_csv(out)
    expect = np.eye(4)
    expect[0, 1] = expect[1, 0] = 0.5
    expect[2, 3] = expect[3, 2] = 0.5
    assert np.allclose(P, expect)


def test_plan_bad_domains(capsys):
    assert main(["plan", "--domains", "0,x,1"]) == 2
    assert "bad domain list" in capsys.readouterr().err


def test_train_smoke_and_metrics(tmp_path, capsys):
    metrics = str(tmp_path / "m.jsonl")
    rc = main([
        "train", "--loss", "ince", "--epochs", "2", "--batch", "32",
        "--classes", "3", "--dim", "8", "--n-per-cell", "20",
        "--metrics", metrics,
    ])
    assert rc == 0
    final = json.loads(capsys.readouterr().out)
    assert {"probe_accuracy", "seed", "loss"} <= set(final)
    lines = [json.loads(l) for l in open(metrics)]
    # per-epoch history (incl. epoch 0) plus the final record
    assert len(lines) == 4
    assert [l["epoch"] for l in lines[:3]] == [0, 1, 2]
    assert "probe_accuracy" in lines[-1]


def test_train_seed_determinism(capsys):
    args = ["train", "--loss", "gca-ince", "--epochs", "1", "--batch", "32",
            "--classes", "3", "--dim", "8", "--n-per-cell", "20", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_train_sweep_alpha(capsys):
    rc = main([
        "train", "--sweep-alpha", "0,0.5", "--epochs", "1", "--batch", "32",
        "--classes", "2", "--domains", "2", "--dim", "8", "--n-per-cell", "20",
    ])
    assert rc == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["alpha"] for r in rows] == [0.0, 0.5]
    assert all({"class_accuracy", "domain_accuracy"} <= set(r) for r in rows)


def test_verify_reports_known_failure(tmp_path, capsys):
    # the iterated robust loss is not uniformly below its one-step form,
    # so the property suite must report that and exit non-zero
    report = str(tmp_path / "report.json")
    rc = main(["verify", "--n", "10", "--seed", "0", "--report", report])
    assert rc == 1
    out = capsys.readouterr().out
    rep = json.loads(open(report).read())
    failing = sorted(name for name, r in rep.items() if not r["pass"])
    assert failing == ["gca_rince_below_proximal"]
    for name, r in rep.items():
        flag = "pass" if r["pass"] else "FAIL"
        assert f"{flag}  {name}" in out


def test_verify_passing_properties_are_tight(tmp_path):
    report = str(tmp_path / "report.json")
    main(["verify", "--n", "5", "--seed", "1", "--report", report])
    rep = json.loads(open(report).read())
    assert rep["ince_half_step_equivalence"]["worst"] < 1e-10
    assert rep["rince_proximal_equivalence"]["worst"] < 1e-9
    assert rep["kl_dual_identity"]["worst"] < 1e-9
