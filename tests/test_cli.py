import csv
import re
import statistics

import numpy as np
import pytest

from conftest import CORRUPTIONS, set_meta

from bregman_kaczmarz import cli
from bregman_kaczmarz import diagnostics as diag
from bregman_kaczmarz import generators
from bregman_kaczmarz import selection as sel
from bregman_kaczmarz import solver as slv
from bregman_kaczmarz.generators import GeneratorSpec, load_instance, stored_bytes
from bregman_kaczmarz.priors import SparsePrior
from bregman_kaczmarz.systems import QuadraticSystem


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "inst.npz"
    rc = cli.main(["generate", "--kind", "gaussian", "--m", "40", "--n", "20",
                   "--sp", "0.1", "--seed", "1", "--out", str(path)])
    assert rc == cli.EXIT_OK
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestPresets:
    def test_names(self):
        for name in cli.SOLVER_NAMES:
            cfg = cli.preset_config(name, seed=3)
            assert cfg.seed == 3

    def test_nbk(self):
        cfg = cli.preset_config("nbk")
        assert isinstance(cfg.selection, sel.ResidualProbability)
        assert cfg.stepsize == sel.Constant(1.0)

    def test_mrnbk(self):
        cfg = cli.preset_config("mrnbk")
        assert isinstance(cfg.selection, sel.MaxResidual)

    def test_abnbk_c(self):
        cfg = cli.preset_config("abnbk-c")
        assert cfg.selection == sel.GreedyBlock(0.1)
        assert cfg.stepsize == sel.Constant(1.9)
        assert cfg.block_norm == "spectral"

    def test_abnbk_a(self):
        cfg = cli.preset_config("abnbk-a")
        assert cfg.stepsize == sel.Adaptive(1.3)
        assert cfg.block_norm == "frobenius"

    def test_overrides(self):
        cfg = cli.preset_config("abnbk-a", delta=1.5, theta=0.2)
        assert cfg.stepsize == sel.Adaptive(1.5)
        assert cfg.selection == sel.GreedyBlock(0.2)

    def test_unknown(self):
        with pytest.raises(ValueError):
            cli.preset_config("sgd")

    def test_alpha_rejected_for_adaptive(self):
        with pytest.raises(ValueError, match="'abnbk-a' does not use alpha"):
            cli.preset_config("abnbk-a", alpha=1.5)

    @pytest.mark.parametrize("name", ["nbk", "mrnbk", "abnbk-c"])
    def test_delta_rejected_for_constant(self, name):
        with pytest.raises(ValueError, match="does not use delta"):
            cli.preset_config(name, delta=1.5)

    @pytest.mark.parametrize("name", ["nbk", "mrnbk"])
    def test_theta_rejected_for_single_row(self, name):
        with pytest.raises(ValueError, match="does not use theta"):
            cli.preset_config(name, theta=0.2)


class TestSeeds:
    def test_derived_seeds_deterministic(self):
        assert cli.derived_seeds(42, 3) == cli.derived_seeds(42, 3)

    def test_derived_seeds_distinct(self):
        seen = {cli.derived_seeds(42, rep) for rep in range(10)}
        assert len(seen) == 10

    def test_initial_dual(self):
        a = cli.initial_dual(8, 5)
        np.testing.assert_array_equal(a, cli.initial_dual(8, 5))
        assert a.shape == (8,)

    def test_local_dual(self):
        # the start of `bkz diagnose --local-start`, in the operation order
        # its audits were recorded with, drawing n normals from rng
        truth = np.random.default_rng(0).standard_normal(60)
        truth[::3] = 0.0
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        x0 = cli.local_dual(truth, 2.0, 1e-3, rng)
        expected = truth + 2.0 * np.sign(truth) + 1e-3 * ref.standard_normal(60)
        assert x0.tobytes() == expected.tobytes()
        assert rng.random() == ref.random()


class TestGenerate:
    def test_round_trip(self, instance_path):
        inst = load_instance(instance_path)
        assert inst.system.m == 40 and inst.system.n == 20
        assert np.count_nonzero(inst.truth) == 2

    def test_validation_exit(self, tmp_path):
        rc = cli.main(["generate", "--kind", "gaussian", "--m", "10", "--n",
                       "20", "--sp", "0.01", "--out", str(tmp_path / "x.npz")])
        assert rc == cli.EXIT_VALIDATION

    def test_gaussian_matrix_free_rejected(self, tmp_path):
        out = tmp_path / "x.npz"
        rc = cli.main(["generate", "--kind", "gaussian", "--m", "10", "--n",
                       "5", "--sp", "0.2", "--matrix-free", "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_beyond_physical_memory_exit(self, tmp_path, monkeypatch):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}    # 1 MiB
        monkeypatch.setattr(generators.os, "sysconf", pages.__getitem__)
        out = tmp_path / "x.npz"
        rc = cli.main(["generate", "--kind", "gaussian", "--m", "40", "--n",
                       "100", "--sp", "0.1", "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_out_written_as_given(self, tmp_path):
        path = tmp_path / "x.dat"
        assert cli.main(["generate", "--kind", "gaussian", "--m", "20", "--n",
                         "10", "--sp", "0.2", "--out", str(path)]) == cli.EXIT_OK
        assert cli.main(["run", str(path), "--out",
                         str(tmp_path / "o")]) == cli.EXIT_OK
        assert not (tmp_path / "x.dat.npz").exists()

    def test_missing_instance(self, tmp_path):
        rc = cli.main(["run", str(tmp_path / "absent.npz"),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION


class TestRun:
    def test_outputs_and_exit(self, instance_path, tmp_path):
        out = tmp_path / "run_out"
        rc = cli.main(["run", str(instance_path), "--solver", "abnbk-a",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        hist = read_csv(out / "history.csv")
        assert hist[0] == slv.CSV_HEADER + ["status"]
        assert hist[-1][-1] == slv.CONVERGED
        signal = read_csv(out / "signal.csv")
        assert signal[0] == cli.SIGNAL_HEADER
        assert len(signal) == 21

    def test_recovered_signal_close(self, instance_path, tmp_path):
        out = tmp_path / "run_out"
        cli.main(["run", str(instance_path), "--solver", "abnbk-a",
                  "--out", str(out)])
        rows = read_csv(out / "signal.csv")[1:]
        rec = np.array([float(r[1]) for r in rows])
        truth = np.array([float(r[2]) for r in rows])
        assert slv.solution_error(rec, truth) < 0.1

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    @pytest.mark.parametrize("spoil", ["damaged", "meta m"])
    def test_unloadable_instance_rejected(self, instance_path, tmp_path, capsys,
                                          command, spoil):
        # each way load_instance refuses a file is tested at the loader;
        # main turns the refusal into exit 4 and leaves no --out
        if spoil == "meta m":
            set_meta(instance_path, m=7)        # the arrays hold 40 rows
        else:
            CORRUPTIONS[spoil][0](instance_path)
        out = tmp_path / "out"
        rc = cli.main([command, str(instance_path), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    @pytest.mark.parametrize("flag", ["--lambda", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_solver_input_rejected(self, instance_path, tmp_path,
                                              capsys, command, flag, value):
        # refused as input, not by the audit a diagnose would reach
        out = tmp_path / "out"
        start = ["--local-start", "1e-3"] if command == "diagnose" else []
        rc = cli.main([command, str(instance_path), flag, value,
                       "--out", str(out)] + start)
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_unused_flag_rejected(self, instance_path, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["run", str(instance_path), "--solver", "abnbk-a",
                       "--alpha", "1.5", "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_max_iters_exit(self, instance_path, tmp_path):
        rc = cli.main(["run", str(instance_path), "--solver", "nbk",
                       "--max-iters", "2", "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_MAX_ITERS

    def test_deterministic_rerun(self, instance_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cli.main(["run", str(instance_path), "--solver", "nbk",
                      "--seed", "9", "--out", str(out)])
        h1 = [row[:6] for row in read_csv(out1 / "history.csv")]
        h2 = [row[:6] for row in read_csv(out2 / "history.csv")]
        assert h1 == h2


class TestBench:
    def test_single_solver_table(self, tmp_path):
        out = tmp_path / "bench"
        rc = cli.main(["bench", "--kind", "gaussian", "--m", "40", "--n", "20",
                       "--sp", "0.1", "--reps", "3", "--solver", "abnbk-a",
                       "--seed", "11", "--out", str(out)])
        assert rc == cli.EXIT_OK
        table = read_csv(out / "table.csv")
        # CI's table checks cut fields 4, 1-2 and 4, and 1-6 and 8
        assert table[0] == cli.TABLE_HEADER == [
            "m", "n", "sp", "solver", "it_median", "it_mean",
            "elapsed_median_ns", "converged_frac", "time_to_tol_median_ns"]
        assert len(table) == 2
        assert table[1][3] == "abnbk-a"
        assert float(table[1][7]) == 1.0
        # every run converged, so both medians are over the same runs
        assert table[1][8] == table[1][6]

    @pytest.mark.parametrize("max_iters, converged", [(2, 0), (200, 2)])
    def test_time_to_tol_over_converged_runs_only(self, tmp_path, max_iters,
                                                  converged):
        # capped runs count in elapsed_median_ns, not in
        # time_to_tol_median_ns, which is empty when no run converged
        out = tmp_path / "bench"
        rc = cli.main(["bench", "--kind", "gaussian", "--m", "40", "--n", "20",
                       "--sp", "0.1", "--reps", "4", "--solver", "nbk",
                       "--max-iters", str(max_iters), "--seed", "11",
                       "--curves", "--out", str(out)])
        assert rc == cli.EXIT_OK
        runs = [read_csv(out / f"curve_nbk_rep{rep}.csv")[1:] for rep in range(4)]
        times = [sum(int(row[6]) for row in curve) for curve in runs]
        to_tol = [t for t, curve in zip(times, runs)
                  if curve[-1][7] == slv.CONVERGED]
        assert len(to_tol) == converged
        row = read_csv(out / "table.csv")[1]
        assert float(row[7]) == converged / 4
        assert int(row[6]) == int(statistics.median(times))
        assert row[8] == (str(int(statistics.median(to_tol))) if to_tol else "")

    def test_all_solvers_and_curves(self, tmp_path):
        out = tmp_path / "bench"
        rc = cli.main(["bench", "--kind", "gaussian", "--m", "30", "--n", "15",
                       "--sp", "0.2", "--reps", "2", "--curves",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        table = read_csv(out / "table.csv")
        assert [row[3] for row in table[1:]] == cli.SOLVER_NAMES
        for name in cli.SOLVER_NAMES:
            assert (out / f"curve_{name}_rep0.csv").exists()
            assert (out / f"curve_{name}_rep1.csv").exists()

    def test_sweep_passes_each_preset_its_flags(self, tmp_path):
        out = tmp_path / "bench"
        rc = cli.main(["bench", "--kind", "gaussian", "--m", "30", "--n", "15",
                       "--sp", "0.2", "--reps", "1", "--alpha", "1.2",
                       "--delta", "1.2", "--theta", "0.2", "--out", str(out)])
        assert rc == cli.EXIT_OK
        table = read_csv(out / "table.csv")
        assert [row[3] for row in table[1:]] == cli.SOLVER_NAMES

    def test_unused_flag_rejected(self, tmp_path):
        out = tmp_path / "b"
        rc = cli.main(["bench", "--kind", "gaussian", "--m", "20", "--n", "10",
                       "--sp", "0.2", "--reps", "1", "--solver", "nbk",
                       "--theta", "0.2", "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_desk_scale_guard(self, tmp_path, capsys):
        rc = cli.main(["bench", "--kind", "gaussian", "--m", "2000", "--n",
                       "2000", "--sp", "0.1", "--out", str(tmp_path / "b")])
        assert rc == cli.EXIT_VALIDATION
        assert not (tmp_path / "b" / "table.csv").exists()
        size = stored_bytes(GeneratorSpec("gaussian", 2000, 2000, 0.1, seed=0))
        assert capsys.readouterr().err.startswith(
            f"error: refusing {size} stored bytes beyond desk scale")

    def test_matrix_free_cosine(self, tmp_path):
        out = tmp_path / "bench"
        rc = cli.main(["bench", "--kind", "dct", "--m", "20", "--n", "10",
                       "--sp", "0.2", "--reps", "2", "--solver", "abnbk-a",
                       "--matrix-free", "--out", str(out)])
        assert rc == cli.EXIT_OK
        table = read_csv(out / "table.csv")
        assert table[0] == cli.TABLE_HEADER
        assert [row[3] for row in table[1:]] == ["abnbk-a"]

    def test_gaussian_matrix_free_rejected(self, tmp_path):
        rc = cli.main(["bench", "--kind", "gaussian", "--m", "20", "--n", "10",
                       "--sp", "0.2", "--reps", "1", "--matrix-free",
                       "--out", str(tmp_path / "b")])
        assert rc == cli.EXIT_VALIDATION
        assert not (tmp_path / "b" / "table.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--kind", "gaussian", "--sp", "0.2", "--matrix-free"],
        ["--kind", "dct", "--sp", "0.01"],
        ["--kind", "gaussian", "--sp", "0.2", "--m", "2000", "--n", "2000"],
        ["--kind", "gaussian", "--sp", "0.2", "--lambda", "nan"],
        ["--kind", "gaussian", "--sp", "0.2", "--tol", "inf"]])
    def test_rejected_spec_leaves_no_directory(self, tmp_path, flags):
        out = tmp_path / "b"
        rc = cli.main(["bench", "--m", "20", "--n", "10", "--reps", "1",
                       "--out", str(out)] + flags)
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_beyond_physical_memory_leaves_no_directory(self, tmp_path,
                                                         monkeypatch):
        # generate refuses the spec; bench exits 4 and makes no --out
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}    # 1 MiB
        monkeypatch.setattr(generators.os, "sysconf", pages.__getitem__)
        out = tmp_path / "b"
        rc = cli.main(["bench", "--kind", "gaussian", "--m", "40", "--n",
                       "100", "--sp", "0.1", "--reps", "1", "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_no_repetitions_rejected(self, tmp_path, reps):
        out = tmp_path / "b"
        rc = cli.main(["bench", "--kind", "gaussian", "--m", "20", "--n", "10",
                       "--sp", "0.2", "--reps", reps, "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_desk_scale_counts_stored_bytes(self):
        spec = GeneratorSpec("dct", 2000, 2000, 0.1, seed=0)
        assert stored_bytes(spec) == 2000 ** 3 * 8 > cli.DESK_SCALE_BYTES
        assert (stored_bytes(spec, matrix_free=True)
                == (2 * 2000 * 2000 + 2000) * 8 < cli.DESK_SCALE_BYTES)
        # the limit is that of a dense (400, 200) instance
        assert stored_bytes(GeneratorSpec("gaussian", 400, 200, 0.1, seed=0)) \
            == cli.DESK_SCALE_BYTES
        with pytest.raises(ValueError, match="matrix-free"):
            stored_bytes(GeneratorSpec("gaussian", 20, 10, 0.2, seed=0),
                         matrix_free=True)

    def test_bench_matches_run(self, tmp_path):
        # one repetition of the sweep reproduces a direct solver call
        out = tmp_path / "bench"
        cli.main(["bench", "--kind", "gaussian", "--m", "40", "--n", "20",
                  "--sp", "0.1", "--reps", "1", "--solver", "mrnbk",
                  "--seed", "5", "--out", str(out)])
        table = read_csv(out / "table.csv")

        from bregman_kaczmarz.generators import GeneratorSpec, generate
        from bregman_kaczmarz.priors import SparsePrior
        inst_seed, x0_seed, solver_seed = cli.derived_seeds(5, 0)
        inst = generate(GeneratorSpec("gaussian", 40, 20, 0.1, seed=inst_seed))
        record = slv.run(inst.system, SparsePrior(2.0),
                         cli.preset_config("mrnbk", seed=solver_seed),
                         cli.initial_dual(20, x0_seed), truth=inst.truth)
        assert int(table[1][4]) == record.iterations


class TestDiagnose:
    def test_local_start_pass(self, tmp_path):
        # a combination known to satisfy the contraction hypotheses
        path = tmp_path / "inst.npz"
        cli.main(["generate", "--kind", "gaussian", "--m", "60", "--n", "30",
                  "--sp", "0.1", "--seed", "1", "--out", str(path)])
        out = tmp_path / "diag"
        rc = cli.main(["diagnose", str(path), "--solver", "abnbk-a",
                       "--local-start", "1e-3", "--out", str(out)])
        assert rc == cli.EXIT_OK
        audit = read_csv(out / "contraction.csv")
        assert audit[0] == ["k", "d_k", "d_k1", "bound_factor", "satisfied"]
        assert all(row[4] == "True" for row in audit[1:])

    def test_gradient_check_only_after_valid_audit(self, instance_path,
                                                   tmp_path, monkeypatch):
        calls = []
        check = diag.check_gradients

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)
        monkeypatch.setattr(diag, "check_gradients", counted)
        rc = cli.main(["diagnose", str(instance_path), "--solver", "mrnbk",
                       "--seed", "0", "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_VALIDATION
        assert calls == []

    def test_gradient_check_draws_after_local_start(self, tmp_path, capsys):
        # the check follows the audit but still draws right after the start
        path = tmp_path / "inst.npz"
        cli.main(["generate", "--kind", "gaussian", "--m", "60", "--n", "30",
                  "--sp", "0.1", "--seed", "1", "--out", str(path)])
        capsys.readouterr()
        rc = cli.main(["diagnose", str(path), "--solver", "abnbk-a",
                       "--seed", "5", "--local-start", "1e-3",
                       "--out", str(tmp_path / "diag")])
        assert rc == cli.EXIT_OK
        rng = np.random.default_rng(5)
        rng.standard_normal(30)
        dev = diag.check_gradients(load_instance(path).system,
                                   trials=diag.GRADIENT_TRIALS, rng=rng)
        assert f"grad_dev={dev:.3e}" in capsys.readouterr().out

    @pytest.mark.parametrize("scale, rc, verdict", [
        (1.0, cli.EXIT_OK, "PASS"), (1.5, cli.EXIT_DEGENERATE, "FAIL"),
        (np.nan, cli.EXIT_DEGENERATE, "FAIL")])
    def test_wrong_gradient_fails(self, tmp_path, capsys, monkeypatch,
                                  scale, rc, verdict):
        # F_i scaled at the check's points only: the audit still passes,
        # the gradients no longer match their finite differences
        path = tmp_path / "inst.npz"
        cli.main(["generate", "--kind", "gaussian", "--m", "60", "--n", "30",
                  "--sp", "0.1", "--seed", "1", "--out", str(path)])
        capsys.readouterr()
        eval_points = QuadraticSystem.eval_points
        monkeypatch.setattr(QuadraticSystem, "eval_points",
                            lambda self, i, X: scale * eval_points(self, i, X))
        assert cli.main(["diagnose", str(path), "--solver", "abnbk-a",
                         "--seed", "5", "--local-start", "1e-3",
                         "--out", str(tmp_path / "diag")]) == rc
        out = capsys.readouterr().out
        assert out.startswith(f"{verdict}: ")
        assert "contraction_satisfied=1.000" in out
        assert (" > 1e-05 " in out) == (verdict == "FAIL")

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_non_finite_local_start_rejected(self, instance_path, tmp_path,
                                             capsys, scale):
        out = tmp_path / "d"
        rc = cli.main(["diagnose", str(instance_path), f"--local-start={scale}",
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()
        assert "--local-start must be finite" in capsys.readouterr().err

    def test_far_start_violates_hypothesis(self, instance_path, tmp_path):
        # from a random start the cone-condition estimate explodes
        out = tmp_path / "d"
        rc = cli.main(["diagnose", str(instance_path), "--solver", "mrnbk",
                       "--seed", "0", "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["mrnbk", "abnbk-a"])
    def test_refusal_names_the_pair_that_set_eta(self, instance_path, tmp_path,
                                                 capsys, solver):
        # the ratio at the printed pair and row, recomputed from eval_all
        # and the gradient row along the audited run, is the printed eta;
        # from this start mrnbk's is an (x_k, truth) pair, abnbk-a's a
        # consecutive one
        rc = cli.main(["diagnose", str(instance_path), "--solver", solver,
                       "--seed", "0", "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("hypothesis violated: eta = ")
        found = re.fullmatch(r"eta = (\S+) at the pair \(x_(\d+), "
                             r"(x_(\d+)|truth)\), row (\d+)", err[1])
        assert found
        k, row = int(found[2]), int(found[5])
        inst = load_instance(instance_path)
        config = cli.preset_config(solver, seed=0)
        with pytest.raises(diag.HypothesisViolated) as info:
            diag.audit_run(inst, SparsePrior(cli.DEFAULT_LAMBDA), config,
                           cli.initial_dual(inst.system.n, 0))
        record, est = info.value.record, info.value.estimate
        assert found[1] == f"{est.eta:.4g}" and row == est.row
        assert (found[3] == "truth") == (solver == "mrnbk")
        x1 = record.primals[k]
        if found[3] == "truth":
            x2 = inst.truth
            assert est.pair == record.iterations + k
        else:
            x2 = record.primals[int(found[4])]
            assert int(found[4]) == k + 1 and est.pair == k
        sys = inst.system
        f1, f2 = sys.eval_all(x1)[row], sys.eval_all(x2)[row]
        d = x1 - x2
        g = sys.grad_component(row, x1)
        ratio = abs(f1 - f2 - g @ d) / abs(f1 - f2)
        bound = 1e-12 * (abs(f1) + abs(f2) + abs(g * d).sum()) / abs(f1 - f2)
        assert abs(ratio - est.eta) <= bound


def valid_call(command, instance_path):
    """A call of the command that succeeds once given an --out; diagnose
    starts where its audit holds, so it reaches --out."""
    spec = ["--kind", "gaussian", "--m", "20", "--n", "10", "--sp", "0.2"]
    return {"generate": ["generate"] + spec,
            "run": ["run", str(instance_path)],
            "bench": ["bench"] + spec + ["--reps", "1", "--solver", "nbk"],
            "diagnose": ["diagnose", str(instance_path),
                         "--local-start", "1e-3"]}[command]


COMMANDS = ["generate", "run", "bench", "diagnose"]


@pytest.mark.parametrize("command", COMMANDS)
def test_negative_seed_rejected(instance_path, tmp_path, capsys, command):
    out = tmp_path / "out"
    rc = cli.main(valid_call(command, instance_path)
                  + ["--seed", "-1", "--out", str(out)])
    assert rc == cli.EXIT_VALIDATION
    assert not out.exists()
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_unusable_out_rejected(instance_path, tmp_path, capsys, monkeypatch,
                               command):
    # a file where the output directory goes, or for generate a directory
    # where its file goes, and a path below a file: refused before any
    # instance is drawn or solved
    def work(*args, **kwargs):
        raise AssertionError("--out is checked only after the work")
    monkeypatch.setattr(generators, "generate", work)
    monkeypatch.setattr(slv, "run", work)
    out = tmp_path / "out"
    if command == "generate":
        out.mkdir()
    else:
        out.write_text("")
    (tmp_path / "file").write_text("")
    for path in (out, tmp_path / "file" / "out"):
        rc = cli.main(valid_call(command, instance_path) + ["--out", str(path)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")


# the integer flags of each command
INT_FLAGS = {"generate": ["--m"], "run": ["--max-iters"],
             "bench": ["--m", "--max-iters", "--reps"],
             "diagnose": ["--max-iters"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_usage_error_rejected(instance_path, tmp_path, capsys, command):
    # a usage error is bad input like any other: exit 4 and one error
    # line naming the argument, never argparse's exit 2 of a capped run
    out = ["--out", str(tmp_path / "out")]
    calls = [(valid_call(command, instance_path) + [flag, "1.5"] + out, flag)
             for flag in INT_FLAGS[command]]
    calls.append((valid_call(command, instance_path), "--out"))
    for argv, flag in calls:
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [[], ["solve", "inst.npz"]])
def test_missing_or_unknown_command_rejected(capsys, argv):
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "command" in err


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in COMMANDS])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bkz")
