import subprocess
import sys

import pau
from pau.cli import main


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "pau.cli", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


class TestPade:
    def test_tanh_prints_table_row(self, tmp_path):
        out = tmp_path / "tanh.coeffs"
        code, stdout, _ = run_cli("pade", "--target", "tanh",
                                  "--orders", "5,4", "--out", str(out))
        assert code == 0
        assert f"a_3 = {1/9!r}" in stdout
        assert f"b_4 = {1/63!r}" in stdout
        doc = pau.read_coefficient_document(out)
        # the document reproduces the printed values exactly
        for j, v in enumerate(doc.coefficients.numerator):
            assert f"a_{j} = {float(v)!r}" in stdout

    def test_relu_has_no_series(self):
        code, _, stderr = run_cli("pade", "--target", "relu", "--orders", "5,4")
        assert code == 2
        assert "no Taylor series at 0" in stderr

    def test_unknown_target(self):
        code, _, stderr = run_cli("pade", "--target", "mystery")
        assert code == 2

    def test_malformed_orders_is_usage_error(self):
        code, _, _ = run_cli("pade", "--target", "tanh", "--orders", "5")
        assert code == 1


class TestFit:
    def test_lrelu_residual_bound(self, tmp_path):
        out = tmp_path / "fit.coeffs"
        code, stdout, _ = run_cli("fit", "--target", "lrelu(0.01)",
                                  "--range", "-3,3", "--step", "0.001",
                                  "--out", str(out))
        assert code == 0
        residual = float(stdout.splitlines()[0].split("=")[1])
        assert residual <= 0.06
        doc = pau.read_coefficient_document(out)
        assert doc.provenance == "lsq:lrelu(0.01)"

    def test_exact_rational_target_document(self, tmp_path):
        target_doc = tmp_path / "target.coeffs"
        pau.write_coefficient_document(target_doc,
                                       pau.builtin_coefficients("tanh"),
                                       safe=True, provenance="pade:tanh")
        code, stdout, _ = run_cli("fit", "--target", f"doc:{target_doc}",
                                  "--step", "0.001")
        assert code == 0
        residual = float(stdout.splitlines()[0].split("=")[1])
        assert residual < 1e-8

    def test_malformed_range(self):
        code, _, _ = run_cli("fit", "--target", "relu", "--range", "3,-3")
        assert code == 1

    def test_missing_target_doc(self):
        code, _, stderr = run_cli("fit", "--target", "doc:/nonexistent/file")
        assert code == 2

    def test_non_convergence_exits_3(self):
        code, _, stderr = run_cli("fit", "--target", "elu", "--step", "0.001",
                                  "--max-iter", "3")
        assert code == 3
        assert "no convergence" in stderr


class TestGradcheck:
    def test_default_passes(self):
        code, stdout, _ = run_cli("gradcheck", "--seed", "0", "--trials", "200")
        assert code == 0
        assert "worst_relative_error" in stdout

    def test_fault_injection_detected(self):
        code, _, stderr = run_cli("gradcheck", "--seed", "0", "--trials", "200",
                                  "--inject-fault")
        assert code == 4
        assert "FAILED" in stderr
        assert "component=d_denominator[" in stderr

    def test_zero_trials_warns(self):
        code, stdout, _ = run_cli("gradcheck", "--trials", "0")
        assert code == 0
        assert "0 trials" in stdout


class TestTrain:
    def test_synth_desk_deterministic_metrics(self, tmp_path):
        csvs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, stdout, stderr = run_cli(
                "train", "--preset", "synth-desk", "--seed", "7",
                "--epochs", "2", "--metrics-out", str(path))
            assert code == 0, stderr
            csvs.append(path.read_text().splitlines())
        assert csvs[0][0] == "epoch,train_loss,test_acc,seconds"
        for row_a, row_b in zip(csvs[0][1:], csvs[1][1:]):
            # identical except the wall-time column
            assert row_a.split(",")[:3] == row_b.split(",")[:3]

    def test_mnist_desk_needs_data(self, tmp_path):
        code, _, stderr = run_cli("train", "--preset", "mnist-desk",
                                  "--data-dir", str(tmp_path / "nowhere"))
        assert code == 2

    def test_synth_desk_reaches_090(self, tmp_path):
        path = tmp_path / "metrics.csv"
        code, _, stderr = run_cli("train", "--preset", "synth-desk",
                                  "--seed", "7", "--metrics-out", str(path))
        assert code == 0, stderr
        final_acc = float(path.read_text().splitlines()[-1].split(",")[2])
        assert final_acc >= 0.90

    def test_config_file_equals_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# desk run, shortened\n"
                       "optimizer adam\nlr 0.002\nbatch_size 256\n"
                       "epochs 2\nseed 5\ntrain_subset 2000\ntest_subset 500\n"
                       "init lrelu(0.01)\nnoise_alpha 0.0\n")
        out_cfg = tmp_path / "from_config.csv"
        code, _, stderr = run_cli("train", "--preset", "synth-desk",
                                  "--config", str(cfg),
                                  "--metrics-out", str(out_cfg))
        assert code == 0, stderr
        out_flags = tmp_path / "from_flags.csv"
        code, _, _ = run_cli("train", "--preset", "synth-desk", "--seed", "5",
                             "--epochs", "2", "--train-subset", "2000",
                             "--test-subset", "500",
                             "--metrics-out", str(out_flags))
        assert code == 0
        rows_cfg = [r.split(",")[:3] for r in out_cfg.read_text().splitlines()]
        rows_flags = [r.split(",")[:3] for r in out_flags.read_text().splitlines()]
        assert rows_cfg == rows_flags

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs 3\nseed 1\ntrain_subset 500\ntest_subset 200\n")
        path = tmp_path / "m.csv"
        code, _, _ = run_cli("train", "--preset", "synth-desk",
                             "--config", str(cfg), "--epochs", "1",
                             "--metrics-out", str(path))
        assert code == 0
        assert len(path.read_text().splitlines()) == 2  # header + 1 epoch

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate 0.1\n")
        code, _, stderr = run_cli("train", "--preset", "synth-desk",
                                  "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in stderr

    def test_lr_decay_flag_changes_run(self, tmp_path):
        outs = []
        for decay in ("1.0", "0.5"):
            path = tmp_path / f"d{decay}.csv"
            code, _, _ = run_cli("train", "--preset", "synth-desk",
                                 "--seed", "4", "--epochs", "2",
                                 "--train-subset", "1000",
                                 "--test-subset", "300",
                                 "--lr-decay", decay,
                                 "--metrics-out", str(path))
            assert code == 0
            outs.append(path.read_text().splitlines())
        # first epoch identical, second diverges once the decayed rate bites
        assert outs[0][1].split(",")[1] == outs[1][1].split(",")[1]
        assert outs[0][2].split(",")[1] != outs[1][2].split(",")[1]

    def test_checkpoint_and_eval(self, tmp_path):
        ckpt = tmp_path / "net.ckpt"
        code, stdout, stderr = run_cli(
            "train", "--preset", "synth-desk", "--seed", "3",
            "--epochs", "1", "--save", str(ckpt))
        assert code == 0, stderr
        final = float(stdout.splitlines()[-1].split("=")[1])
        code, stdout, stderr = run_cli("eval", "--preset", "synth-desk",
                                       "--checkpoint", str(ckpt))
        assert code == 0, stderr
        assert float(stdout.split("=")[1]) == final

    def test_eval_bad_checkpoint(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"garbage!")
        code, _, stderr = run_cli("eval", "--preset", "synth-desk",
                                  "--checkpoint", str(p))
        assert code == 2

    def test_mnist_paper_preset_on_idx_files(self, tmp_path):
        # drive the IDX -> pad -> LeNet path with standard-named files
        data = pau.synth_digits(320, seed=6)
        pau.data.write_dataset(data.subset(256), tmp_path, "train")
        pau.data.write_dataset(
            pau.DatasetHandle(data.images[256:], data.labels[256:]),
            tmp_path, "test")
        code, stdout, stderr = run_cli(
            "train", "--preset", "mnist-paper", "--data-dir", str(tmp_path),
            "--seed", "1", "--epochs", "1", "--batch-size", "64",
            "--train-subset", "256", "--test-subset", "64")
        assert code == 0, stderr
        assert "final test_acc" in stdout


class TestPrune:
    def test_schedule_csv_strictly_decreasing(self, tmp_path):
        report = tmp_path / "prune.csv"
        code, stdout, stderr = run_cli(
            "prune", "--preset", "synth-desk", "--seed", "2", "--epochs", "1",
            "--schedule", "0.1,0.3,0.5", "--report", str(report))
        assert code == 0, stderr
        lines = report.read_text().splitlines()
        assert lines[0] == "p,params_remaining,test_acc"
        params = [int(line.split(",")[1]) for line in lines[1:]]
        assert len(params) == 3
        assert params == sorted(params, reverse=True)
        assert len(set(params)) == 3

    def test_bad_schedule_is_usage_error(self):
        code, _, _ = run_cli("prune", "--preset", "synth-desk",
                             "--schedule", "0.5,0.1")
        assert code == 1


class TestExportCurve:
    def test_tanh_middle_row_zero(self, tmp_path):
        doc = tmp_path / "tanh.coeffs"
        pau.write_coefficient_document(doc, pau.builtin_coefficients("tanh"))
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli("export-curve", "--coeffs", str(doc),
                             "--range", "-1,1", "--points", "3",
                             "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,f"
        x, f = lines[2].split(",")
        assert float(x) == 0.0 and float(f) == 0.0

    def test_envelope_alpha_zero_degenerate(self, tmp_path):
        doc = tmp_path / "sig.coeffs"
        pau.write_coefficient_document(doc, pau.builtin_coefficients("sigmoid"))
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli("export-curve", "--coeffs", str(doc),
                             "--range", "-1,1", "--points", "5",
                             "--noise", "0", "--out", str(out))
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            _, f, lo, hi = line.split(",")
            assert lo == f and hi == f

    def test_envelope_brackets_center(self, tmp_path):
        doc = tmp_path / "sig.coeffs"
        pau.write_coefficient_document(doc, pau.builtin_coefficients("sigmoid"))
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli("export-curve", "--coeffs", str(doc),
                             "--range", "-2,2", "--points", "9",
                             "--noise", "0.05", "--seed", "1", "--out", str(out))
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            _, f, lo, hi = (float(v) for v in line.split(","))
            assert lo <= f <= hi

    def test_sigmoid_value_at_one(self, tmp_path):
        doc = tmp_path / "sig.coeffs"
        pau.write_coefficient_document(doc, pau.builtin_coefficients("sigmoid"))
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli("export-curve", "--coeffs", str(doc),
                             "--range", "-1,1", "--points", "3",
                             "--out", str(out))
        assert code == 0
        x, f = out.read_text().splitlines()[-1].split(",")
        assert float(x) == 1.0
        assert abs(float(f) - 0.73107) < 1e-4

    def test_unreadable_document(self, tmp_path):
        code, _, stderr = run_cli("export-curve", "--coeffs",
                                  str(tmp_path / "missing"), "--out",
                                  str(tmp_path / "c.csv"))
        assert code == 2

    def test_non_finite_coefficient_document(self, tmp_path):
        doc = tmp_path / "nan.coeffs"
        doc.write_text("version 1\norders 1 0\nsafe true\nnumerator 0.5 nan\n")
        code, _, stderr = run_cli("export-curve", "--coeffs", str(doc),
                                  "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert "non-finite" in stderr

    def test_unsafe_pole_in_range(self, tmp_path):
        # Q(x) = 1 - 0.5x vanishes at x = 2, a grid point of [0, 3] at 7 points
        doc = tmp_path / "pole.coeffs"
        pau.write_coefficient_document(doc, pau.RationalCoefficients([1.0], [-0.5]),
                                       safe=False)
        code, _, stderr = run_cli("export-curve", "--coeffs", str(doc),
                                  "--range", "0,3", "--points", "7",
                                  "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert "x=2.0" in stderr

    def test_deterministic_given_seed(self, tmp_path):
        doc = tmp_path / "t.coeffs"
        pau.write_coefficient_document(doc, pau.builtin_coefficients("tanh"))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run_cli("export-curve", "--coeffs", str(doc),
                                 "--points", "11", "--noise", "0.02",
                                 "--seed", "9", "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestMainEntry:
    def test_usage_error_in_process(self):
        assert main(["no-such-command"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_lf_line_endings(self, tmp_path):
        doc = tmp_path / "t.coeffs"
        pau.write_coefficient_document(doc, pau.builtin_coefficients("tanh"))
        out = tmp_path / "c.csv"
        assert main(["export-curve", "--coeffs", str(doc), "--points", "3",
                     "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
