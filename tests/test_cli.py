import gzip
import json
import struct
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import pau
from pau import cli
from pau.cli import main


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "pau.cli", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    assert "Traceback" not in proc.stderr
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


def _write_doc(path, numerator, denominator, safe=True):
    pau.write_coefficient_document(
        path, pau.RationalCoefficients(numerator, denominator), safe=safe)
    return str(path)


_CURVE = ["export-curve", "--coeffs", "{unit}", "--out", "{csv}"]
_HUGE_CURVE = ["export-curve", "--coeffs", "{huge}", "--out", "{csv}"]
# each input ends in the exit code given, before the command writes anything;
# stderr names the flag (exit 1) or the target or file (exit 2)
_BAD_TOOL_INPUTS = [
    (_CURVE + ["--noise", "-1"], 1, "--noise"),
    (_CURVE + ["--noise", "nan"], 1, "--noise"),
    (_CURVE + ["--noise", "inf"], 1, "--noise"),
    (_CURVE + ["--range", "0,inf"], 1, "--range"),
    (_CURVE + ["--noise", "0.1", "--seed", "-1"], 1, "--seed"),
    (["fit", "--target", "relu", "--max-iter", "0"], 1, "--max-iter"),
    (["fit", "--target", "relu", "--step", "nan"], 1, "--step"),
    (["fit", "--target", "relu", "--step", "10"], 1, "--step"),   # 2 grid points
    (["gradcheck", "--trials", "-1"], 1, "--trials"),
    (["gradcheck", "--seed", "-1"], 1, "--seed"),
    (["pade", "--target", "swish(0)"], 2, "swish(0)"),            # singular system
    (["pade", "--target", "swish(1e300)"], 2, "swish(1e300)"),    # OverflowError
    (["fit", "--target", "doc:{pole}", "--step", "0.5"], 2, "doc:{pole}"),
    (["fit", "--target", "doc:{huge}", "--step", "0.5"], 2, "doc:{huge}"),
    # the curve itself, the noise envelope, and the noise range overflow
    (_HUGE_CURVE + ["--points", "5"], 2, "{huge}: the curve overflows: f is -inf"),
    (_HUGE_CURVE + ["--range", "-1.5,1.5", "--points", "3", "--noise", "0.5"], 2,
     "{huge}: the curve overflows: noise_min is -inf"),
    (_HUGE_CURVE + ["--range", "-1,1", "--points", "3", "--noise", "1"], 2,
     "{huge}: noise range exceeds valid bounds"),
]


@pytest.mark.parametrize("argv,code,named", _BAD_TOOL_INPUTS,
                         ids=[" ".join(a).replace(" ".join(_CURVE), "export-curve")
                              for a, _, _ in _BAD_TOOL_INPUTS])
def test_bad_tool_input_exits_without_traceback(tmp_path, argv, code, named):
    paths = {"unit": _write_doc(tmp_path / "unit.coeffs", [0.0, 1.0], [0.5]),
             # Q(x) = 1 - 0.5x: a pole at x = 2
             "pole": _write_doc(tmp_path / "pole.coeffs", [1.0], [-0.5], safe=False),
             # 1e308 x overflows at the ends of the grid
             "huge": _write_doc(tmp_path / "huge.coeffs", [0.0, 1e308], []),
             "csv": str(tmp_path / "c.csv")}
    got, _, stderr = run_cli(*(a.format(**paths) for a in argv))
    assert got == code, stderr
    assert named.format(**paths) in stderr
    assert "Warning" not in stderr
    assert not (tmp_path / "c.csv").exists()


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

    @pytest.mark.parametrize("command", [["train"], ["prune", "--schedule", "0.1"]])
    def test_non_finite_loss_exits_3(self, command):
        code, stdout, stderr = run_cli(
            *command, "--preset", "synth-desk", "--optimizer", "sgd", "--lr", "1e12",
            "--epochs", "2", "--train-subset", "1000", "--test-subset", "200")
        assert code == 3, stdout
        assert "Traceback" not in stderr
        assert "Warning" not in stderr
        assert "error: step 5: loss is nan" in stderr
        assert "the output of layer 1 (Activation)" in stderr

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

    @staticmethod
    def _rewrite_manifest(raw, edit):
        (length,) = struct.unpack_from("<Q", raw, 8)
        manifest = json.loads(raw[16:16 + length])
        edit(manifest)
        payload = json.dumps(manifest).encode()
        return raw[:8] + struct.pack("<Q", len(payload)) + payload + raw[16 + length:]

    @staticmethod
    def _edit_offsets(layer, name, edit):
        def apply(m):
            for entry in m["offsets"]:
                if (entry["layer"], entry["name"]) == (layer, name):
                    edit(entry)
        return apply

    @staticmethod
    def _fill_blob(raw, layer, name, value, count):
        """Overwrite the first ``count`` values of a layer's array."""
        (length,) = struct.unpack_from("<Q", raw, 8)
        entry = next(e for e in json.loads(raw[16:16 + length])["offsets"]
                     if (e["layer"], e["name"]) == (layer, name))
        start = 16 + length + entry["offset"]
        return raw[:start] + struct.pack(f"<{count}d", *[value] * count) + raw[start + 8 * count:]

    @staticmethod
    def _pole(raw):
        """Every hidden pre-activation 1.0, at the pole of the unsafe unit x / (1 - x)."""
        raw = TestTrain._rewrite_manifest(raw, lambda m: m["pau_units"][0].update(
            safe=False, numerator=["0.0", "1.0"], denominator=["-1.0"]))
        return TestTrain._fill_blob(TestTrain._fill_blob(raw, 0, "W", 0.0, 784 * 16),
                                    0, "b", 1.0, 16)

    @pytest.mark.parametrize("damage,code,message", [
        (lambda raw: raw[:12], 2, "header"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["specs"][0].update(type="bogus")), 2, "unknown layer type"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m.pop("offsets")), 2, "offsets"),
        (lambda raw: raw[:-8], 2, "blob"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["specs"][1].update(unit=5)), 2, "references unit 5 of 1"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, TestTrain._edit_offsets(0, "W", lambda e: e.update(shape=[16, 784]))),
         2, "layer 0 (Dense) has weights"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m.update(offsets=[e for e in m["offsets"] if e["layer"] != 2])),
         2, "layer 2 (Dense) has weights None"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["masks"].update({"0": [1, 0, 1]})),
         2, "mask of layer 0 has shape (3,), the layer has 16 units"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["pau_units"][0].update(noise_alpha=-0.5)),
         2, "noise_alpha must be >= 0, got -0.5"),
        (lambda raw: TestTrain._fill_blob(raw, 0, "W", float("nan"), 1),
         2, "W of layer 0 holds nan at index (0, 0)"),
        (lambda raw: TestTrain._fill_blob(raw, 2, "b", float("-inf"), 10),
         2, "b of layer 2 holds -inf at index (0,)"),
        (lambda raw: TestTrain._fill_blob(raw, 0, "W", 1e308, 784 * 16),
         3, "samples 0-1023: output is not finite; first non-finite value: "
            "the output of layer 0 (Dense)"),
        (lambda raw: TestTrain._pole(raw), 2, "layer 1 (Activation) unit 0: denominator "
                                              "0.0 below pole floor at index 0 (x=1.0)"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m.update(specs=[m["specs"][0], {"type": "softmax"},
                                           m["specs"][2]])),
         2, "layer 1 (Softmax) must be the terminal layer"),
    ], ids=["short-header", "unknown-layer", "missing-key", "short-blob",
            "unit-out-of-range", "transposed-weights", "no-offsets", "short-mask",
            "negative-noise", "nan-weight", "infinite-bias", "overflowing-output", "pole",
            "inner-softmax"])
    def test_eval_corrupt_checkpoint(self, tmp_path, capsys, damage, code, message):
        good = tmp_path / "good.ckpt"
        pau.save_checkpoint(good, pau.build_network(pau.mlp_spec((784, 16, 10))))
        p = tmp_path / "bad.ckpt"
        p.write_bytes(damage(good.read_bytes()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # numpy's warnings are silenced
            assert main(["eval", "--preset", "synth-desk", "--checkpoint", str(p)]) == code
        err = capsys.readouterr().err
        assert str(p) in err and message in err

    @pytest.mark.parametrize("split,count", [("train", 10), ("test", 5)])
    def test_eval_split_takes_its_subset(self, tmp_path, monkeypatch, capsys, split, count):
        data = pau.synth_digits(50, seed=6)
        pau.data.write_dataset(data.subset(40), tmp_path)
        pau.data.write_dataset(
            pau.DatasetHandle(data.images[40:], data.labels[40:], "test"), tmp_path)
        ckpt = tmp_path / "mlp.ckpt"
        pau.save_checkpoint(ckpt, pau.build_network(pau.mlp_spec((784, 16, 10))))
        seen = []
        monkeypatch.setattr(cli, "evaluate", lambda net, d: seen.append(len(d)) or 0.5)
        assert main(["eval", "--preset", "mnist-desk", "--data-dir", str(tmp_path),
                     "--checkpoint", str(ckpt), "--split", split,
                     "--train-subset", "10", "--test-subset", "5"]) == 0
        assert seen == [count]

    def test_eval_checkpoint_input_shape_mismatch(self, tmp_path, capsys):
        ckpt = tmp_path / "lenet.ckpt"
        pau.save_checkpoint(ckpt, pau.build_network(pau.lenet_spec(),
                                                    input_shape=(1, 32, 32)))
        assert main(["eval", "--preset", "synth-desk", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "(1, 32, 32)" in err and "(28, 28)" in err

    @pytest.mark.parametrize("damage,message", [
        ("truncated-gzip", "train-images-idx3-ubyte.gz: Compressed file ended"),
        (None, "train_subset 10000 exceeds the 32 train samples in "),
        ("label-past-9", "{dir}/train-labels-idx1-ubyte: label 12 at index 0; "
                         "labels must lie in [0, 9]"),
        ("fewer-labels", "{dir}: 32 train images and 31 labels"),
    ], ids=["truncated-gzip", "fewer-samples-than-subset", "label-past-9", "fewer-labels"])
    def test_bad_idx_files_exit_2(self, tmp_path, damage, message):
        data = pau.synth_digits(40, seed=6)
        pau.data.write_dataset(data.subset(32), tmp_path)
        pau.data.write_dataset(
            pau.DatasetHandle(data.images[32:], data.labels[32:], "test"), tmp_path)
        labels = tmp_path / "train-labels-idx1-ubyte"
        if damage == "truncated-gzip":
            plain = tmp_path / "train-images-idx3-ubyte"
            gz = tmp_path / "train-images-idx3-ubyte.gz"
            gz.write_bytes(gzip.compress(plain.read_bytes())[:200])
            plain.unlink()
        elif damage == "label-past-9":
            raw = labels.read_bytes()
            labels.write_bytes(raw[:8] + bytes([12]) + raw[9:])
        elif damage == "fewer-labels":
            pau.data.write_idx_labels(labels, data.labels[:31])
        code, _, stderr = run_cli("train", "--preset", "mnist-desk",
                                  "--data-dir", str(tmp_path))
        assert code == 2
        assert "Traceback" not in stderr and message.format(dir=tmp_path) in stderr

    @pytest.mark.parametrize("command", [["train"], ["prune", "--schedule", "0.1"]],
                             ids=["train", "prune"])
    def test_idx_images_that_do_not_fit_exit_2(self, tmp_path, capsys, command):
        data = pau.synth_digits(60, seed=6)
        pau.data.write_dataset(data.subset(40), tmp_path)
        pau.data.write_dataset(
            pau.DatasetHandle(data.images[40:], data.labels[40:], "test"), tmp_path)
        # the header claims 28x20 images; the payload is still long enough
        path = tmp_path / "train-images-idx3-ubyte"
        raw = path.read_bytes()
        path.write_bytes(raw[:12] + struct.pack(">I", 20) + raw[16:])
        assert main([*command, "--preset", "mnist-desk", "--data-dir", str(tmp_path),
                     "--train-subset", "40", "--test-subset", "20"]) == 2
        err = capsys.readouterr().err
        assert (f"the mnist-desk network takes inputs of shape (784,); the train images "
                f"of {tmp_path} are (28, 20)") in err

    def test_mnist_paper_preset_on_idx_files(self, tmp_path):
        # drive the IDX -> pad -> LeNet path with standard-named files
        data = pau.synth_digits(320, seed=6)
        pau.data.write_dataset(data.subset(256), tmp_path)
        pau.data.write_dataset(
            pau.DatasetHandle(data.images[256:], data.labels[256:], "test"), tmp_path)
        code, stdout, stderr = run_cli(
            "train", "--preset", "mnist-paper", "--data-dir", str(tmp_path),
            "--seed", "1", "--epochs", "1", "--batch-size", "64",
            "--train-subset", "256", "--test-subset", "64")
        assert code == 0, stderr
        assert "final test_acc" in stdout


_BAD_FLAGS = [
    (["--lr", "-1"], "lr must be > 0"),
    (["--batch-size", "0"], "batch_size must be >= 1"),
    (["--lr-decay", "2"], "lr_decay must lie in (0, 1]"),
    (["--init", "bogus"], "init: unknown builtin 'bogus'"),
    (["--init", "swish(1e400)"], "init: swish beta inf is out of range"),
    (["--noise-alpha", "-1"], "noise_alpha must be >= 0"),
    (["--pau-lr", "-1"], "pau_lr must be > 0"),
    (["--seed", "-1"], "seed must be >= 0"),
    (["--train-subset", "0"], "train_subset must be >= 1"),
]
_BAD_CONFIG_LINES = [
    ("optimizer bogus", "unknown optimizer 'bogus'"),
    ("lr -1", "lr must be > 0"),
    ("init bogus", "init: unknown builtin 'bogus'"),
    (None, "Is a directory"),   # --config names a directory
]
# short runs, so that a check that lets a bad value through ends quickly
_SHORT_RUN = ["--preset", "synth-desk", "--epochs", "1", "--train-subset", "300",
              "--test-subset", "100"]


class TestBadSettings:
    @pytest.mark.parametrize("command", [["train"], ["prune", "--schedule", "0.1"]],
                             ids=["train", "prune"])
    @pytest.mark.parametrize("flags,message", _BAD_FLAGS,
                             ids=[" ".join(f) for f, _ in _BAD_FLAGS])
    def test_bad_flag_exits_1(self, capsys, command, flags, message):
        assert main([*command, *_SHORT_RUN, *flags]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err
        assert out == ""

    @pytest.mark.parametrize("line,message", _BAD_CONFIG_LINES,
                             ids=[line or "directory" for line, _ in _BAD_CONFIG_LINES])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, line, message):
        path = tmp_path
        if line is not None:
            path = tmp_path / "run.cfg"
            path.write_text(f"epochs 1\n{line}\n")
        assert main(["train", "--preset", "synth-desk", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: config file {path}: ") and message in err
        assert out == ""


VALID_CONFIG = (b"# desk run\noptimizer adam\nlr 0.002\nmomentum 0.5\nbatch_size 256\n"
                b"epochs 2\nseed 5\ntrain_subset 2000\ntest_subset 500\n"
                b"init lrelu(0.01)\nnoise_alpha 0.0\npau_lr 0.001\nlr_decay 0.9\n"
                b"data_dir idx\n")
# bytes of numbers, separators and comments, or any byte at all
_BYTES = st.sampled_from(b"-+.0123456789eE \t\n#") | st.integers(0, 255)


def _edits(size, header=0):
    """Lists of up to 8 byte replacements, insertions and deletions at
    positions in [0, size].  With a ``header``: truncations too, and as
    often the first ``header`` bytes zero-filled from some byte on, as a
    header cut short would be; uniform edits seldom land there."""
    ops = ("replace", "insert", "delete") + (("truncate",) if header else ())
    edits = st.lists(st.tuples(st.sampled_from(ops), st.integers(0, size), _BYTES),
                     min_size=1, max_size=8)
    if header:
        edits |= st.integers(0, header - 1).map(
            lambda start: [("replace", i, 0) for i in range(start, header)])
    return edits


def _mutate(raw, edits):
    raw = bytearray(raw)
    for op, pos, byte in edits:
        pos %= len(raw) + 1
        if op == "insert":
            raw.insert(pos, byte)
        elif op == "truncate":
            del raw[pos:]
        elif pos < len(raw):
            if op == "replace":
                raw[pos] = byte
            else:
                del raw[pos]
    return bytes(raw)


@settings(max_examples=200, deadline=None)
@given(edits=_edits(len(VALID_CONFIG)))
def test_mutated_config_gives_settings_or_exits_2(tmp_path_factory, edits):
    # only the settings step runs: no data is made and nothing trains
    path = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
    path.write_bytes(_mutate(VALID_CONFIG, edits))
    args = cli.build_parser().parse_args(["train", "--config", str(path)])
    try:
        _, cfg = cli._run_settings(args)
    except cli._Fail as exc:
        assert exc.code == 2 and str(exc).startswith(f"config file {path}: ")
    else:
        assert isinstance(cfg, pau.TrainConfig)


# The file readers, each fed byte-mutated copies of a valid file through
# main: every mutant runs or exits with a documented code, never raising.
_FUZZED = settings(max_examples=100, deadline=None)


def _valid_document(tmp, safe):
    path = tmp / "valid.coeffs"
    pau.write_coefficient_document(path, pau.builtin_coefficients("tanh"), safe=safe,
                                   provenance="pade:tanh")
    return path.read_bytes()


@_FUZZED
@given(safe=st.booleans(), edits=_edits(200, header=32))
def test_mutated_coefficient_document(tmp_path_factory, safe, edits):
    tmp = tmp_path_factory.getbasetemp()
    path = tmp / "fuzzed.coeffs"
    path.write_bytes(_mutate(_valid_document(tmp, safe), edits))
    assert main(["export-curve", "--coeffs", str(path), "--points", "41",
                 "--noise", "0.05", "--out", str(tmp / "curve.csv")]) in (0, 2)
    assert main(["fit", "--target", f"doc:{path}", "--step", "0.05"]) in (0, 2, 3)


def _valid_checkpoint(tmp):
    path = tmp / "valid.ckpt"
    pau.save_checkpoint(path, pau.build_network(pau.mlp_spec((784, 8, 10)), seed=3))
    raw = path.read_bytes()
    return raw, 16 + struct.unpack_from("<Q", raw, 8)[0]


@_FUZZED
@given(data=st.data())
def test_mutated_checkpoint(tmp_path_factory, data):
    tmp = tmp_path_factory.getbasetemp()
    raw, manifest_end = _valid_checkpoint(tmp)
    path = tmp / "fuzzed.ckpt"
    # edits land in the header and manifest; a changed weight still evaluates
    path.write_bytes(_mutate(raw, data.draw(_edits(manifest_end, header=16))))
    assert main(["eval", "--preset", "synth-desk", "--checkpoint", str(path),
                 "--train-subset", "50", "--test-subset", "20"]) in (0, 2, 3)


_IDX_FILES = [name for pair in pau.data.STANDARD_FILES.values() for name in pair]


@_FUZZED
@given(name=st.sampled_from(_IDX_FILES), edits=_edits(40 * 784 + 16, header=16))
def test_mutated_idx_file(tmp_path_factory, name, edits):
    tmp = tmp_path_factory.getbasetemp() / "idx"
    data = pau.synth_digits(60, seed=6)
    pau.data.write_dataset(data.subset(40), tmp)
    pau.data.write_dataset(
        pau.DatasetHandle(data.images[40:], data.labels[40:], "test"), tmp)
    path = tmp / name
    path.write_bytes(_mutate(path.read_bytes(), edits))
    assert main(["train", "--preset", "mnist-desk", "--data-dir", str(tmp), "--epochs", "1",
                 "--train-subset", "40", "--test-subset", "20"]) in (0, 2)


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
