import dataclasses
import gzip
import json
import re
import struct
import subprocess
import sys
import warnings

import pytest
from conftest import child_env
from hypothesis import given, settings, strategies as st

import pau
from pau import cli
from pau.cli import main


def run_cli(*args, cwd=None, **env):
    proc = subprocess.run([sys.executable, "-m", "pau.cli", *args], env=child_env(**env),
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
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

    def test_elu_fits(self):
        code, stdout, stderr = run_cli("fit", "--target", "elu", "--step", "0.001")
        assert code == 0, stderr
        residual = float(stdout.splitlines()[0].split("=")[1])
        assert residual < 0.01

    def test_residual_whose_start_overflows_fits_exactly(self, tmp_path):
        # the start's residual sum of squares overflows; a polish step
        # reaches the exact fit of 1e200 + 1e200 x
        doc = _write_doc(tmp_path / "big.coeffs", [1e200, 1e200], [])
        code, stdout, stderr = run_cli("fit", "--target", f"doc:{doc}",
                                       "--orders", "2,0", "--step", "0.01")
        assert code == 0, stderr
        assert stdout.splitlines()[0] == "max_abs_residual = 0.0"


class TestGradcheck:
    def test_default_passes(self):
        code, stdout, _ = run_cli("gradcheck", "--seed", "0", "--trials", "200")
        assert code == 0
        assert "worst_relative_error" in stdout

    def test_fault_injection_detected(self, monkeypatch, capsys):
        # a kernel whose denominator gradients have the wrong sign must fail
        expand = pau.gradcheck._expand_gradients

        def broken(x, w, v, m, n):
            out = expand(x, w, v, m, n)
            out[..., m + 1:] *= -1.0
            return out

        monkeypatch.setattr(pau.gradcheck, "_expand_gradients", broken)
        assert main(["gradcheck", "--seed", "0", "--trials", "200"]) == 4
        stderr = capsys.readouterr().err
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
    (_CURVE + ["--range=-1e308,1e308"], 1, "--range"),   # hi - lo overflows
    (["fit", "--target", "relu", "--range=-1e308,1e308", "--step", "1e300"], 1, "--range"),
    (_CURVE + ["--noise", "0.1", "--seed", "-1"], 1, "--seed"),
    (["fit", "--target", "relu", "--max-iter", "0"], 1, "--max-iter"),
    (["fit", "--target", "relu", "--step", "nan"], 1, "--step"),
    (["fit", "--target", "relu", "--step", "10"], 1, "--step"),   # 2 grid points
    # arrays of petabytes: the allocation fails before a page is touched
    (["fit", "--target", "relu", "--step", "1e-14"], 1, "--step"),
    (_CURVE + ["--points", "1000000000000000"], 1, "--points"),
    (["gradcheck", "--trials", "1000000000000000"], 1, "--trials"),
    (["gradcheck", "--trials", "-1"], 1, "--trials"),
    (["gradcheck", "--seed", "-1"], 1, "--seed"),
    (["pade", "--target", "swish(0)"], 2, "swish(0)"),            # singular system
    (["pade", "--target", "swish(1e300)"], 2, "swish(1e300)"),    # OverflowError
    (["fit", "--target", "doc:{pole}", "--step", "0.5"], 2, "doc:{pole}"),
    (["fit", "--target", "doc:{huge}", "--step", "0.5"], 2, "doc:{huge}"),
    # the target is finite, but the target times x^3 overflows
    (["fit", "--target", "doc:{wide}", "--step", "0.01"], 2, "doc:{wide}"),
    # finite rows whose column sums of squares overflow: the target times x,
    # and the grid's x^3 (the grid step is to blame)
    (["fit", "--target", "lrelu(1e300)", "--step", "0.01"], 2, "target lrelu(1e+300)"),
    (["fit", "--target", "relu", "--range=-1e60,1e60", "--step", "1e59"], 1, "--step"),
    # a grid whose point count is not finite
    (["fit", "--target", "relu", "--range=-1e300,1e300", "--step", "1e-300"], 1, "--step"),
    # a constant's residual, up to 3e160, whose sum of squares overflows
    (["fit", "--target", "doc:{steep}", "--orders", "0,0", "--step", "0.01"], 2,
     "doc:{steep}"),
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
             "wide": _write_doc(tmp_path / "wide.coeffs", [0.0, 3e306], []),
             "steep": _write_doc(tmp_path / "steep.coeffs", [0.0, 1e160], []),
             "csv": str(tmp_path / "c.csv")}
    got, _, stderr = run_cli(*(a.format(**paths) for a in argv))
    assert got == code, stderr
    assert named.format(**paths) in stderr
    assert "Warning" not in stderr
    assert not (tmp_path / "c.csv").exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 8.00 PiB")


# every later array that a tool command's sizing flag sizes, past the
# first allocation that the petabyte inputs above reach
_SIZED_ALLOCATIONS = [
    (pau.gradcheck, "compare_trials", ["gradcheck", "--trials", "5"], "--trials 5"),
    (cli, "fit_residual", ["fit", "--target", "relu", "--step", "0.01"], "--step 0.01"),
    (cli, "eval_pau_batch", _CURVE + ["--points", "7"], "--points 7"),
    (cli, "sample_noisy_coeffs", _CURVE + ["--points", "7", "--noise", "0.1"], "--points 7"),
]


@pytest.mark.parametrize("module,name,argv,named", _SIZED_ALLOCATIONS,
                         ids=[f"{a[0]} {n}" for _, n, a, _ in _SIZED_ALLOCATIONS])
def test_out_of_memory_names_the_sizing_flag(tmp_path, monkeypatch, capsys,
                                             module, name, argv, named):
    monkeypatch.setattr(module, name, _out_of_memory)
    paths = {"unit": _write_doc(tmp_path / "unit.coeffs", [0.0, 1.0], [0.5]),
             "csv": str(tmp_path / "c.csv")}
    assert main([a.format(**paths) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {named}: Unable to allocate 8.00 PiB\n"
    assert not (tmp_path / "c.csv").exists()


def test_presets():
    # the values of the README's preset table
    assert cli.PRESETS == {
        "mnist-desk": dict(arch="mlp", source="idx", epochs=5, batch_size=256,
                           optimizer="adam", lr=0.002, train_subset=10000,
                           test_subset=2000),
        "fmnist-desk": dict(arch="mlp", source="idx", epochs=5, batch_size=256,
                            optimizer="adam", lr=0.002, train_subset=10000,
                            test_subset=2000),
        "synth-desk": dict(arch="mlp", source="synth", epochs=5, batch_size=256,
                           optimizer="adam", lr=0.002, train_subset=10000,
                           test_subset=2000),
        "mnist-paper": dict(arch="lenet", source="idx", epochs=100, batch_size=256,
                            optimizer="adam", lr=0.002, train_subset=None,
                            test_subset=None),
    }


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

    @pytest.mark.parametrize("command", ["train", "prune", "eval"])
    def test_idx_preset_without_data_dir_exits_2(self, tmp_path, capsys, command):
        ckpt = tmp_path / "net.ckpt"   # eval loads its checkpoint first
        pau.save_checkpoint(ckpt, pau.build_network(pau.mlp_spec((784, 16, 10))))
        flags = ["--checkpoint", str(ckpt)] if command == "eval" else []
        assert main([command, *flags, "--preset", "mnist-desk"]) == 2
        out, err = capsys.readouterr()
        assert err == "error: this preset needs --data-dir with IDX files\n" and out == ""

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
    def _fill_blob(raw, layer, name, value, count):
        """Overwrite the first ``count`` values of a Dense layer's array.  The
        blob holds each Dense's W, then its b, in layer order."""
        (length,) = struct.unpack_from("<Q", raw, 8)
        start = 16 + length
        for i, d in enumerate(json.loads(raw[16:16 + length])["specs"]):
            if d["type"] == "dense":
                for n, size in (("W", d["in_dim"] * d["out_dim"]), ("b", d["out_dim"])):
                    if (i, n) == (layer, name):
                        return (raw[:start] + struct.pack(f"<{count}d", *[value] * count)
                                + raw[start + 8 * count:])
                    start += 8 * size
        raise LookupError(f"no array {name} of layer {layer}")

    @staticmethod
    def _nest(raw, depth):
        """The manifest {"specs": [[...]]}, its lists nested ``depth`` deep."""
        (length,) = struct.unpack_from("<Q", raw, 8)
        payload = b'{"specs": ' + b"[" * depth + b"]" * depth + b"}"
        return raw[:8] + struct.pack("<Q", len(payload)) + payload + raw[16 + length:]

    @staticmethod
    def _pole(raw):
        """Every hidden pre-activation 1.0, at the pole of the unsafe unit x / (1 - x)."""
        raw = TestTrain._rewrite_manifest(raw, lambda m: m["pau_units"][0].update(
            safe=False, numerator=["0.0", "1.0"], denominator=["-1.0"]))
        return TestTrain._fill_blob(TestTrain._fill_blob(raw, 0, "W", 0.0, 784 * 16),
                                    0, "b", 1.0, 16)

    # the blob of mlp_spec((784, 16, 10)) holds 8 * (784 * 16 + 16 + 16 * 10 + 10) = 101840 bytes
    @pytest.mark.parametrize("damage,code,message", [
        (lambda raw: raw[:12], 2, "header"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["specs"][0].update(type="bogus")), 2, "unknown layer type"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m.pop("seed")), 2, "manifest lacks key 'seed'"),
        (lambda raw: raw[:-8], 2, "the blob holds 101832 bytes, the specs' arrays need 101840"),
        (lambda raw: raw + bytes(8), 2,
         "the blob holds 101848 bytes, the specs' arrays need 101840"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["specs"][1].update(unit=5)), 2, "references unit 5 of 1"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["specs"][0].update(in_dim=16, out_dim=784)),
         2, "the blob holds 101840 bytes, the specs' arrays need 107984"),
        (lambda raw: raw[:-8 * (16 * 10 + 10)],
         2, "the blob holds 100480 bytes, the specs' arrays need 101840"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["specs"][0].update(in_dim=10 ** 10, out_dim=10 ** 10)),
         2, f"the blob holds 101840 bytes, the specs' arrays need "
            f"{8 * (10 ** 20 + 10 ** 10 + 16 * 10 + 10)}"),
        (lambda raw: TestTrain._nest(raw, 100_000), 2, "the manifest nests too deeply to parse"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m.update(input_shape=[True])),
         2, "input_shape must be a list of integers >= 1, got [True]"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m.update(input_shape=[784.0])),
         2, "input_shape must be a list of integers >= 1, got [784.0]"),
        (lambda raw: TestTrain._rewrite_manifest(raw, lambda m: m.update(seed="abc")),
         2, "seed must be an integer >= 0, got 'abc'"),
        (lambda raw: TestTrain._rewrite_manifest(raw, lambda m: m.update(seed=-1)),
         2, "seed must be an integer >= 0, got -1"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["masks"].update({"00": [1] * 16})),
         2, "mask key '00' names no layer with weights"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["masks"].update({"0": [None] * 16})),
         2, "mask of layer 0 must be a list of 0 and 1, got [None, None,"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["masks"].update({"0": [True] * 16})),
         2, "mask of layer 0 must be a list of 0 and 1, got [True, True,"),
        (lambda raw: TestTrain._rewrite_manifest(raw, lambda m: m["masks"].update({"0": 2})),
         2, "mask of layer 0 must be a list of 0 and 1, got 2"),
        (lambda raw: TestTrain._rewrite_manifest(raw, lambda m: m["masks"].update({"0": "x"})),
         2, "mask of layer 0 must be a list of 0 and 1, got 'x'"),
        (lambda raw: TestTrain._rewrite_manifest(raw, lambda m: m["masks"].update({"0": {}})),
         2, "mask of layer 0 must be a list of 0 and 1, got {}"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["pau_units"][0].update(denominator="")),
         2, "unit 0: denominator must be a list of strings, got ''"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["pau_units"][0].update(numerator=[True])),
         2, "unit 0: numerator must be a list of strings, got [True]"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["masks"].update({"0": [1, 0, 1]})),
         2, "mask of layer 0 has shape (3,), the layer has 16 units"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["pau_units"][0].update(noise_alpha=-0.5)),
         2, "noise_alpha must be >= 0, got -0.5"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["pau_units"][0].update(noise_alpha=1e308)),
         2, "noise_alpha 1e+308: the unit's noise range exceeds valid bounds"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["pau_units"][0].update(noise_alpha=True)),
         2, "noise_alpha must be a number, got True"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["pau_units"][0].update(safe="false")),
         2, "safe must be true or false, got 'false'"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["pau_units"][0].update(safe=None)),
         2, "safe must be true or false, got None"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["pau_units"][0].update(trainable="no")),
         2, "trainable must be true or false, got 'no'"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["specs"][0].update(out_dim=True)),
         2, "layer 0: Dense out_dim must be an integer >= 1, got True"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m["specs"][1].update(unit=False)), 2, "references unit False of 1"),
        (lambda raw: TestTrain._fill_blob(raw, 0, "W", float("nan"), 1),
         2, "W of layer 0 holds nan at index (0, 0)"),
        (lambda raw: TestTrain._fill_blob(raw, 2, "b", float("-inf"), 10),
         2, "b of layer 2 holds -inf at index (0,)"),
        (lambda raw: TestTrain._fill_blob(raw, 0, "W", 1e308, 784 * 16),
         3, "samples 0-127: output is not finite; first non-finite value: "
            "the output of layer 0 (Dense)"),
        (lambda raw: TestTrain._pole(raw), 2, "layer 1 (Activation) unit 0: denominator "
                                              "0.0 below pole floor at index 0 (x=1.0)"),
        (lambda raw: TestTrain._rewrite_manifest(
            raw, lambda m: m.update(specs=[m["specs"][0], {"type": "softmax"},
                                           m["specs"][2]])),
         2, "layer 1 (Softmax) must be the terminal layer"),
    ], ids=["short-header", "unknown-layer", "missing-key", "short-blob", "long-blob",
            "unit-out-of-range", "transposed-weights", "missing-layer-arrays",
            "huge-spec", "deep-nesting", "boolean-input-shape", "float-input-shape",
            "string-seed", "negative-seed", "padded-mask-key", "null-mask",
            "boolean-mask", "number-mask", "string-mask", "object-mask",
            "string-denominator", "boolean-numerator", "short-mask",
            "negative-noise", "huge-noise", "boolean-noise", "string-safe", "null-safe",
            "string-trainable", "boolean-out-dim", "boolean-unit", "nan-weight", "infinite-bias", "overflowing-output", "pole",
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

    @pytest.mark.parametrize("command,evaluations", [
        (["train", "--epochs", "1"], 1), (["prune", "--epochs", "1", "--schedule", "0.1"], 1),
        (["prune", "--epochs", "3", "--schedule", "0.1,0.2"], 2)],
        ids=["train", "prune", "prune-3-epochs-2-fractions"])
    def test_train_and_prune_evaluate_the_test_subset(self, tmp_path, monkeypatch,
                                                      command, evaluations):
        data = pau.synth_digits(50, seed=6)
        pau.data.write_dataset(data.subset(40), tmp_path)
        pau.data.write_dataset(
            pau.DatasetHandle(data.images[40:], data.labels[40:], "test"), tmp_path)
        seen = []
        record = lambda net, d: seen.append(len(d)) or 0.5
        monkeypatch.setattr(pau.train, "evaluate", record)
        monkeypatch.setattr(pau.prune, "evaluate", record)
        assert main([*command, "--preset", "mnist-desk", "--data-dir", str(tmp_path),
                     "--train-subset", "10", "--test-subset", "5"]) == 0
        # train scores every epoch; prune scores each fraction's retrained
        # network once, and its shared first training not at all
        assert seen == [5] * evaluations

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("command", [["train"], ["prune", "--schedule", "0.1"]],
                             ids=["train", "prune"])
    def test_empty_idx_split_exits_2(self, tmp_path, capsys, command, split):
        data = pau.synth_digits(40, seed=6)
        sizes = {"train": 32, "test": 8, split: 0}
        pau.data.write_dataset(data.subset(sizes["train"]), tmp_path)
        pau.data.write_dataset(pau.DatasetHandle(
            data.images[32:32 + sizes["test"]], data.labels[32:32 + sizes["test"]],
            "test"), tmp_path)
        assert main([*command, "--preset", "mnist-paper", "--data-dir", str(tmp_path),
                     "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert f"error: the {split} split of {tmp_path} holds no samples" in err

    @pytest.mark.parametrize("layer,edit,message", [
        (2, dict(window=0), "layer 2: MaxPool window must be an integer >= 1, got 0"),
        (2, dict(stride=0), "layer 2: MaxPool stride must be an integer >= 1, got 0"),
        (2, dict(window=True), "layer 2: MaxPool window must be an integer >= 1, got True"),
        (0, dict(stride=0), "layer 0: Conv2d stride must be an integer >= 1, got 0"),
    ], ids=["pool-window-0", "pool-stride-0", "pool-window-true", "conv-stride-0"])
    def test_eval_corrupt_conv_checkpoint(self, tmp_path, capsys, layer, edit, message):
        # a zero window or stride divides by zero in out_shape, or (a MaxPool
        # stride) falls back to the window, unless the spec refuses it
        good = tmp_path / "conv.ckpt"
        pau.save_checkpoint(good, pau.build_network(
            [pau.Conv2d(1, 2, 3), pau.Activation(), pau.MaxPool(2), pau.Flatten(),
             pau.Dense(2 * 13 * 13, 10), pau.Softmax()], input_shape=(1, 28, 28)))
        p = tmp_path / "bad.ckpt"
        p.write_bytes(self._rewrite_manifest(good.read_bytes(),
                                             lambda m: m["specs"][layer].update(edit)))
        assert main(["eval", "--preset", "synth-desk", "--checkpoint", str(p)]) == 2
        err = capsys.readouterr().err
        assert str(p) in err and message in err

    @pytest.mark.parametrize("specs,message", [
        ([pau.Flatten(), pau.Dense(784, 10), pau.Softmax()],
         f"Dense expects (784,), got ({16 * (2 ** 60 + 49)},)"),
        ([pau.Activation()], f"takes inputs of shape (16, {2 ** 60 + 49}); the train images"),
    ], ids=["flatten", "activation"])
    def test_eval_input_shape_whose_size_wraps_in_int64(self, tmp_path, capsys, specs, message):
        # 16 * (2**60 + 49) = 2**64 + 784: in int64 the size wraps to the
        # preset's 28 * 28 pixels, so it must be taken on Python ints
        p = tmp_path / "wrap.ckpt"
        pau.save_checkpoint(p, pau.build_network(specs, input_shape=(784,)))
        p.write_bytes(self._rewrite_manifest(
            p.read_bytes(), lambda m: m.update(input_shape=[16, 2 ** 60 + 49])))
        assert main(["eval", "--preset", "synth-desk", "--checkpoint", str(p)]) == 2
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
    (["--noise-alpha", "inf"], "noise_alpha inf: the unit's noise range exceeds valid bounds"),
    (["--pau-lr", "-1"], "pau_lr must be > 0"),
    (["--lr", "inf"], "lr must be > 0 and finite"),
    (["--pau-lr", "inf"], "pau_lr must be > 0 and finite"),
    (["--momentum", "nan"], "momentum must lie in [0, 1)"),
    (["--momentum", "-3"], "momentum must lie in [0, 1)"),
    (["--momentum", "inf"], "momentum must lie in [0, 1)"),
    (["--seed", "-1"], "seed must be >= 0"),
    (["--train-subset", "0"], "train_subset must be >= 1"),
    (["--test-subset", "0"], "test_subset must be >= 1"),
    # more synthetic images than numpy can allocate, or index
    (["--train-subset", "100000000000"],
     "--train-subset 100000000000 and --test-subset 100: Unable to allocate"),
    (["--test-subset", str(10 ** 22)],
     f"--train-subset 300 and --test-subset {10 ** 22}: Maximum allowed dimension exceeded"),
]
_BAD_CONFIG_LINES = [
    ("optimizer bogus", "unknown optimizer 'bogus'"),
    ("lr -1", "lr must be > 0"),
    ("init bogus", "init: unknown builtin 'bogus'"),
    ("noise_alpha 1e308", "noise_alpha 1e+308: the unit's noise range exceeds valid bounds"),
    ("lr inf", "lr must be > 0 and finite"),
    ("pau_lr inf", "pau_lr must be > 0 and finite"),
    ("momentum nan", "momentum must lie in [0, 1)"),
    ("momentum -3", "momentum must lie in [0, 1)"),
    (None, "Is a directory"),   # --config names a directory
]
# short runs, so that a check that lets a bad value through ends quickly
_SHORT_RUN = ["--preset", "synth-desk", "--epochs", "1", "--train-subset", "300",
              "--test-subset", "100"]


def test_every_train_config_field_is_a_run_setting():
    # a TrainConfig option that no flag or config file can set is dead code
    assert {f.name for f in dataclasses.fields(pau.TrainConfig)} <= set(cli._CONFIG_KEYS)


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

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5"])
    def test_bad_pau_threads_exits_1(self, tmp_path, value):
        # a thread cap that caps nothing is a usage error, found before any work
        out = tmp_path / "tanh.coeffs"
        code, stdout, stderr = run_cli("pade", "--target", "tanh", "--out", str(out),
                                       PAU_THREADS=value)
        assert code == 1 and stdout == "" and not out.exists()
        assert stderr == f"error: PAU_THREADS {value!r}: must be an integer >= 1\n"

    def test_pau_threads_of_an_integer_runs(self, tmp_path):
        out = tmp_path / "tanh.coeffs"
        assert run_cli("pade", "--target", "tanh", "--out", str(out), PAU_THREADS="2")[0] == 0
        assert out.exists()

    @pytest.mark.parametrize("source,code,named", [
        ("flag", 1, "--train-subset 100000000000 and --test-subset 2000: "),
        ("config", 2, "config file {cfg}: train_subset 100000000000 and test_subset 2000: "),
    ], ids=["flag", "config"])
    def test_oversized_subset_is_blamed_on_its_source(self, tmp_path, capsys, source,
                                                      code, named):
        # more synthetic images than numpy can allocate, from a flag or from
        # the config file; a config file is given either way
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs 1\n" + ("train_subset 100000000000\n" if source == "config"
                                       else ""))
        flags = ["--train-subset", "100000000000"] if source == "flag" else []
        assert main(["train", "--preset", "synth-desk", "--config", str(cfg), *flags]) == code
        out, err = capsys.readouterr()
        assert err.startswith("error: " + named.format(cfg=cfg)) and "Unable to allocate" in err
        assert out == ""


class TestEvalFlags:
    def test_help_lists_only_the_flags_eval_reads(self, capsys):
        assert main(["eval", "-h"]) == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
            "--help", "--preset", "--config", "--data-dir", "--train-subset",
            "--test-subset", "--checkpoint", "--split"}

    def test_training_flag_is_unrecognized(self, capsys):
        assert main(["eval", "--checkpoint", "net.ckpt", "--lr", "0.1"]) == 1
        assert "unrecognized arguments: --lr 0.1" in capsys.readouterr().err

    def test_config_file_is_still_checked_whole(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr -1\n")
        assert main(["eval", "--config", str(cfg), "--checkpoint", "net.ckpt"]) == 2
        assert f"error: config file {cfg}: lr must be > 0" in capsys.readouterr().err


# each output flag, given a path in a directory that does not exist
_BAD_OUTPUTS = [
    ["pade", "--target", "tanh", "--out"],
    ["fit", "--target", "tanh", "--step", "0.01", "--out"],
    ["export-curve", "--coeffs", "{unit}", "--out"],
    ["train", *_SHORT_RUN, "--save", "{old}", "--metrics-out"],
    ["train", *_SHORT_RUN, "--save"],
    ["prune", *_SHORT_RUN, "--schedule", "0.1", "--report"],
]


class TestOutputPaths:
    @pytest.mark.parametrize("argv", _BAD_OUTPUTS, ids=[f"{a[0]} {a[-1]}" for a in _BAD_OUTPUTS])
    def test_missing_directory_exits_2_before_the_work(self, tmp_path, monkeypatch, capsys,
                                                       argv):
        old = tmp_path / "old.ckpt"
        old.write_bytes(b"an earlier checkpoint")
        paths = {"unit": _write_doc(tmp_path / "unit.coeffs", [0.0, 1.0], [0.5]),
                 "old": str(old)}
        steps = []
        monkeypatch.setattr(pau.train, "_step", lambda *a: steps.append(a) or 0.0)
        bad = tmp_path / "missing" / "out"
        assert main([*(a.format(**paths) for a in argv), str(bad)]) == 2
        out, err = capsys.readouterr()
        assert err == (f"error: {argv[-1]} {bad}: cannot write: "
                       f"there is no directory {tmp_path / 'missing'}\n")
        assert out == "" and steps == []
        # the check neither creates nor truncates a file
        assert old.read_bytes() == b"an earlier checkpoint"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["old.ckpt", "unit.coeffs"])

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["pade", "--target", "tanh", "--out", str(tmp_path)]) == 2
        assert f"--out {tmp_path}: cannot write: it is a directory" in capsys.readouterr().err

    def test_empty_path_exits_2(self, tmp_path, capsys):
        doc = _write_doc(tmp_path / "unit.coeffs", [0.0, 1.0], [0.5])
        assert main(["export-curve", "--coeffs", doc, "--out", ""]) == 2
        assert "error: --out : cannot write: the path is empty" in capsys.readouterr().err

    def test_failed_write_exits_2(self, tmp_path, monkeypatch, capsys):
        def full(path, net):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli, "save_checkpoint", full)
        ckpt = tmp_path / "net.ckpt"
        assert main(["train", *_SHORT_RUN, "--save", str(ckpt)]) == 2
        assert (f"error: --save {ckpt}: [Errno 28] No space left on device"
                in capsys.readouterr().err)


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


# any JSON value, NaN and the infinities included (json reads them back)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)


def _paths(value, path=()):
    """The key paths of every value nested in ``value``'s dicts and lists."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield path + (key,)
        yield from _paths(inner, path + (key,))


_PRUNED = {
    "mlp": lambda: pau.build_network(pau.mlp_spec((784, 8, 10)), seed=3),
    "conv": lambda: pau.build_network(
        [pau.Conv2d(1, 2, 3, padding=1), pau.Activation(), pau.MaxPool(2), pau.Conv2d(2, 4, 3),
         pau.Activation(), pau.Baseline("tanh"), pau.Flatten(), pau.Dense(4 * 12 * 12, 10),
         pau.Softmax()], seed=3, input_shape=(1, 28, 28), noise_alpha=0.05),
}


@_FUZZED
@given(name=st.sampled_from(sorted(_PRUNED)), data=st.data())
def test_edited_checkpoint_manifest(tmp_path_factory, name, data):
    # one value of a pruned network's manifest replaced by any JSON value,
    # or its key deleted: the file loads and runs, or exits 2 or 3
    tmp = tmp_path_factory.getbasetemp()
    net = _PRUNED[name]()
    pau.apply_prune(net, 0.25)
    pau.save_checkpoint(tmp / "pruned.ckpt", net)
    raw = (tmp / "pruned.ckpt").read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    manifest = json.loads(raw[16:16 + length])
    *parents, key = data.draw(st.sampled_from(list(_paths(manifest))))
    container = manifest
    for k in parents:
        container = container[k]
    if data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(_JSON)
    payload = json.dumps(manifest).encode()
    path = tmp / "edited.ckpt"
    path.write_bytes(raw[:8] + struct.pack("<Q", len(payload)) + payload + raw[16 + length:])
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

    @pytest.mark.parametrize("preset,schedule", [
        ("synth-desk", "0.5,0.2"), ("synth-desk", "abc"), ("synth-desk", "1.5"),
        ("mnist-desk", "abc")])   # checked before the missing --data-dir is found
    def test_bad_schedule_names_the_flag(self, capsys, preset, schedule):
        assert main(["prune", "--preset", preset, "--train-subset", "64",
                     "--test-subset", "32", "--epochs", "1", "--schedule", schedule]) == 1
        assert "--schedule" in capsys.readouterr().err


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
