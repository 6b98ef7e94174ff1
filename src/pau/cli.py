"""Command-line interface.

Commands: pade, fit, gradcheck, train, eval, prune, export-curve.
Exit codes: 0 success, 1 usage, 2 input/target error, 3 non-finite
loss or output, 4 verification failure.  PAU_THREADS caps the BLAS
worker threads; a value that is not an integer >= 1 exits 1.  train,
prune and eval run each batch's shards on a pool of as many threads as
the cores this process may use, divided by the BLAS threads (so one
thread when BLAS is not capped); results do not depend on that worker
count at a fixed BLAS thread count.

Every flag is checked before its command runs: one that does not parse
or is out of range exits 1 naming the flag or key.  train and prune take
their run settings from a preset, then a --config file of "key value"
lines, then flags of the same names, all checked before any data is
made; eval reads the same preset and file, but has flags only for the
data keys (--data-dir and the subsets).  A config file that cannot be
read, or that holds an unknown key or a bad value, exits 2 naming the
file.  An output path (--out, --metrics-out, --save, --report) that
cannot be written exits 2 naming the flag before the command works, and
so does a write that fails.  A Pade system that is singular or
overflows, a pole or overflow in fit's target, unreadable coefficient
documents, data files and checkpoints (non-finite weights among them), a
pole of an eval checkpoint's unit, and images that do not fit the
network exit 2.  A non-finite training loss or eval output exits 3
naming the first non-finite unit, weight or layer output.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import fields

import numpy as np

from . import gradcheck
from .approx import (FitConfig, builtin_coefficients, fit_residual, least_squares_fit,
                     pade_from_taylor, taylor_of)
from .data import DatasetHandle, load_idx, pad_images, synth_digits
from .network import (DEFAULT_INIT, PauUnit, build_network, lenet_spec, load_checkpoint,
                      mlp_spec, save_checkpoint)
from .prune import PruneSchedule, lottery_run
from .rational import (DocumentFormatError, PoleError, eval_pau_batch, eval_pau_stacked,
                       read_coefficient_document, sample_noisy_coeffs,
                       write_coefficient_document)
from .targets import parse_target
from .train import (NonFiniteLossError, TrainConfig, evaluate, train_model,
                    write_metrics_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NON_FINITE = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-3,3" pass as arguments rather than flags
        self._negative_number_matcher = re.compile(
            r"^-\d+(\.\d*)?([,eE][-+]?\d+(\.\d*)?)?$")

    # usage problems exit 1; argparse's default of 2 is reserved for input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Fail(Exception):
    """Ends a command: main prints ``error: <message>`` and returns ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _checked(parse, ok, rule):
    """An argparse type: ``parse`` the text, then require ``ok`` of the
    value.  Either failing is a usage error naming the flag and ``rule``."""
    def convert(text):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
    return convert


def _pair(parse):
    """'a,b' as (parse(a), parse(b)); any other text raises ValueError."""
    return lambda text: tuple(parse(v) for v in text.partition(",")[::2])


_ORDERS = _checked(_pair(int), lambda mn: min(mn) >= 0, "must be two integers m,n >= 0")
_RANGE = _checked(_pair(float), lambda r: r[0] < r[1] and math.isfinite(r[1] - r[0]),
                  "must be two finite numbers lo,hi with lo < hi and hi - lo finite")
_POSITIVE = _checked(float, lambda v: np.isfinite(v) and v > 0, "must be finite and > 0")
_NON_NEGATIVE = _checked(float, lambda v: np.isfinite(v) and v >= 0,
                         "must be finite and >= 0")


# PruneSchedule owns the rule; a schedule it refuses is a usage error
_SCHEDULE = _checked(lambda text: PruneSchedule(tuple(map(float, text.split(",")))).fractions,
                     lambda fractions: True,
                     "must be comma-separated fractions in [0, 1), strictly increasing")


def _int_from(low):
    return _checked(int, lambda v: v >= low, f"must be an integer >= {low}")


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _check_outputs(args):
    """Before any work: exit 2 naming the flag and the path of an output
    that cannot be written.  Creates and truncates nothing."""
    for dest in ("out", "metrics_out", "save", "report"):
        path = getattr(args, dest, None)
        if path is None:
            continue
        folder = os.path.dirname(os.path.abspath(path))
        if not path:
            problem = "the path is empty"
        elif os.path.isdir(path):
            problem = "it is a directory"
        elif not os.path.isdir(folder):
            problem = f"there is no directory {folder}"
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            problem = "permission denied"
        else:
            continue
        raise _Fail(EXIT_INPUT, f"{_flag(dest)} {path}: cannot write: {problem}")


def _write(args, dest, write):
    """``write(path)`` when the output flag ``dest`` is given; an OSError
    exits 2 naming the flag and the path."""
    path = getattr(args, dest)
    if path is not None:
        try:
            write(path)
        except OSError as exc:
            raise _Fail(EXIT_INPUT, f"{_flag(dest)} {path}: {exc}")


# ---------------------------------------------------------------------------
# pade / fit / export-curve
# ---------------------------------------------------------------------------

def _print_coefficients(coeffs):
    for j, v in enumerate(coeffs.numerator):
        print(f"a_{j} = {float(v)!r}")
    for k, v in enumerate(coeffs.denominator, start=1):
        print(f"b_{k} = {float(v)!r}")


def cmd_pade(args) -> int:
    m, n = args.orders
    try:
        target = parse_target(args.target)
        coeffs = pade_from_taylor(taylor_of(target, m + n), m, n)
    except (ValueError, OverflowError) as exc:
        raise _Fail(EXIT_INPUT, f"target {args.target}: {exc}")
    _print_coefficients(coeffs)
    _write(args, "out", lambda path: write_coefficient_document(
        path, coeffs, safe=True, provenance=f"pade:{target.name}"))
    return EXIT_OK


def _resolve_fit_target(name):
    """A named activation, or 'doc:<path>' to fit against the rational
    function stored in a coefficient document."""
    if name.startswith("doc:"):
        doc = read_coefficient_document(name[4:])
        return (lambda xs: eval_pau_batch(xs, doc.coefficients, safe=doc.safe)), name
    target = parse_target(name)
    return target, target.name


def cmd_fit(args) -> int:
    m, n = args.orders
    try:
        target, label = _resolve_fit_target(args.target)
    except (ValueError, OSError) as exc:
        raise _Fail(EXIT_INPUT, str(exc))
    cfg = FitConfig(*args.range, grid_step=args.step)
    safe = not args.unsafe
    try:
        coeffs = least_squares_fit(target, m, n, cfg, safe=safe)
    except ArithmeticError as exc:   # a pole of the target, or an overflow
        raise _Fail(EXIT_INPUT, f"target {label}: {exc}")
    except ValueError as exc:   # a grid too coarse, too fine to count or too wide
        raise _Fail(EXIT_USAGE, f"--step {args.step!r}: {exc}")
    mx, rms = fit_residual(coeffs, target, cfg, safe=safe)
    print(f"max_abs_residual = {mx!r}")
    print(f"rms_residual = {rms!r}")
    _print_coefficients(coeffs)
    _write(args, "out", lambda path: write_coefficient_document(
        path, coeffs, safe=safe, provenance=f"lsq:{label}"))
    return EXIT_OK


def cmd_export_curve(args) -> int:
    try:
        doc = read_coefficient_document(args.coeffs)
    except (OSError, DocumentFormatError) as exc:
        raise _Fail(EXIT_INPUT, f"cannot read coefficient document: {exc}")
    xs = np.linspace(*args.range, args.points)
    header, columns = "x,f", [xs]
    try:
        with np.errstate(all="ignore"):   # an overflow is reported below
            columns.append(eval_pau_batch(xs, doc.coefficients, safe=doc.safe))
            if args.noise is not None:
                header += ",noise_min,noise_max"
                rng = np.random.default_rng(args.seed)
                samples = 1000
                envelope = []
                for x in xs:
                    stacks = sample_noisy_coeffs(doc.coefficients, args.noise, rng,
                                                 size=samples)
                    vals = eval_pau_stacked(np.full(samples, x), *stacks, safe=doc.safe)
                    envelope.append((vals.min(), vals.max()))
                columns += zip(*envelope)
    except (PoleError, OverflowError) as exc:   # OverflowError: the noise range
        raise _Fail(EXIT_INPUT, f"coefficient document {args.coeffs}: {exc}")
    table = np.column_stack(columns)
    if not np.isfinite(table).all():
        r, c = np.argwhere(~np.isfinite(table))[0]
        raise _Fail(EXIT_INPUT, f"coefficient document {args.coeffs}: the curve overflows: "
                                f"{header.split(',')[c]} is {float(table[r, c])!r} "
                                f"at x={float(xs[r])!r}")
    rows = [",".join(repr(float(v)) for v in row) for row in table]

    def write(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join([header, *rows]) + "\n")
    _write(args, "out", write)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    if args.trials == 0:
        print("warning: 0 trials requested, nothing checked")
        return EXIT_OK
    # each trial draws 6 numerator and 4 denominator coefficients on
    # [-1, 1], then x on [-3, 3], from one stream
    rng = np.random.default_rng(args.seed)
    lo = np.array([-1.0] * 10 + [-3.0])
    draws = rng.uniform(lo, -lo, (args.trials, lo.size))
    nums, dens, xs = draws[:, :6], draws[:, 6:10], draws[:, 10]
    trial_worst, labels, _ = gradcheck.compare_trials(xs, nums, dens, safe=True)
    i = int(np.argmax(trial_worst))
    worst = max(float(trial_worst[i]), gradcheck.toy_network_check(seed=args.seed))
    print(f"worst_relative_error = {worst!r} over {args.trials} unit trials "
          f"plus a toy network")
    if worst < 1e-4:
        return EXIT_OK
    if trial_worst[i] > 0:
        print(f"offending case: x={float(xs[i])!r} component={labels[i]} "
              f"num={nums[i].tolist()} den={dens[i].tolist()}",
              file=sys.stderr)
    print("gradient verification FAILED", file=sys.stderr)
    return EXIT_VERIFY


# ---------------------------------------------------------------------------
# train / eval / prune
# ---------------------------------------------------------------------------

PRESETS = {name: dict(batch_size=256, optimizer="adam", lr=0.002, **own) for name, own in {
    "mnist-desk": dict(arch="mlp", source="idx", epochs=5, train_subset=10000,
                       test_subset=2000),
    "fmnist-desk": dict(arch="mlp", source="idx", epochs=5, train_subset=10000,
                        test_subset=2000),
    "synth-desk": dict(arch="mlp", source="synth", epochs=5, train_subset=10000,
                       test_subset=2000),
    "mnist-paper": dict(arch="lenet", source="idx", epochs=100, train_subset=None,
                        test_subset=None),
}.items()}

# each architecture: its layers, the input shape they take, and the side
# its images are zero-padded to (None: used as loaded)
_ARCHS = {
    "mlp": (lambda: mlp_spec((784, 128, 10)), (784,), None),
    "lenet": (lenet_spec, (1, 32, 32), 32),
}

_SYNTH_DATA_SEED = 555  # dataset content independent of the training seed

# The run settings, each with its parser: the keys of a config file and,
# with dashes, the flags of train and prune (eval's: the data keys).
# TrainConfig's fields build it; init and noise_alpha go to build_network,
# data_dir and the subsets to the data cut.  Unset ones take defaults.
_CONFIG_KEYS = {
    "optimizer": str, "lr": float, "momentum": float, "batch_size": int,
    "epochs": int, "data_dir": str, "train_subset": int, "test_subset": int,
    "init": str, "noise_alpha": float, "seed": int, "pau_lr": float,
    "lr_decay": float,
}


def _read_kv_config(path):
    """UTF-8 `key value` lines; # starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition(" ")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            try:
                out[key] = _CONFIG_KEYS[key](val.strip())
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}")
    return out


def _train_config(settings) -> TrainConfig:
    """TrainConfig of the merged settings, after checking those it does
    not hold; a value out of range raises ValueError naming its key."""
    cfg = TrainConfig(**{f.name: settings[f.name] for f in fields(TrainConfig)
                         if f.name in settings})
    try:
        init = builtin_coefficients(settings.get("init", DEFAULT_INIT))
    except ValueError as exc:
        raise ValueError(f"init: {exc}")
    PauUnit(init, noise_alpha=settings.get("noise_alpha", 0.0))
    for key in ("train_subset", "test_subset"):
        if settings.get(key) is not None and settings[key] < 1:
            raise ValueError(f"{key} must be >= 1")
    return cfg


def _run_settings(args):
    """The preset, then the config file, then the flags.  Each source is
    checked as it is merged, so that a bad value is blamed on the source
    that brought it.  Returns (settings, TrainConfig)."""
    settings = dict(PRESETS[args.preset])
    if args.config:
        try:
            settings.update(_read_kv_config(args.config))
            _train_config(settings)
        except (OSError, ValueError) as exc:
            raise _Fail(EXIT_INPUT, f"config file {args.config}: {exc}")
    settings.update({key: getattr(args, key) for key in _CONFIG_KEYS
                     if getattr(args, key, None) is not None})   # eval: data keys only
    try:
        return settings, _train_config(settings)
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, str(exc))


def _load_preset_data(args, settings):
    if settings["source"] == "synth":
        n_train, n_test = settings["train_subset"], settings["test_subset"]
        try:
            full = synth_digits(n_train + n_test, seed=_SYNTH_DATA_SEED)
        except (ValueError, MemoryError) as exc:   # more images than numpy can hold
            # blamed on the source of the larger subset (the presets' own are small)
            larger = "train_subset" if n_train >= n_test else "test_subset"
            if args.config and getattr(args, larger) is None:
                raise _Fail(EXIT_INPUT, f"config file {args.config}: train_subset "
                                        f"{n_train} and test_subset {n_test}: {exc}")
            raise _Fail(EXIT_USAGE, f"--train-subset {n_train} and --test-subset "
                                    f"{n_test}: {exc}")
        train = DatasetHandle(full.images[:n_train], full.labels[:n_train], "train")
        test = DatasetHandle(full.images[n_train:], full.labels[n_train:], "test")
    else:
        if settings.get("data_dir") is None:
            raise FileNotFoundError("this preset needs --data-dir with IDX files")
        train = load_idx(settings["data_dir"], "train")
        test = load_idx(settings["data_dir"], "test")
        for key, data in (("train_subset", train), ("test_subset", test)):
            if not len(data):
                raise ValueError(f"the {data.split} split of {settings['data_dir']} "
                                 f"holds no samples")
            if (settings[key] or 0) > len(data):
                raise ValueError(f"{key} {settings[key]} exceeds the {len(data)} "
                                 f"{data.split} samples in {settings['data_dir']}")
        train = train.subset(settings["train_subset"] or len(train))
        test = test.subset(settings["test_subset"] or len(test))
    pad = _ARCHS[settings["arch"]][2]
    if pad:
        train, test = pad_images(train, pad), pad_images(test, pad)
    return train, test


def _prologue(args):
    """The start of train, eval and prune: the run settings, eval's
    checkpoint, then the preset's data cut to its train and test subsets,
    checked against the input shape of the network that will run.
    Returns (settings, TrainConfig, the checkpoint's network or None,
    train, test)."""
    settings, cfg = _run_settings(args)
    net, runs, takes = None, f"the {args.preset} network", _ARCHS[settings["arch"]][1]
    if getattr(args, "checkpoint", None):
        try:
            net = load_checkpoint(args.checkpoint)
        except (OSError, ValueError) as exc:
            raise _Fail(EXIT_INPUT, f"cannot load checkpoint: {exc}")
        runs, takes = f"checkpoint {args.checkpoint}", net.input_shape
    try:
        train, test = _load_preset_data(args, settings)
    except (OSError, ValueError) as exc:
        raise _Fail(EXIT_INPUT, str(exc))
    source = settings["data_dir"] if settings["source"] == "idx" else "the preset"
    for data in (train, test):
        images = data.images.shape[1:]
        if math.prod(takes) != math.prod(images):
            raise _Fail(EXIT_INPUT, f"{runs} takes inputs of shape {takes}; the "
                                    f"{data.split} images of {source} are {images}")
    return settings, cfg, net, train, test


def _build_preset_net(settings, cfg, frozen):
    spec, input_shape, _ = _ARCHS[settings["arch"]]
    return build_network(spec(), seed=cfg.seed, input_shape=input_shape,
                         trainable_units=not frozen,
                         **{k: settings[k] for k in ("init", "noise_alpha")
                            if k in settings})


def cmd_train(args) -> int:
    settings, cfg, _, train, test = _prologue(args)
    net, history = train_model(_build_preset_net(settings, cfg, args.frozen),
                               train, test, cfg)
    for m in history:
        print(f"epoch {m.epoch}: train_loss={m.train_loss:.6f} "
              f"test_acc={m.test_acc:.4f} ({m.seconds:.1f}s)")
    if history:
        print(f"final test_acc = {history[-1].test_acc!r}")
    _write(args, "metrics_out", lambda path: write_metrics_csv(path, history))
    _write(args, "save", lambda path: save_checkpoint(path, net))
    return EXIT_OK


def cmd_eval(args) -> int:
    _, _, net, train, test = _prologue(args)
    try:
        accuracy = evaluate(net, test if args.split == "test" else train)
    except PoleError as exc:
        raise _Fail(EXIT_INPUT, f"checkpoint {args.checkpoint}: {exc}")
    except NonFiniteLossError as exc:
        raise _Fail(EXIT_NON_FINITE, f"checkpoint {args.checkpoint}: {exc}")
    print(f"accuracy = {accuracy!r}")
    return EXIT_OK


def cmd_prune(args) -> int:
    settings, cfg, _, train, test = _prologue(args)
    report = lottery_run(lambda: _build_preset_net(settings, cfg, args.frozen),
                         train, test, PruneSchedule(args.schedule, retrain=cfg),
                         method=args.score)
    for row in report.rows:
        print(f"p={row.p:g}: params={row.params_remaining} "
              f"test_acc={row.test_acc:.4f}")
    _write(args, "report", report.write_csv)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pau", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pade", help="derive coefficients from a Taylor series")
    p.add_argument("--target", required=True)
    p.add_argument("--orders", type=_ORDERS, default="5,4")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pade)

    p = sub.add_parser("fit", help="least-squares fit over a grid")
    p.add_argument("--target", required=True,
                   help="activation name or doc:<coefficient document>")
    p.add_argument("--range", type=_RANGE, default="-3,3")
    p.add_argument("--step", type=_POSITIVE, default=1e-4)
    p.add_argument("--orders", type=_ORDERS, default="5,4")
    p.add_argument("--unsafe", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit, sized_by="step")

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--trials", type=_int_from(0), default=1000)
    p.set_defaults(func=cmd_gradcheck, sized_by="trials")

    for name, func in (("train", cmd_train), ("prune", cmd_prune),
                       ("eval", cmd_eval)):
        p = sub.add_parser(name)
        p.add_argument("--preset", choices=sorted(PRESETS), default="synth-desk")
        p.add_argument("--config", help="key/value settings file; flags override it")
        if name != "eval":
            p.add_argument("--frozen", action="store_true",
                           help="freeze unit coefficients at their initialization")
        for key, parse in _CONFIG_KEYS.items():
            if name != "eval" or key in ("data_dir", "train_subset", "test_subset"):
                p.add_argument("--" + key.replace("_", "-"), type=parse)
        if name == "train":
            p.add_argument("--metrics-out")
            p.add_argument("--save")
        elif name == "prune":
            p.add_argument("--schedule", type=_SCHEDULE, default="0.1,0.2,0.3,0.4,0.5,0.6")
            p.add_argument("--score", choices=("sum", "l1"), default="sum")
            p.add_argument("--report")
        else:
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--split", choices=("train", "test"), default="test")
        p.set_defaults(func=func)

    p = sub.add_parser("export-curve", help="sample a coefficient document to CSV")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--range", type=_RANGE, default="-3,3")
    p.add_argument("--points", type=_int_from(2), default=601)
    p.add_argument("--out", required=True)
    p.add_argument("--noise", type=_NON_NEGATIVE)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.set_defaults(func=cmd_export_curve, sized_by="points")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cap = os.environ.get("PAU_THREADS", "")   # "": unset
        if cap and not (cap.isascii() and cap.isdigit() and int(cap) >= 1):
            raise _Fail(EXIT_USAGE, f"PAU_THREADS {cap!r}: must be an integer >= 1")
        _check_outputs(args)
        return args.func(args)
    except _Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_FINITE
    except MemoryError as exc:   # an array sized by the command's sizing flag
        if not hasattr(args, "sized_by"):
            raise
        value = getattr(args, args.sized_by)
        print(f"error: {_flag(args.sized_by)} {value!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
