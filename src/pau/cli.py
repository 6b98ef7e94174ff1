"""Command-line interface.

Commands: pade, fit, gradcheck, train, eval, prune, export-curve.
Exit codes: 0 success, 1 usage, 2 input/target error, 3 numerical
non-convergence, 4 verification failure.  PAU_THREADS caps the BLAS
worker threads.

Every flag is checked before its command runs: one that does not parse
or is out of range exits 1 naming the flag or key.  train, eval and
prune take their run settings from a preset, then a --config file of
"key value" lines, then flags of the same names, all checked before any
data is made; a config file that cannot be read, or that holds an
unknown key or a bad value, exits 2 naming the file.  A Pade system that
is singular or overflows, a pole or overflow in fit's target, unreadable
coefficient documents, data files and checkpoints (non-finite weights
among them), a pole of an eval checkpoint's unit, and images that do not
fit the network exit 2.  A non-finite training loss or eval output exits
3 naming the first non-finite unit, weight or layer output.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields

import numpy as np

from . import gradcheck
from .approx import (FitConfig, FitNonConvergenceError, builtin_coefficients,
                     fit_residual, least_squares_fit, pade_from_taylor, taylor_of)
from .data import DatasetHandle, load_idx, pad_images, synth_digits
from .network import build_network, lenet_spec, load_checkpoint, mlp_spec, save_checkpoint
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
EXIT_NONCONVERGENCE = 3
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
_RANGE = _checked(_pair(float), lambda r: np.all(np.isfinite(r)) and r[0] < r[1],
                  "must be two finite numbers lo,hi with lo < hi")
_POSITIVE = _checked(float, lambda v: np.isfinite(v) and v > 0, "must be finite and > 0")
_NON_NEGATIVE = _checked(float, lambda v: np.isfinite(v) and v >= 0,
                         "must be finite and >= 0")


def _int_from(low):
    return _checked(int, lambda v: v >= low, f"must be an integer >= {low}")


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
    if args.out:
        write_coefficient_document(args.out, coeffs, safe=True,
                                   provenance=f"pade:{target.name}")
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
    cfg = FitConfig(*args.range, grid_step=args.step, max_sk_iterations=args.max_iter)
    safe = not args.unsafe
    try:
        coeffs = least_squares_fit(target, m, n, cfg, safe=safe)
    except FitNonConvergenceError as exc:
        raise _Fail(EXIT_NONCONVERGENCE, f"{exc} (last residual {exc.last_residual!r})")
    except ArithmeticError as exc:   # a pole of the target, or an overflow
        raise _Fail(EXIT_INPUT, f"target {label}: {exc}")
    except ValueError as exc:        # a grid too coarse for the orders
        raise _Fail(EXIT_USAGE, f"--step {args.step!r}: {exc}")
    mx, rms = fit_residual(coeffs, target, cfg, safe=safe)
    print(f"max_abs_residual = {mx!r}")
    print(f"rms_residual = {rms!r}")
    _print_coefficients(coeffs)
    if args.out:
        write_coefficient_document(args.out, coeffs, safe=safe,
                                   provenance=f"lsq:{label}")
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
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *rows]) + "\n")
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
    trial_worst, labels, _ = gradcheck.compare_trials(
        xs, nums, dens, safe=True, flip_denominator=args.inject_fault)
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

PRESETS = {
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

# each architecture: its layers, the input shape they take, and the side
# its images are zero-padded to (None: used as loaded)
_ARCHS = {
    "mlp": (lambda: mlp_spec((784, 128, 10)), (784,), None),
    "lenet": (lenet_spec, (1, 32, 32), 32),
}

_SYNTH_DATA_SEED = 555  # dataset content independent of the training seed

# The run settings, each with its parser: the keys of a config file and,
# with dashes, the flags of train, eval and prune.  Those that are fields
# of TrainConfig build it; init and noise_alpha go to build_network.
# Settings left unset take the defaults of TrainConfig and build_network.
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
    if "init" in settings:
        try:
            builtin_coefficients(settings["init"])
        except ValueError as exc:
            raise ValueError(f"init: {exc}")
    if not settings.get("noise_alpha", 0.0) >= 0:
        raise ValueError(f"noise_alpha must be >= 0, got {settings['noise_alpha']!r}")
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
                     if getattr(args, key) is not None})
    try:
        return settings, _train_config(settings)
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, str(exc))


def _load_preset_data(settings):
    if settings["source"] == "synth":
        n_train = settings["train_subset"]
        full = synth_digits(n_train + settings["test_subset"], seed=_SYNTH_DATA_SEED)
        train = DatasetHandle(full.images[:n_train], full.labels[:n_train], "train")
        test = DatasetHandle(full.images[n_train:], full.labels[n_train:], "test")
    else:
        if settings.get("data_dir") is None:
            raise FileNotFoundError("this preset needs --data-dir with IDX files")
        train = load_idx(settings["data_dir"], "train")
        test = load_idx(settings["data_dir"], "test")
        for key, data in (("train_subset", train), ("test_subset", test)):
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
        train, test = _load_preset_data(settings)
    except (OSError, ValueError) as exc:
        raise _Fail(EXIT_INPUT, str(exc))
    source = settings["data_dir"] if settings["source"] == "idx" else "the preset"
    for data in (train, test):
        images = data.images.shape[1:]
        if np.prod(takes) != np.prod(images):
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
    if args.metrics_out:
        write_metrics_csv(args.metrics_out, history)
    if args.save:
        save_checkpoint(args.save, net)
    return EXIT_OK


def cmd_eval(args) -> int:
    _, _, net, train, test = _prologue(args)
    try:
        accuracy = evaluate(net, test if args.split == "test" else train)
    except PoleError as exc:
        raise _Fail(EXIT_INPUT, f"checkpoint {args.checkpoint}: {exc}")
    except NonFiniteLossError as exc:
        raise _Fail(EXIT_NONCONVERGENCE, f"checkpoint {args.checkpoint}: {exc}")
    print(f"accuracy = {accuracy!r}")
    return EXIT_OK


def cmd_prune(args) -> int:
    settings, cfg, _, train, test = _prologue(args)
    try:
        fractions = tuple(float(v) for v in args.schedule.split(","))
        schedule = PruneSchedule(fractions, retrain=cfg)
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, str(exc))
    report = lottery_run(lambda: _build_preset_net(settings, cfg, args.frozen),
                         train, test, schedule, method=args.score)
    for row in report.rows:
        print(f"p={row.p:g}: params={row.params_remaining} "
              f"test_acc={row.test_acc:.4f}")
    if args.report:
        report.write_csv(args.report)
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
    p.add_argument("--max-iter", type=_int_from(1), default=25,
                   help="reweighting iteration budget (elu needs ~50)")
    p.add_argument("--unsafe", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--trials", type=_int_from(0), default=1000)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    for name, func in (("train", cmd_train), ("prune", cmd_prune),
                       ("eval", cmd_eval)):
        p = sub.add_parser(name)
        p.add_argument("--preset", choices=sorted(PRESETS), default="synth-desk")
        p.add_argument("--config", help="key/value settings file; flags override it")
        p.add_argument("--frozen", action="store_true",
                       help="freeze unit coefficients at their initialization")
        for key, parse in _CONFIG_KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), type=parse)
        if name == "train":
            p.add_argument("--metrics-out")
            p.add_argument("--save")
        elif name == "prune":
            p.add_argument("--schedule", default="0.1,0.2,0.3,0.4,0.5,0.6")
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
    p.set_defaults(func=cmd_export_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
