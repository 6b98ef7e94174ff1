"""Command-line interface.

Commands: pade, fit, gradcheck, train, eval, prune, export-curve.
Exit codes: 0 success, 1 usage, 2 input/target error, 3 numerical
non-convergence, 4 verification failure.  PAU_THREADS caps the BLAS
worker threads.
"""

from __future__ import annotations

import argparse
import re
import sys

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


def _usage_fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_pair(text, what):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{what} must be two comma-separated values")
    return parts


def _parse_orders(text):
    m, n = (int(v) for v in _parse_pair(text, "--orders"))
    if m < 0 or n < 0:
        raise ValueError("orders must be non-negative")
    return m, n


def _parse_range(text):
    lo, hi = (float(v) for v in _parse_pair(text, "--range"))
    if not lo < hi:
        raise ValueError(f"range lo={lo} must be below hi={hi}")
    return lo, hi


# ---------------------------------------------------------------------------
# pade / fit / export-curve
# ---------------------------------------------------------------------------

def _print_coefficients(coeffs):
    for j, v in enumerate(coeffs.numerator):
        print(f"a_{j} = {float(v)!r}")
    for k, v in enumerate(coeffs.denominator, start=1):
        print(f"b_{k} = {float(v)!r}")


def cmd_pade(args) -> int:
    from .approx import pade_from_taylor, taylor_of
    from .rational import write_coefficient_document
    from .targets import parse_target

    try:
        m, n = _parse_orders(args.orders)
    except ValueError as exc:
        return _usage_fail(str(exc))
    try:
        target = parse_target(args.target)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not target.smooth_at_zero:
        print(f"error: target has no Taylor series at 0: {target.name}",
              file=sys.stderr)
        return EXIT_INPUT
    coeffs = pade_from_taylor(taylor_of(target, m + n), m, n)
    _print_coefficients(coeffs)
    if args.out:
        write_coefficient_document(args.out, coeffs, safe=True,
                                   provenance=f"pade:{target.name}")
    return EXIT_OK


def _resolve_fit_target(name):
    """A named activation, or 'doc:<path>' to fit against the rational
    function stored in a coefficient document."""
    if name.startswith("doc:"):
        from .rational import eval_pau_batch, read_coefficient_document
        doc = read_coefficient_document(name[4:])
        return (lambda xs: eval_pau_batch(xs, doc.coefficients, safe=doc.safe)), name
    from .targets import parse_target
    target = parse_target(name)
    return target, target.name


def cmd_fit(args) -> int:
    from .approx import (FitConfig, FitNonConvergenceError, fit_residual,
                         least_squares_fit)
    from .rational import DocumentFormatError, write_coefficient_document

    try:
        m, n = _parse_orders(args.orders)
        lo, hi = _parse_range(args.range)
        if args.step <= 0:
            raise ValueError("--step must be > 0")
    except ValueError as exc:
        return _usage_fail(str(exc))
    try:
        target, label = _resolve_fit_target(args.target)
    except (ValueError, OSError, DocumentFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    cfg = FitConfig(lo=lo, hi=hi, grid_step=args.step,
                    max_sk_iterations=args.max_iter)
    safe = not args.unsafe
    try:
        coeffs = least_squares_fit(target, m, n, cfg, safe=safe)
    except FitNonConvergenceError as exc:
        print(f"error: {exc} (last residual {exc.last_residual!r})",
              file=sys.stderr)
        return EXIT_NONCONVERGENCE
    mx, rms = fit_residual(coeffs, target, cfg, safe=safe)
    print(f"max_abs_residual = {mx!r}")
    print(f"rms_residual = {rms!r}")
    _print_coefficients(coeffs)
    if args.out:
        write_coefficient_document(args.out, coeffs, safe=safe,
                                   provenance=f"lsq:{label}")
    return EXIT_OK


def cmd_export_curve(args) -> int:
    import numpy as np

    from .rational import (DocumentFormatError, PoleError, eval_pau_batch,
                           read_coefficient_document, sample_noisy_coeffs,
                           eval_pau_stacked)

    if args.points < 2:
        return _usage_fail("--points must be >= 2")
    try:
        lo, hi = _parse_range(args.range)
    except ValueError as exc:
        return _usage_fail(str(exc))
    try:
        doc = read_coefficient_document(args.coeffs)
    except (OSError, DocumentFormatError) as exc:
        print(f"error: cannot read coefficient document: {exc}", file=sys.stderr)
        return EXIT_INPUT
    xs = np.linspace(lo, hi, args.points)
    try:
        fx = eval_pau_batch(xs, doc.coefficients, safe=doc.safe)
        rows = []
        if args.noise is None:
            header = "x,f"
            for x, f in zip(xs, fx):
                rows.append(f"{float(x)!r},{float(f)!r}")
        else:
            header = "x,f,noise_min,noise_max"
            rng = np.random.default_rng(args.seed)
            samples = 1000
            for x, f in zip(xs, fx):
                if args.noise == 0.0:
                    lo_v = hi_v = float(f)
                else:
                    stacks = sample_noisy_coeffs(doc.coefficients, args.noise, rng,
                                                 size=samples)
                    vals = eval_pau_stacked(np.full(samples, x), *stacks,
                                            safe=doc.safe)
                    lo_v, hi_v = float(vals.min()), float(vals.max())
                rows.append(f"{float(x)!r},{float(f)!r},{lo_v!r},{hi_v!r}")
    except PoleError as exc:
        print(f"error: unsafe unit has a pole in the range: {exc}", file=sys.stderr)
        return EXIT_INPUT
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    import numpy as np

    from . import gradcheck as gc

    if args.trials == 0:
        print("warning: 0 trials requested, nothing checked")
        return EXIT_OK
    # each trial draws 6 numerator and 4 denominator coefficients on
    # [-1, 1], then x on [-3, 3], from one stream
    rng = np.random.default_rng(args.seed)
    lo = np.array([-1.0] * 10 + [-3.0])
    draws = rng.uniform(lo, -lo, (args.trials, lo.size))
    nums, dens, xs = draws[:, :6], draws[:, 6:10], draws[:, 10]
    trial_worst, labels, _ = gc.compare_trials(xs, nums, dens, safe=True,
                                               flip_denominator=args.inject_fault)
    i = int(np.argmax(trial_worst))
    worst = max(float(trial_worst[i]), gc.toy_network_check(seed=args.seed))
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

_SYNTH_DATA_SEED = 555  # dataset content independent of the training seed

# run-settings a key/value config file may provide, with parsers
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
            out[key] = _CONFIG_KEYS[key](val.strip())
    return out


class _Settings:
    """Effective run settings: preset defaults, then the config file,
    then explicit command-line flags."""

    def __init__(self, preset, args):
        merged = dict(preset)
        merged.update({"data_dir": None, "init": "lrelu(0.01)",
                       "noise_alpha": 0.0, "seed": 0, "momentum": 0.5,
                       "pau_lr": None, "lr_decay": 1.0})
        if getattr(args, "config", None):
            merged.update(_read_kv_config(args.config))
        for key in _CONFIG_KEYS:
            flag = getattr(args, key, None)
            if flag is not None:
                merged[key] = flag
        self.__dict__.update(merged)
        self.frozen = args.frozen


def _load_preset_data(settings):
    from .data import DatasetHandle, load_idx, pad_images, synth_digits

    if settings.source == "synth":
        n_train = settings.train_subset or 10000
        n_test = settings.test_subset or 2000
        full = synth_digits(n_train + n_test, seed=_SYNTH_DATA_SEED)
        train = DatasetHandle(full.images[:n_train], full.labels[:n_train], "train")
        test = DatasetHandle(full.images[n_train:], full.labels[n_train:], "test")
    else:
        if settings.data_dir is None:
            raise FileNotFoundError("this preset needs --data-dir with IDX files")
        train = load_idx(settings.data_dir, "train")
        test = load_idx(settings.data_dir, "test")
    if settings.arch == "lenet":
        train = pad_images(train, 32)
        test = pad_images(test, 32)
    return train, test


def _build_preset_net(settings):
    from .network import build_network, lenet_spec, mlp_spec

    spec = lenet_spec() if settings.arch == "lenet" else mlp_spec((784, 128, 10))
    input_shape = (1, 32, 32) if settings.arch == "lenet" else None
    return build_network(spec, init=settings.init, seed=settings.seed,
                         input_shape=input_shape,
                         noise_alpha=settings.noise_alpha,
                         trainable_units=not settings.frozen)


def _run_config(settings):
    from .train import TrainConfig

    return TrainConfig(
        epochs=settings.epochs,
        batch_size=settings.batch_size,
        optimizer=settings.optimizer,
        lr=settings.lr,
        momentum=settings.momentum,
        pau_lr=settings.pau_lr,
        lr_decay=settings.lr_decay,
        seed=settings.seed,
        train_subset=settings.train_subset,
        test_subset=settings.test_subset,
    )


def cmd_train(args) -> int:
    from .data import IdxFormatError
    from .network import save_checkpoint
    from .train import train_model, write_metrics_csv

    try:
        settings = _Settings(PRESETS[args.preset], args)
        train, test = _load_preset_data(settings)
    except (FileNotFoundError, IdxFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    net = _build_preset_net(settings)
    cfg = _run_config(settings)
    net, history = train_model(net, train, test, cfg)
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
    from .data import IdxFormatError
    from .network import load_checkpoint
    from .train import evaluate

    try:
        net = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load checkpoint: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        settings = _Settings(PRESETS[args.preset], args)
        train, test = _load_preset_data(settings)
    except (FileNotFoundError, IdxFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    data = test if args.split == "test" else train
    if args.split == "test" and settings.test_subset:
        data = data.subset(settings.test_subset)
    acc = evaluate(net, data)
    print(f"accuracy = {acc!r}")
    return EXIT_OK


def cmd_prune(args) -> int:
    from .data import IdxFormatError
    from .prune import PruneSchedule, lottery_run

    try:
        settings = _Settings(PRESETS[args.preset], args)
        train, test = _load_preset_data(settings)
    except (FileNotFoundError, IdxFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        fractions = tuple(float(v) for v in args.schedule.split(","))
        schedule = PruneSchedule(fractions, retrain=_run_config(settings))
    except ValueError as exc:
        return _usage_fail(str(exc))
    report = lottery_run(lambda: _build_preset_net(settings),
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
    p.add_argument("--orders", default="5,4")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pade)

    p = sub.add_parser("fit", help="least-squares fit over a grid")
    p.add_argument("--target", required=True,
                   help="activation name or doc:<coefficient document>")
    p.add_argument("--range", default="-3,3")
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--orders", default="5,4")
    p.add_argument("--max-iter", type=int, default=25,
                   help="reweighting iteration budget (elu needs ~50)")
    p.add_argument("--unsafe", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    for name, func in (("train", cmd_train), ("prune", cmd_prune),
                       ("eval", cmd_eval)):
        p = sub.add_parser(name)
        p.add_argument("--preset", choices=sorted(PRESETS), default="synth-desk")
        p.add_argument("--config", help="key/value settings file; flags override it")
        p.add_argument("--data-dir")
        p.add_argument("--seed", type=int)
        p.add_argument("--init", help="builtin coefficient name, e.g. lrelu(0.01)")
        p.add_argument("--noise-alpha", type=float)
        p.add_argument("--frozen", action="store_true",
                       help="freeze unit coefficients at their initialization")
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--optimizer", choices=("adam", "sgd"))
        p.add_argument("--lr", type=float)
        p.add_argument("--momentum", type=float)
        p.add_argument("--pau-lr", type=float)
        p.add_argument("--lr-decay", type=float)
        p.add_argument("--train-subset", type=int)
        p.add_argument("--test-subset", type=int)
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
    p.add_argument("--range", default="-3,3")
    p.add_argument("--points", type=int, default=601)
    p.add_argument("--out", required=True)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int, default=0)
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
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
