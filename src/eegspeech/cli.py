"""Batch driver: the full pipeline as subcommands over a config file.

Each command reads its declared inputs under the configured paths, writes its
outputs under out_dir, and prints a one-line JSON summary to stdout. Exit
codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import acoustic, dataio, eeg, nn, pipeline
from .config import FIELD_TYPES, RunConfig, config_hash, echo_config, parse_config, stage_seed, validate_config
from .errors import ConfigError, DataError, NumericError
from .evaluate import MetricsReport, evaluate_acoustic, evaluate_synthesis, spectrogram_export
from .serialize import load_container, save_container, write_csv, write_json

# Container kinds of the per-trial intermediates under out_dir.
CLEAN_KIND = "clean-eeg"
FEATURES_KIND = "eeg-features"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# Per command: count flag -> the config field it overrides, and whose type it parses as.
_COUNT_FLAGS = {
    "gen-data": {"n_trials": "n_trials", "duration": "duration_s"},
    "train-synth": {"epochs": "synth_epochs"},
    "train-regress": {"epochs": "regress_epochs"},
}
# The commands that take the --subject/--condition trial filters.
_FILTERED = ("preprocess", "extract-eeg-feats", "fit-kpca", "train-synth", "train-regress",
             "eval-synth", "eval-regress")


def _load_config(args) -> RunConfig:
    """The config file with the command-line overrides applied, validated again."""
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.data_root is not None:
        cfg.data_root = args.data_root
    for flag, field_name in _COUNT_FLAGS.get(args.command, {}).items():
        value = getattr(args, flag)
        if value is not None:
            setattr(cfg, field_name, value)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# The stage frame: select the trials, require the inputs, then write the outputs.

def _select(manifest: dataio.DatasetManifest, ids, args, role: str | None = None) -> list[str]:
    """`ids` narrowed by --subject/--condition. Given a `role`, the set is
    required: an empty one is a DataError, raised before the stage writes."""
    refs = [manifest.by_id(tid) for tid in ids]
    selected = [ref.id for ref in refs
                if args.subject in (None, ref.subject) and args.condition in (None, ref.condition)]
    if role and not selected:
        raise DataError(f"no {role} trials after filtering")
    return selected


def _require(path: Path, stage: str) -> Path:
    """`path`, an output of `stage`; a DataError that names the stage if it is missing."""
    if not path.exists():
        raise DataError(f"missing {path}; run {stage} first")
    return path


def _stage_dir(cfg: RunConfig, name: str) -> Path:
    """out_dir/<name>, created to take a stage's outputs."""
    path = Path(cfg.out_dir) / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(cfg: RunConfig) -> dataio.DatasetManifest:
    return dataio.load_manifest(Path(cfg.data_root) / "manifest.json")


def _split(cfg: RunConfig) -> dataio.SplitAssignment:
    return dataio.load_split(_require(Path(cfg.out_dir) / "split.json", "split"))


def _load_values(path: Path, kind: str, stage: str) -> np.ndarray:
    """The one array of a per-trial intermediate container written by `stage`."""
    _, _, arrays = load_container(_require(path, stage), expect_kind=kind)
    if list(arrays) != ["values"]:
        raise DataError(f"{path}: expected a single 'values' array, found {sorted(arrays)}")
    return arrays["values"]


def _load_clean(cfg: RunConfig, trial_id: str) -> eeg.CleanEeg:
    path = Path(cfg.out_dir, "clean", f"{trial_id}.clean")
    values = _load_values(path, CLEAN_KIND, "preprocess")
    try:
        return eeg.CleanEeg(values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _feature_seq(cfg: RunConfig, trial_id: str) -> eeg.StatFeatureSeq:
    values = _load_values(Path(cfg.out_dir, "feats_eeg", f"{trial_id}.feats"), FEATURES_KIND,
                          "extract-eeg-feats")
    return eeg.StatFeatureSeq(values)


def _kpca_models(cfg: RunConfig) -> dict[str, eeg.KpcaModel]:
    kdir = _require(Path(cfg.out_dir) / "kpca", "fit-kpca")
    models = {path.stem: eeg.load_kpca(path) for path in sorted(kdir.glob("*.kpca"))}
    if not models:
        raise DataError(f"no fitted KPCA models under {kdir}; run fit-kpca first")
    return models


def _synthesis_model(cfg: RunConfig) -> nn.Model:
    return nn.load_model(_require(Path(cfg.out_dir) / "models" / "synthesis.ckpt", "train-synth"))


def _regression_examples(cfg: RunConfig, manifest: dataio.DatasetManifest, ids) -> list[dict]:
    """Reduced EEG features against acoustic targets; the raw EEG is not read."""
    models = _kpca_models(cfg)
    grid = pipeline.audio_grid(cfg)
    examples = []
    for trial_id in ids:
        ref = manifest.by_id(trial_id)
        seq = _feature_seq(cfg, trial_id)
        reduced = pipeline.reduce_features(seq, ref.subject, models, cfg)
        wave = pipeline.clip_at_rate(dataio.read_wav(manifest.root / ref.wav_path))
        targets = acoustic.extract_acoustic_set(wave, grid)
        examples.append(pipeline.regression_example(trial_id, ref.subject, ref.condition, reduced, targets))
    return examples


def _write_history(cfg: RunConfig, history: nn.TrainHistory, path: Path, epochs: int) -> None:
    """A trainer's per-epoch losses, headed by the run's training settings."""
    history.to_csv(path, meta={"epochs": epochs, "batch_size": cfg.batch_size,
                               "learning_rate": cfg.learning_rate})


def _write_report(cfg: RunConfig, command: str, report: MetricsReport) -> None:
    """metrics/<scope>.json and .csv, stamped with the run's seed and config hash."""
    report.metadata = {"seed": cfg.seed, "config_hash": config_hash(cfg)}
    path = _stage_dir(cfg, "metrics") / f"{report.scope}.json"
    report.to_json(path)
    report.to_csv(path.with_suffix(".csv"))
    _summary(command, n_rows=len(report.rows), out=str(path))


def _summary(command: str, **payload) -> None:
    print(json.dumps({"command": command, **payload}, sort_keys=True))


# ---------------------------------------------------------------------------
# Command implementations

def cmd_gen_data(cfg: RunConfig, args) -> None:
    """write a synthetic paired EEG/audio dataset"""
    manifest = dataio.generate_synthetic_dataset(
        n_trials=cfg.n_trials,
        duration_s=cfg.duration_s,
        seed=stage_seed(cfg.seed, "gen-data"),
        out_dir=cfg.data_root,
        eeg_format=cfg.eeg_format,
    )
    _summary("gen-data", n_trials=len(manifest.trials), data_root=str(cfg.data_root))


def cmd_split(cfg: RunConfig, args) -> None:
    """deterministic train/val/test assignment"""
    manifest = _manifest(cfg)
    split = dataio.make_split(
        manifest, (cfg.train_ratio, cfg.val_ratio, cfg.test_ratio), stage_seed(cfg.seed, "split")
    )
    out = _stage_dir(cfg, ".") / "split.json"
    dataio.save_split(split, out)
    _summary("split", train=len(split.train_ids), val=len(split.val_ids),
             test=len(split.test_ids), path=str(out))


def cmd_preprocess(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    ids = _select(manifest, manifest.ids(), args, "dataset")
    options = pipeline.preprocess_options(cfg)
    clean_dir = _stage_dir(cfg, "clean")
    # every trial goes through the same steps; only ICA is switchable
    steps = {"bandpassed": True, "notched": True, "ica_cleaned": options.run_ica, "zscored": True}
    for trial_id in ids:
        trial = manifest.load_trial(trial_id)
        clean = eeg.preprocess_eeg(trial.eeg, options)
        save_container(clean_dir / f"{trial_id}.clean", CLEAN_KIND, {}, {"values": clean.data})
    write_json(clean_dir / "preprocess.json", dict.fromkeys(ids, steps))
    _summary("preprocess", n_trials=len(ids), out=str(clean_dir))


def cmd_extract_eeg_feats(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    ids = _select(manifest, manifest.ids(), args, "dataset")
    grid = pipeline.eeg_grid(cfg)
    out_dir = _stage_dir(cfg, "feats_eeg")
    for trial_id in ids:
        seq = eeg.extract_stat_features(_load_clean(cfg, trial_id), grid)
        save_container(out_dir / f"{trial_id}.feats", FEATURES_KIND, {}, {"values": seq.values})
    _summary("extract-eeg-feats", n_trials=len(ids), dim=eeg.STAT_FEATURE_DIM, out=str(out_dir))


def cmd_fit_kpca(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    train_ids = _select(manifest, _split(cfg).train_ids, args, "training")
    seqs = {tid: _feature_seq(cfg, tid) for tid in train_ids}
    subjects = {tid: manifest.by_id(tid).subject for tid in train_ids}
    models = pipeline.fit_kpca_models(seqs, subjects, train_ids, cfg)
    kdir = _stage_dir(cfg, "kpca")
    curves = {}
    for key, model in models.items():
        eeg.save_kpca(model, kdir / f"{key}.kpca")
        curves[key] = eeg.explained_variance_curve(model)
    write_csv(kdir / "explained_variance.csv", ("scope", "component", "cumulative_fraction"),
              ((key, str(i), f"{frac:.9g}") for key in sorted(curves)
               for i, frac in enumerate(curves[key], start=1)))
    _summary("fit-kpca", scopes=sorted(models), out_dim=cfg.kpca_out_dim, out=str(kdir),
             effective_rank={key: model.effective_rank for key, model in models.items()},
             explained_variance={key: float(curve[-1]) for key, curve in curves.items()})


def cmd_train_synth(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    split = _split(cfg)
    train_ids = _select(manifest, split.train_ids, args, "training")
    val_ids = _select(manifest, split.val_ids, args)
    cleans = {tid: _load_clean(cfg, tid) for tid in train_ids + val_ids}
    train_ex = pipeline.build_synthesis_dataset(manifest, train_ids, cfg, cleans)
    val_ex = pipeline.build_synthesis_dataset(manifest, val_ids, cfg, cleans)
    model, history = pipeline.train_synthesis(train_ex, cfg, val_ex)
    models_dir = _stage_dir(cfg, "models")
    ckpt = models_dir / "synthesis.ckpt"
    model.save(ckpt)
    _write_history(cfg, history, models_dir / "synthesis_history.csv", cfg.synth_epochs)
    _summary("train-synth", epochs=cfg.synth_epochs, final_train_loss=history.final_train_loss(),
             checkpoint=str(ckpt))


def cmd_train_regress(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    kinds = list(acoustic.FEATURE_ORDER) if args.kind == "all" else [acoustic.kind_for_label(args.kind)]
    train_ids = _select(manifest, _split(cfg).train_ids, args, "training")
    examples = _regression_examples(cfg, manifest, train_ids)
    models_dir = _stage_dir(cfg, "models")
    losses = {}
    for kind in kinds:
        bundle, history = pipeline.train_regression_kind(kind, examples, cfg)
        bundle.save(models_dir / f"regress_{kind}.ckpt")
        _write_history(cfg, history, models_dir / f"regress_{kind}_history.csv", cfg.regress_epochs)
        losses[acoustic.label_for_kind(kind)] = history.final_train_loss()
    _summary("train-regress", epochs=cfg.regress_epochs, kinds=sorted(losses), final_train_loss=losses)


def cmd_eval_synth(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    test_ids = _select(manifest, _split(cfg).test_ids, args, "test")
    model = _synthesis_model(cfg)
    cleans = {tid: _load_clean(cfg, tid) for tid in test_ids}
    examples = pipeline.build_synthesis_dataset(manifest, test_ids, cfg, cleans)
    predict = lambda x: model.predict(x.astype(np.float32)[None, ...])[0]
    _write_report(cfg, "eval-synth", evaluate_synthesis(predict, examples))


def cmd_eval_regress(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    test_ids = _select(manifest, _split(cfg).test_ids, args, "test")
    bundles = {}
    for kind in acoustic.FEATURE_ORDER:
        path = _require(Path(cfg.out_dir, "models", f"regress_{kind}.ckpt"), "train-regress")
        bundles[kind] = pipeline.RegressorBundle.load(path)
        if bundles[kind].kind != kind:
            raise DataError(f"{path}: holds the {bundles[kind].kind} regressor, not {kind}")
    examples = _regression_examples(cfg, manifest, test_ids)
    report = evaluate_acoustic({kind: b.predict for kind, b in bundles.items()}, examples)
    _write_report(cfg, "eval-regress", report)


def cmd_export_spectrogram(cfg: RunConfig, args) -> None:
    if args.wav is not None and args.source == "predicted":
        raise ConfigError("--source predicted needs --trial: a WAV has no EEG to predict from")
    if args.wav is not None:
        wave = pipeline.clip_at_rate(dataio.read_wav(args.wav))
        name = Path(args.wav).stem
    else:
        trial = _manifest(cfg).load_trial(args.trial)
        if args.source == "predicted":
            example = pipeline.synthesis_example(trial, _load_clean(cfg, args.trial), cfg)
            wave = _synthesis_model(cfg).predict(example["x"].astype(np.float32)[None, ...])[0][:, 0]
        else:
            wave = pipeline.audio_at_rate(trial, cfg)
        name = f"{args.trial}_{args.source}"
    prefix = _stage_dir(cfg, "spectrograms") / name
    csv_path, pgm_path = spectrogram_export(wave, prefix, pipeline.audio_grid(cfg))
    _summary("export-spectrogram", csv=str(csv_path), pgm=str(pgm_path))


def cmd_grad_check(cfg: RunConfig, args) -> None:
    """finite-difference verification of all layer gradients"""
    rng = np.random.default_rng(stage_seed(cfg.seed, "grad-check"))
    results = {}
    synth = nn.build_synthesis_model(seed=1, filters=(4, 2), kernel_size=3, dropout_rate=0.0,
                                     dtype=np.float64)
    x = rng.standard_normal((2, 6, 31))
    y = rng.standard_normal((2, 90, 1))
    results["synthesis"] = nn.finite_diff_grad_check(synth, x, y, seed=0)
    regress = nn.build_regression_model(out_dim=7, seed=1, hidden=8, in_dim=30, dropout_rate=0.0,
                                        dtype=np.float64)
    x = rng.standard_normal((2, 6, 30))
    y = rng.standard_normal((2, 6, 7))
    results["regression"] = nn.finite_diff_grad_check(regress, x, y, seed=0)
    dense = nn.Model([nn.TimeDistributedDense(5, 3, rng=np.random.default_rng(3), dtype=np.float64)], {"out_dim": 3}, 5)
    x = rng.standard_normal((2, 4, 5))
    y = rng.standard_normal((2, 4, 3))
    results["dense"] = nn.finite_diff_grad_check(dense, x, y, seed=0)
    max_rel = max(results.values())
    _summary("grad-check", max_rel_err=max_rel, per_model=results)
    if not (max_rel < 1e-4):
        raise NumericError(f"gradient check failed: max relative error {max_rel:.3e}")


# ---------------------------------------------------------------------------

_HANDLERS = {
    "gen-data": cmd_gen_data,
    "split": cmd_split,
    "preprocess": cmd_preprocess,
    "extract-eeg-feats": cmd_extract_eeg_feats,
    "fit-kpca": cmd_fit_kpca,
    "train-synth": cmd_train_synth,
    "train-regress": cmd_train_regress,
    "eval-synth": cmd_eval_synth,
    "eval-regress": cmd_eval_regress,
    "export-spectrogram": cmd_export_spectrogram,
    "grad-check": cmd_grad_check,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="eegspeech", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", help="INI config path (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="override the root seed")
        p.add_argument("--out", help="override out_dir")
        p.add_argument("--data-root", help="override data_root")
        for flag, field_name in _COUNT_FLAGS.get(name, {}).items():
            p.add_argument("--" + flag.replace("_", "-"), type=FIELD_TYPES[field_name])
        if name in _FILTERED:
            p.add_argument("--subject", type=int)
            p.add_argument("--condition", choices=dataio.CONDITIONS)

    sub.choices["train-regress"].add_argument(
        "--kind", default="all", choices=("all", *acoustic.FEATURE_LABELS, *acoustic.FEATURE_ORDER),
        metavar="KIND", help="feature kind or label fN, or 'all'")
    p = sub.choices["export-spectrogram"]
    wave = p.add_mutually_exclusive_group(required=True)
    wave.add_argument("--wav", help="WAV file to analyze")
    wave.add_argument("--trial", help="trial id from the manifest")
    p.add_argument("--source", choices=("actual", "predicted"), default="actual")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        _HANDLERS[args.command](cfg, args)
        # written with the outputs, so a failed command leaves out_dir as it was
        echo_config(cfg, cfg.out_dir)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
