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

from . import acoustic, dataio, dsp, eeg, nn, pipeline
from .config import RunConfig, config_hash, echo_config, parse_config, stage_seed, validate_config
from .errors import ConfigError, DataError, NumericError
from .evaluate import evaluate_acoustic, spectrogram_export
from .serialize import atomic_open, load_container, save_container

# Container kinds of the per-trial intermediates under out_dir.
CLEAN_KIND = "clean-eeg"
FEATURES_KIND = "eeg-features"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# Per command: count flag -> the config field it overrides.
_COUNT_FLAGS = {
    "gen-data": {"n_trials": "n_trials", "duration": "duration_s"},
    "train-synth": {"epochs": "synth_epochs"},
    "train-regress": {"epochs": "regress_epochs"},
}


def _load_config(args) -> RunConfig:
    """The config file with the command-line overrides applied, validated again."""
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if getattr(args, "data_root", None):
        cfg.data_root = args.data_root
    for flag, field_name in _COUNT_FLAGS.get(args.command, {}).items():
        value = getattr(args, flag)
        if value is not None:
            setattr(cfg, field_name, value)
    validate_config(cfg)
    return cfg


def _manifest(cfg: RunConfig) -> dataio.DatasetManifest:
    return dataio.load_manifest(Path(cfg.data_root) / "manifest.json")


def _split(cfg: RunConfig) -> dataio.SplitAssignment:
    path = Path(cfg.out_dir) / "split.json"
    if not path.exists():
        raise DataError(f"missing split file {path}; run the split command first")
    return dataio.load_split(path)


def _filter_ids(manifest: dataio.DatasetManifest, ids, args) -> list[str]:
    subject = getattr(args, "subject", None)
    condition = getattr(args, "condition", None)
    out = []
    for trial_id in ids:
        ref = manifest.by_id(trial_id)
        if subject is not None and ref.subject != subject:
            continue
        if condition is not None and ref.condition != condition:
            continue
        out.append(trial_id)
    return out


def _clean_dir(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir) / "clean"


def _feats_dir(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir) / "feats_eeg"


def _load_values(path: Path, kind: str, stage: str) -> np.ndarray:
    """The one array of a per-trial intermediate container written by `stage`."""
    if not path.exists():
        raise DataError(f"missing {kind} file {path}; run {stage} first")
    _, _, arrays = load_container(path, expect_kind=kind)
    if list(arrays) != ["values"]:
        raise DataError(f"{path}: expected a single 'values' array, found {sorted(arrays)}")
    return arrays["values"]


def _load_clean(cfg: RunConfig, trial_id: str) -> eeg.CleanEeg:
    values = _load_values(_clean_dir(cfg) / f"{trial_id}.clean", CLEAN_KIND, "preprocess")
    return eeg.CleanEeg(values)


def _feature_seq(cfg: RunConfig, trial_id: str) -> eeg.StatFeatureSeq:
    values = _load_values(_feats_dir(cfg) / f"{trial_id}.feats", FEATURES_KIND, "extract-eeg-feats")
    return eeg.StatFeatureSeq(values)


def _kpca_models(cfg: RunConfig) -> dict[str, eeg.KpcaModel]:
    kdir = Path(cfg.out_dir) / "kpca"
    if not kdir.is_dir():
        raise DataError(f"missing KPCA directory {kdir}; run fit-kpca first")
    models = {}
    for path in sorted(kdir.glob("*.kpca")):
        models[path.stem] = eeg.load_kpca(path)
    if not models:
        raise DataError(f"no fitted KPCA models under {kdir}")
    return models


def _regression_examples(cfg: RunConfig, manifest, ids, args) -> list[dict]:
    models = _kpca_models(cfg)
    grid = pipeline.audio_grid(cfg)
    examples = []
    for trial_id in _filter_ids(manifest, ids, args):
        ref = manifest.by_id(trial_id)
        seq = _feature_seq(cfg, trial_id)
        reduced = pipeline.reduce_features(seq, ref.subject, models, cfg)
        trial = manifest.load_trial(trial_id)
        targets = acoustic.extract_acoustic_set(pipeline.audio_at_rate(trial, cfg), grid)
        examples.append(pipeline.regression_example(trial_id, ref.subject, ref.condition, reduced, targets))
    return examples


def _summary(command: str, **payload) -> None:
    print(json.dumps({"command": command, **payload}, sort_keys=True))


# ---------------------------------------------------------------------------
# Command implementations

def cmd_gen_data(cfg: RunConfig, args) -> None:
    manifest = dataio.generate_synthetic_dataset(
        n_trials=cfg.n_trials,
        duration_s=cfg.duration_s,
        seed=stage_seed(cfg.seed, "gen-data"),
        out_dir=cfg.data_root,
        eeg_format=cfg.eeg_format,
    )
    _summary("gen-data", n_trials=len(manifest.trials), data_root=str(cfg.data_root))


def cmd_split(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    split = dataio.make_split(
        manifest, (cfg.train_ratio, cfg.val_ratio, cfg.test_ratio), stage_seed(cfg.seed, "split")
    )
    out = Path(cfg.out_dir) / "split.json"
    dataio.save_split(split, out)
    _summary("split", train=len(split.train_ids), val=len(split.val_ids),
             test=len(split.test_ids), path=str(out))


def cmd_preprocess(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    options = pipeline.preprocess_options(cfg)
    clean_dir = _clean_dir(cfg)
    clean_dir.mkdir(parents=True, exist_ok=True)
    # every trial goes through the same steps; only ICA is switchable
    steps = {"bandpassed": True, "notched": True, "ica_cleaned": options.run_ica, "zscored": True}
    ids = _filter_ids(manifest, manifest.ids(), args)
    for trial_id in ids:
        trial = manifest.load_trial(trial_id)
        clean = eeg.preprocess_eeg(trial.eeg, options)
        save_container(clean_dir / f"{trial_id}.clean", CLEAN_KIND, {}, {"values": clean.data})
    with atomic_open(clean_dir / "preprocess.json") as fh:
        fh.write(json.dumps({trial_id: steps for trial_id in ids}, indent=1, sort_keys=True) + "\n")
    _summary("preprocess", n_trials=len(ids), out=str(clean_dir))


def cmd_extract_eeg_feats(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    grid = pipeline.eeg_grid(cfg)
    out_dir = _feats_dir(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = _filter_ids(manifest, manifest.ids(), args)
    for trial_id in ids:
        seq = eeg.extract_stat_features(_load_clean(cfg, trial_id), grid)
        save_container(out_dir / f"{trial_id}.feats", FEATURES_KIND, {}, {"values": seq.values})
    _summary("extract-eeg-feats", n_trials=len(ids), dim=eeg.STAT_FEATURE_DIM, out=str(out_dir))


def cmd_fit_kpca(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    split = _split(cfg)
    train_ids = _filter_ids(manifest, split.train_ids, args)
    seqs = {tid: _feature_seq(cfg, tid) for tid in train_ids}
    subjects = {tid: manifest.by_id(tid).subject for tid in train_ids}
    models = pipeline.fit_kpca_models(seqs, subjects, train_ids, cfg)
    kdir = Path(cfg.out_dir) / "kpca"
    kdir.mkdir(parents=True, exist_ok=True)
    curves = {}
    for key, model in models.items():
        eeg.save_kpca(model, kdir / f"{key}.kpca")
        curves[key] = eeg.explained_variance_curve(model)
    with atomic_open(kdir / "explained_variance.csv") as fh:
        fh.write("scope,component,cumulative_fraction\n")
        for key in sorted(curves):
            for i, frac in enumerate(curves[key], start=1):
                fh.write(f"{key},{i},{frac:.9g}\n")
    _summary("fit-kpca", scopes=sorted(models), out_dim=cfg.kpca_out_dim, out=str(kdir),
             effective_rank={key: model.effective_rank for key, model in models.items()},
             explained_variance={key: float(curve[-1]) for key, curve in curves.items()})


def cmd_train_synth(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    split = _split(cfg)
    train_ids = _filter_ids(manifest, split.train_ids, args)
    val_ids = _filter_ids(manifest, split.val_ids, args)
    cleans = {tid: _load_clean(cfg, tid) for tid in train_ids + val_ids}
    train_ex = pipeline.build_synthesis_dataset(manifest, train_ids, cfg, cleans)
    val_ex = pipeline.build_synthesis_dataset(manifest, val_ids, cfg, cleans) if val_ids else None
    model, history = pipeline.train_synthesis(train_ex, cfg, val_ex)
    models_dir = Path(cfg.out_dir) / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    ckpt = models_dir / "synthesis.ckpt"
    model.save(ckpt)
    history.to_csv(
        models_dir / "synthesis_history.csv",
        meta={"epochs": cfg.synth_epochs, "batch_size": cfg.batch_size, "learning_rate": cfg.learning_rate},
    )
    _summary("train-synth", epochs=cfg.synth_epochs, final_train_loss=history.final_train_loss(),
             checkpoint=str(ckpt))


def cmd_train_regress(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    split = _split(cfg)
    kinds = list(acoustic.FEATURE_ORDER) if args.kind == "all" else [acoustic.kind_for_label(args.kind)]
    examples = _regression_examples(cfg, manifest, split.train_ids, args)
    if not examples:
        raise DataError("no training trials after filtering")
    models_dir = Path(cfg.out_dir) / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    losses = {}
    for kind in kinds:
        bundle, history = pipeline.train_regression_kind(kind, examples, cfg)
        bundle.save(models_dir / f"regress_{kind}.ckpt")
        history.to_csv(
            models_dir / f"regress_{kind}_history.csv",
            meta={"epochs": cfg.regress_epochs, "batch_size": cfg.batch_size, "learning_rate": cfg.learning_rate},
        )
        losses[acoustic.label_for_kind(kind)] = history.final_train_loss()
    _summary("train-regress", epochs=cfg.regress_epochs, kinds=sorted(losses), final_train_loss=losses)


def cmd_eval_synth(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    split = _split(cfg)
    ckpt = Path(cfg.out_dir) / "models" / "synthesis.ckpt"
    if not ckpt.exists():
        raise DataError(f"missing checkpoint {ckpt}; run train-synth first")
    model = nn.load_model(ckpt)
    test_ids = _filter_ids(manifest, split.test_ids, args)
    if not test_ids:
        raise DataError("no test trials after filtering")
    cleans = {tid: _load_clean(cfg, tid) for tid in test_ids}
    examples = pipeline.build_synthesis_dataset(manifest, test_ids, cfg, cleans)
    report = pipeline.evaluate_synthesis_model(
        model, examples, {"seed": cfg.seed, "config_hash": config_hash(cfg)}
    )
    metrics_dir = Path(cfg.out_dir) / "metrics"
    metrics_dir.mkdir(parents=True, exist_ok=True)
    report.to_json(metrics_dir / "synthesis.json")
    report.to_csv(metrics_dir / "synthesis.csv")
    _summary("eval-synth", n_rows=len(report.rows), out=str(metrics_dir / "synthesis.json"))


def cmd_eval_regress(cfg: RunConfig, args) -> None:
    manifest = _manifest(cfg)
    split = _split(cfg)
    models_dir = Path(cfg.out_dir) / "models"
    bundles = {}
    for kind in acoustic.FEATURE_ORDER:
        path = models_dir / f"regress_{kind}.ckpt"
        if not path.exists():
            raise DataError(f"missing regression checkpoint for kind {kind!r} at {path}")
        bundles[kind] = pipeline.RegressorBundle.load(path)
    examples = _regression_examples(cfg, manifest, split.test_ids, args)
    if not examples:
        raise DataError("no test trials after filtering")
    report = evaluate_acoustic(
        {kind: b.predict for kind, b in bundles.items()}, examples,
        {"seed": cfg.seed, "config_hash": config_hash(cfg)},
    )
    metrics_dir = Path(cfg.out_dir) / "metrics"
    metrics_dir.mkdir(parents=True, exist_ok=True)
    report.to_json(metrics_dir / "acoustic.json")
    report.to_csv(metrics_dir / "acoustic.csv")
    _summary("eval-regress", n_rows=len(report.rows), out=str(metrics_dir / "acoustic.json"))


def cmd_export_spectrogram(cfg: RunConfig, args) -> None:
    out_dir = Path(cfg.out_dir) / "spectrograms"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.wav:
        clip = dataio.read_wav(args.wav)
        wave = dsp.resample_poly(clip.samples, clip.sample_rate_hz, cfg.audio_rate_hz)
        prefix = out_dir / Path(args.wav).stem
    elif args.trial:
        manifest = _manifest(cfg)
        trial = manifest.load_trial(args.trial)
        if args.source == "predicted":
            ckpt = Path(cfg.out_dir) / "models" / "synthesis.ckpt"
            if not ckpt.exists():
                raise DataError(f"missing checkpoint {ckpt}; run train-synth first")
            model = nn.load_model(ckpt)
            clean = _load_clean(cfg, args.trial)
            example = pipeline.synthesis_example(trial, clean, cfg)
            wave = model.predict(example["x"].astype(np.float32)[None, ...])[0][:, 0]
        else:
            wave = pipeline.audio_at_rate(trial, cfg)
        prefix = out_dir / f"{args.trial}_{args.source}"
    else:
        raise ConfigError("export-spectrogram needs --wav or --trial")
    csv_path, pgm_path = spectrogram_export(wave, prefix, fs_hz=cfg.audio_rate_hz)
    _summary("export-spectrogram", csv=str(csv_path), pgm=str(pgm_path))


def cmd_grad_check(cfg: RunConfig, args) -> None:
    rng = np.random.default_rng(stage_seed(cfg.seed, "grad-check"))
    results = {}
    synth = nn.build_synthesis_model(seed=1, filters=(4, 2), kernel_size=3, dtype=np.float64)
    x = rng.standard_normal((2, 6, 31))
    y = rng.standard_normal((2, 90, 1))
    results["synthesis"] = nn.finite_diff_grad_check(synth, x, y, seed=0)
    regress = nn.build_regression_model(out_dim=7, seed=1, hidden=8, dtype=np.float64)
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

def build_parser() -> _Parser:
    parser = _Parser(prog="eegspeech", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", default=None, help="INI config path (defaults apply if omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the root seed")
        p.add_argument("--out", default=None, help="override out_dir")
        p.add_argument("--data-root", dest="data_root", default=None, help="override data_root")
        return p

    p = add("gen-data", help="write a synthetic paired EEG/audio dataset")
    p.add_argument("--n-trials", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)

    add("split", help="deterministic train/val/test assignment")

    for name in ("preprocess", "extract-eeg-feats", "fit-kpca"):
        p = add(name)
        p.add_argument("--subject", type=int, default=None)
        p.add_argument("--condition", choices=dataio.CONDITIONS, default=None)

    for name in ("train-synth", "eval-synth"):
        p = add(name)
        p.add_argument("--subject", type=int, default=None)
        p.add_argument("--condition", choices=dataio.CONDITIONS, default=None)
        if name == "train-synth":
            p.add_argument("--epochs", type=int, default=None)

    p = add("train-regress")
    p.add_argument("--kind", default="all", choices=("all", *acoustic.FEATURE_LABELS, *acoustic.FEATURE_ORDER),
                   metavar="KIND", help="feature kind or label fN, or 'all'")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--subject", type=int, default=None)
    p.add_argument("--condition", choices=dataio.CONDITIONS, default=None)

    p = add("eval-regress")
    p.add_argument("--subject", type=int, default=None)
    p.add_argument("--condition", choices=dataio.CONDITIONS, default=None)

    p = add("export-spectrogram")
    p.add_argument("--wav", default=None, help="WAV file to analyze")
    p.add_argument("--trial", default=None, help="trial id from the manifest")
    p.add_argument("--source", choices=("actual", "predicted"), default="actual")

    add("grad-check", help="finite-difference verification of all layer gradients")
    return parser


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        echo_config(cfg, cfg.out_dir)
        _HANDLERS[args.command](cfg, args)
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
