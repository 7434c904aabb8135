"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in its constructor (the
set-up, ending with one warm-up op) and then exposes ``op(i)``: one closed-loop
operation that calls the program's highest public entry point for its job and
checks the outputs. ``op`` returns the seconds of EEG input the operation
processed and the list of output checks that failed.

Workloads (see README.md for why each exists):
  synth-train    one epoch of nn.train on a persistent paper-scale synthesis model
  regress-train  pipeline.train_regression_kind + RegressorBundle.save, cycling kinds
  prep           one trial read -> preprocess -> stats -> acoustic set; one KPCA fit per run
  decode         one held-out trial, 1-4 s, through the full inference path
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from eegspeech import acoustic, dataio, eeg, evaluate, nn, pipeline
from eegspeech.config import RunConfig, stage_seed


@dataclass(frozen=True)
class Size:
    """Input sizes; PAPER is what the benchmark measures, TINY is for the smoke test."""

    trial_duration_s: float
    kpca_cap: int
    kpca_out_dim: int
    synth_trials: int
    synth_filters: tuple[int, int]
    gru_hidden: int
    regress_trials: int
    regress_epochs: int
    prep_pool: int
    prep_fit_trials: int
    decode_fit_trials: int
    decode_pool: int
    decode_durations_s: tuple[float, float]


PAPER = Size(
    trial_duration_s=2.0, kpca_cap=4000, kpca_out_dim=30,
    synth_trials=4, synth_filters=(256, 32), gru_hidden=128,
    regress_trials=50, regress_epochs=5,
    prep_pool=8, prep_fit_trials=66,
    decode_fit_trials=8, decode_pool=12, decode_durations_s=(1.0, 4.0),
)
TINY = Size(
    trial_duration_s=1.0, kpca_cap=100, kpca_out_dim=8,
    synth_trials=2, synth_filters=(8, 4), gru_hidden=8,
    regress_trials=10, regress_epochs=1,
    prep_pool=2, prep_fit_trials=4,
    decode_fit_trials=8, decode_pool=2, decode_durations_s=(1.0, 1.5),
)
SIZES = {"paper": PAPER, "tiny": TINY}


def _config(seed: int, size: Size, **overrides) -> RunConfig:
    cfg = RunConfig(
        seed=seed,
        kpca_max_train_frames=size.kpca_cap,
        kpca_out_dim=size.kpca_out_dim,
        gru_hidden=size.gru_hidden,
        synth_filters1=size.synth_filters[0],
        synth_filters2=size.synth_filters[1],
    )
    return replace(cfg, **overrides)


def _trial_rngs(seed: int, tag: str, n: int) -> list[np.random.Generator]:
    key = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")
    return [np.random.default_rng(s) for s in np.random.SeedSequence([seed, key]).spawn(n)]


def _make_trial(rng: np.random.Generator, index: int, duration_s: float) -> dataio.TrialRecord:
    """One synthetic paired trial in memory, with the generator's subject/condition cycle."""
    eeg_data, audio, _ = dataio.synthesize_trial(rng, duration_s)
    return dataio.TrialRecord(
        f"trial_{index + 1:04d}", index % 4 + 1, dataio.CONDITIONS[index % 2],
        dataio.EegRecording(eeg_data), dataio.AudioClip(dataio.AUDIO_RECORD_RATE_HZ, audio),
    )


def _stat_features(trial: dataio.TrialRecord, cfg: RunConfig) -> eeg.StatFeatureSeq:
    clean = eeg.preprocess_eeg(trial.eeg, pipeline.preprocess_options(cfg))
    return eeg.extract_stat_features(clean, pipeline.eeg_grid(cfg))


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


class Workload:
    name = ""
    # Ops every run completes, however long they take; final_loss is read after them.
    min_ops = 1
    # Ops in one pass over the inputs; a run ends on a whole pass, so that every
    # run sees the same mix of inputs.
    cycle = 1

    def op(self, i: int) -> tuple[float, list[str]]:
        raise NotImplementedError

    def final_loss(self) -> float | None:
        return None


class SynthTrain(Workload):
    """One epoch of nn.train over one padded batch of paper-scale trials per op."""

    name = "synth-train"
    min_ops = 3

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.cfg = _config(seed, size)
        trials = [_make_trial(rng, i, size.trial_duration_s)
                  for i, rng in enumerate(_trial_rngs(seed, self.name, size.synth_trials))]
        options = pipeline.preprocess_options(self.cfg)
        examples = [pipeline.synthesis_example(t, eeg.preprocess_eeg(t.eeg, options), self.cfg) for t in trials]
        self.pairs = [(ex["x"], ex["y"]) for ex in examples]
        self.eeg_s = sum(t.eeg.duration_s for t in trials)
        self.model = nn.build_synthesis_model(
            seed=stage_seed(seed, "synthesis-init"),
            filters=(self.cfg.synth_filters1, self.cfg.synth_filters2),
            kernel_size=self.cfg.synth_kernel,
            dropout_rate=self.cfg.dropout,
        )
        self.train_cfg = nn.TrainConfig(
            epochs=1, batch_size=self.cfg.batch_size, learning_rate=self.cfg.learning_rate,
            seed=stage_seed(seed, "synthesis-train"),
        )
        self.losses: list[float] = []
        self.op(-1)

    def op(self, i):
        history = nn.train(self.model, self.pairs, self.train_cfg)
        loss = history.final_train_loss()
        if i >= 0:
            self.losses.append(loss)
        return self.eeg_s, [] if np.isfinite(loss) else [f"synth-train op {i}: loss {loss}"]

    def final_loss(self):
        return self.losses[self.min_ops - 1]


class RegressTrain(Workload):
    """pipeline.train_regression_kind for one kind, then RegressorBundle.save, cycling all 16."""

    name = "regress-train"
    min_ops = len(acoustic.FEATURE_ORDER)

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.cfg = _config(seed, size)
        self.epochs = size.regress_epochs
        self.workdir = workdir
        ids = [f"trial_{i + 1:04d}" for i in range(size.regress_trials)]
        split = dataio.make_split(ids, (self.cfg.train_ratio, self.cfg.val_ratio, self.cfg.test_ratio), seed)
        rngs = _trial_rngs(seed, self.name, size.regress_trials)
        trials = {ids[i]: _make_trial(rngs[i], i, size.trial_duration_s)
                  for i in range(size.regress_trials) if ids[i] in split.train_ids}
        seqs = {tid: _stat_features(t, self.cfg) for tid, t in trials.items()}
        subjects = {tid: t.subject for tid, t in trials.items()}
        kpca = pipeline.fit_kpca_models(seqs, subjects, split.train_ids, self.cfg)
        grid = pipeline.audio_grid(self.cfg)
        self.examples = []
        for tid in split.train_ids:
            t = trials[tid]
            reduced = pipeline.reduce_features(seqs[tid], t.subject, kpca, self.cfg)
            targets = acoustic.extract_acoustic_set(pipeline.audio_at_rate(t, self.cfg), grid)
            self.examples.append(pipeline.regression_example(tid, t.subject, t.condition, reduced, targets))
        self.eeg_s = self.epochs * sum(t.eeg.duration_s for t in trials.values())
        self.losses: list[float] = []
        self.op(-1)

    def op(self, i):
        kind = acoustic.FEATURE_ORDER[max(i, 0) % len(acoustic.FEATURE_ORDER)]
        bundle, history = pipeline.train_regression_kind(kind, self.examples, self.cfg, epochs=self.epochs)
        bundle.save(self.workdir / f"regress_{kind}.ckpt")
        losses = [row["train_loss"] for row in history.epochs]
        if i >= 0:
            self.losses.append(losses[-1])
        return self.eeg_s, [] if _finite(losses) else [f"regress-train {kind}: losses {losses}"]

    def final_loss(self):
        return float(np.mean(self.losses[: self.min_ops]))


class Prep(Workload):
    """Op 0 is the pooled KPCA fit; every later op takes one trial file through the
    feature front end: load_trial -> preprocess_eeg -> extract_stat_features ->
    extract_acoustic_set."""

    name = "prep"
    min_ops = 2

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.cfg = _config(seed, size, kpca_scope="pooled")
        self.options = pipeline.preprocess_options(self.cfg)
        self.manifest = dataio.generate_synthetic_dataset(
            size.prep_pool, size.trial_duration_s, seed, workdir, self.cfg.eeg_format)
        fit_trials = [_make_trial(rng, i, size.trial_duration_s)
                      for i, rng in enumerate(_trial_rngs(seed, self.name, size.prep_fit_trials))]
        self.seqs = {t.id: _stat_features(t, self.cfg) for t in fit_trials}
        self.subjects = {t.id: t.subject for t in fit_trials}
        self.fit_eeg_s = sum(t.eeg.duration_s for t in fit_trials)
        self.op(1)

    def op(self, i):
        if i == 0:
            return self._fit()
        ref = self.manifest.trials[(i - 1) % len(self.manifest.trials)]
        trial = self.manifest.load_trial(ref)
        clean = eeg.preprocess_eeg(trial.eeg, self.options)
        stats = eeg.extract_stat_features(clean, pipeline.eeg_grid(self.cfg))
        aset = acoustic.extract_acoustic_set(
            pipeline.audio_at_rate(trial, self.cfg), pipeline.audio_grid(self.cfg))
        values = aset.concatenated()
        problems = []
        if stats.values.shape[1] != eeg.STAT_FEATURE_DIM or not _finite(stats.values):
            problems.append(f"prep {ref.id}: stat features {stats.values.shape} not 155 finite columns")
        if values.shape[1] != acoustic.TOTAL_DIM or not _finite(values):
            problems.append(f"prep {ref.id}: acoustic set {values.shape} not 571 finite dims")
        return trial.eeg.duration_s, problems

    def _fit(self):
        models = pipeline.fit_kpca_models(self.seqs, self.subjects, list(self.seqs), self.cfg)
        problems = []
        for key, model in models.items():
            vals = model.eigenvalues
            if model.effective_rank != self.cfg.kpca_out_dim:
                problems.append(f"kpca {key}: effective_rank {model.effective_rank}")
            if np.any(vals < 0) or np.any(np.diff(vals) > 0):
                problems.append(f"kpca {key}: eigenvalues negative or increasing")
        return self.fit_eeg_s, problems


class Decode(Workload):
    """One held-out trial of mixed length through read -> preprocess -> stats ->
    KPCA -> synthesis predict -> 16 regressor predicts, scored with evaluate.rmse.

    Models are seeded, saved and loaded back through serialize during set-up.
    Trial 0 is decoded in the warm-up and again as op 0, and every later repeat of
    a trial is compared too: inference must be bitwise repeatable.
    """

    name = "decode"

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.cfg = cfg = _config(seed, size)
        self.options = pipeline.preprocess_options(cfg)
        fit_trials = [_make_trial(rng, i, size.trial_duration_s)
                      for i, rng in enumerate(_trial_rngs(seed, "decode-fit", size.decode_fit_trials))]
        seqs = {t.id: _stat_features(t, cfg) for t in fit_trials}
        kpca = pipeline.fit_kpca_models(seqs, {t.id: t.subject for t in fit_trials}, list(seqs), cfg)
        reduced = [pipeline.reduce_features(seqs[t.id], t.subject, kpca, cfg) for t in fit_trials]
        grid = pipeline.audio_grid(cfg)
        targets = [acoustic.extract_acoustic_set(pipeline.audio_at_rate(t, cfg), grid) for t in fit_trials]
        in_scaler = pipeline.Scaler.fit(np.vstack(reduced))

        models_dir = workdir / "models"
        models_dir.mkdir()
        for key, model in kpca.items():
            eeg.save_kpca(model, models_dir / f"{key}.kpca")
        nn.build_synthesis_model(
            seed=stage_seed(seed, "synthesis-init"),
            filters=(cfg.synth_filters1, cfg.synth_filters2),
            kernel_size=cfg.synth_kernel, dropout_rate=cfg.dropout,
        ).save(models_dir / "synthesis.ckpt")
        for kind in acoustic.FEATURE_ORDER:
            out_scaler = pipeline.Scaler.fit(np.vstack([a.features[kind].values for a in targets]))
            model = nn.build_regression_model(
                out_dim=acoustic.FEATURE_DIMS[kind], seed=stage_seed(seed, f"regress-init-{kind}"),
                hidden=cfg.gru_hidden, in_dim=cfg.kpca_out_dim, dropout_rate=cfg.dropout,
            )
            pipeline.RegressorBundle(kind, model, in_scaler, out_scaler).save(
                models_dir / f"regress_{kind}.ckpt")

        self.kpca = {key: eeg.load_kpca(models_dir / f"{key}.kpca") for key in kpca}
        self.synth = nn.load_model(models_dir / "synthesis.ckpt")
        self.bundles = {kind: pipeline.RegressorBundle.load(models_dir / f"regress_{kind}.ckpt")
                        for kind in acoustic.FEATURE_ORDER}

        trials_dir = workdir / "heldout"
        trials_dir.mkdir()
        # The same ladder of lengths for every seed, in a seed-dependent order, so
        # that the latency distribution does not depend on the seed.
        lo, hi = size.decode_durations_s
        durations = np.round(np.linspace(lo, hi, size.decode_pool), 2)
        rngs = _trial_rngs(seed, self.name, size.decode_pool + 1)
        durations = durations[rngs[-1].permutation(size.decode_pool)]
        refs = []
        for i, (rng, duration) in enumerate(zip(rngs, durations)):
            trial = _make_trial(rng, i, float(duration))
            ref = dataio.TrialRef(trial.id, trial.subject, trial.condition,
                                  f"{trial.id}.{cfg.eeg_format}", f"{trial.id}.wav")
            dataio.write_eeg(trials_dir / ref.eeg_path, trial.eeg)
            dataio.write_wav(trials_dir / ref.wav_path, trial.audio)
            refs.append(ref)
        self.manifest = dataio.DatasetManifest(trials_dir, refs)
        self.cycle = len(refs)
        self.digests: dict[str, str] = {}
        self.op(0)

    def op(self, i):
        cfg = self.cfg
        ref = self.manifest.trials[i % len(self.manifest.trials)]
        trial = self.manifest.load_trial(ref)
        clean = eeg.preprocess_eeg(trial.eeg, self.options)
        seq = eeg.extract_stat_features(clean, pipeline.eeg_grid(cfg))
        reduced = pipeline.reduce_features(seq, ref.subject, self.kpca, cfg)
        wave = self.synth.predict(clean.data.T.astype(np.float32)[None, ...])[0, :, 0]
        feats = [self.bundles[kind].predict(reduced) for kind in acoustic.FEATURE_ORDER]
        target = pipeline.audio_at_rate(trial, cfg)
        n = min(len(wave), len(target))
        score = evaluate.rmse(wave[:n], target[:n])

        problems = []
        if len(wave) != 15 * clean.n_samples or not _finite(wave):
            problems.append(f"decode {ref.id}: {len(wave)} samples for {clean.n_samples} EEG steps")
        for kind, f in zip(acoustic.FEATURE_ORDER, feats):
            if f.shape != (seq.n_frames, acoustic.FEATURE_DIMS[kind]) or not _finite(f):
                problems.append(f"decode {ref.id}: {kind} output {f.shape} bad")
        digest = hashlib.sha256(wave.tobytes() + b"".join(f.tobytes() for f in feats)).hexdigest()
        if self.digests.setdefault(ref.id, digest) != digest:
            problems.append(f"decode {ref.id}: second decode differs from the first")
        if not np.isfinite(score):
            problems.append(f"decode {ref.id}: rmse {score}")
        return trial.eeg.duration_s, problems


WORKLOADS = {w.name: w for w in (SynthTrain, RegressTrain, Prep, Decode)}
