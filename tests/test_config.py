import dataclasses
import hashlib
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegspeech import dataio, eeg, nn
from eegspeech.config import (
    _SCHEMA,
    FIELD_TYPES,
    RunConfig,
    config_hash,
    parse_config,
    render_config,
    stage_seed,
    validate_config,
)
from eegspeech.errors import ConfigError


# render_config(RunConfig()), byte for byte: the keys, their order and the value formats.
STOCK_RENDER = """\
[paths]
data_root = data
out_dir = out

[run]
seed = 0

[dataset]
n_trials = 50
duration_s = 2.0
train_ratio = 0.8
val_ratio = 0.1
test_ratio = 0.1
eeg_format = csv

[preprocess]
bandpass_lo_hz = 0.1
bandpass_hi_hz = 70.0
bandpass_order = 4
notch_hz = 60.0
notch_q = 30.0
use_ica = false
ica_kurtosis_threshold = 8.0

[features]
frame_rate_hz = 31.0

[kpca]
out_dim = 30
degree = 3
gamma = auto
coef0 = 1.0
scope = per-subject
max_train_frames = 4000

[synthesis]
filters1 = 256
filters2 = 32
kernel_size = 3
epochs = 5000

[regression]
hidden = 128
epochs = 500

[training]
batch_size = 100
learning_rate = 0.001
dropout = 0.2
"""


def _render_with(**lines) -> str:
    """STOCK_RENDER with the lines `key = value` of the given keys replaced."""
    out = []
    for line in STOCK_RENDER.splitlines(keepends=True):
        key = line.split(" = ")[0]
        out.append(f"{key} = {lines.pop(key)}\n" if key in lines else line)
    assert not lines
    return "".join(out)


class TestParseConfig:
    def test_empty_file_gives_stock_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.bandpass_lo_hz == 0.1
        assert cfg.bandpass_hi_hz == 70.0
        assert cfg.notch_hz == 60.0
        assert cfg.frame_rate_hz == 31.0
        assert cfg.kpca_out_dim == 30
        assert cfg.kpca_degree == 3
        assert cfg.synth_filters1 == 256
        assert cfg.synth_filters2 == 32
        assert cfg.gru_hidden == 128
        assert cfg.synth_epochs == 5000
        assert cfg.regress_epochs == 500
        assert cfg.batch_size == 100
        assert cfg.dropout == 0.2
        assert (cfg.train_ratio, cfg.val_ratio, cfg.test_ratio) == (0.8, 0.1, 0.1)

    def test_no_file_gives_defaults(self):
        assert parse_config(None) == RunConfig()

    def test_negative_epochs_rejected_naming_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[synthesis]\nepochs = -1\n")
        with pytest.raises(ConfigError, match="synth_epochs"):
            parse_config(path)

    @pytest.mark.parametrize("value", ["0.25", "20", "0"])
    def test_duration_outside_the_generator_range_rejected(self, tmp_path, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[dataset]\nduration_s = {value}\n")
        with pytest.raises(ConfigError, match=re.escape("duration_s must be in [0.5, 10]")):
            parse_config(path)

    # hop = round(1000 / rate): 7 at 142.86 Hz, 1 at 1000 Hz; the moving window average needs 8 samples
    @pytest.mark.parametrize("rate", ["142.86", "166.67", "1000"])
    def test_hop_under_the_moving_average_window_rejected_naming_key(self, tmp_path, rate):
        path = tmp_path / "fast.ini"
        path.write_text(f"[features]\nframe_rate_hz = {rate}\n")
        with pytest.raises(ConfigError, match=f"frame_rate_hz = {rate} gives an EEG hop of .* under the "
                                              f"{eeg.MWA_WINDOW}-sample"):
            parse_config(path)

    def test_hop_of_one_moving_average_window_accepted(self, tmp_path):
        path = tmp_path / "fast.ini"
        path.write_text("[features]\nframe_rate_hz = 125\n")
        assert parse_config(path).frame_rate_hz == 125.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[training]\nbatch_sz = 10\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[training]\nthis is not a key value pair\n")
        with pytest.raises(ConfigError, match="line"):
            parse_config(path)

    @pytest.mark.parametrize("line", ["[training]\nlearning_rate = nan", "[features]\nframe_rate_hz = inf",
                                      "[kpca]\ngamma = -inf", "[dataset]\nduration_s = 1e999"])
    def test_non_finite_number_rejected(self, tmp_path, line):
        path = tmp_path / "nonfinite.ini"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes("[paths]\nout_dir = sortie_\u00e9t\u00e9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="not UTF-8"):
            parse_config(path)

    @given(raw=st.binary(max_size=80), text=st.text(max_size=60),
           mode=st.sampled_from(["bytes", "text", "value"]))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_config_error(self, raw, text, mode, tmp_path_factory):
        path = tmp_path_factory.mktemp("config") / "fuzz.ini"
        if mode == "bytes":
            path.write_bytes(raw)
        elif mode == "text":
            path.write_text(text, encoding="utf-8")
        else:
            path.write_bytes(b"[training]\nbatch_size = " + raw + b"\n[dataset]\nduration_s = 2\n")
        try:
            parse_config(path)
        except ConfigError:
            pass

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[training]\nbatch_size = many\n")
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(path)

    def test_reparse_of_rendered_config_is_fixpoint(self, tmp_path):
        path = tmp_path / "custom.ini"
        path.write_text(
            "[preprocess]\nbandpass_hi_hz = 450\n[kpca]\nscope = pooled\ngamma = 0.01\n"
            "[training]\nlearning_rate = 0.003\n"
        )
        cfg = parse_config(path)
        echoed = tmp_path / "echo.ini"
        echoed.write_text(render_config(cfg))
        assert parse_config(echoed) == cfg
        assert config_hash(parse_config(echoed)) == config_hash(cfg)

    def test_gamma_auto(self, tmp_path):
        path = tmp_path / "g.ini"
        path.write_text("[kpca]\ngamma = auto\n")
        assert parse_config(path).kpca_gamma is None

    def test_bad_ratio_sum(self, tmp_path):
        path = tmp_path / "r.ini"
        path.write_text("[dataset]\ntrain_ratio = 0.9\n")
        with pytest.raises(ConfigError, match="ratios"):
            parse_config(path)

    # The audio rate is dataio.AUDIO_RATE_HZ, not a setting: every value is an unknown key.
    @pytest.mark.parametrize("rate", ["16000", "14999", "30000", "0", "15000"])
    def test_audio_rate_other_than_synthesis_rate_rejected(self, tmp_path, rate):
        path = tmp_path / "a.ini"
        path.write_text(f"[features]\naudio_rate_hz = {rate}\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    def test_zero_phase_key_rejected(self, tmp_path):
        path = tmp_path / "z.ini"
        path.write_text("[preprocess]\nzero_phase = true\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    @pytest.mark.parametrize("text, keys", [
        ("[DEFAULT]\nseed = 5\nbogus = 1\n", "seed, bogus"),
        ("[kpca]\ngamma = 0.5\n[DEFAULT]\nx = 1\n", "x"),
    ])
    def test_default_section_keys_rejected(self, tmp_path, text, keys):
        # configparser would drop them, or copy them into every other section
        path = tmp_path / "default.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"config keys under [DEFAULT] are not allowed: {keys}")):
            parse_config(path)

    def test_empty_default_section_is_accepted(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\n[run]\nseed = 5\n")
        assert parse_config(path).seed == 5

    @pytest.mark.parametrize("key", ["data_root", "out_dir"])
    def test_empty_path_rejected(self, tmp_path, key):
        path = tmp_path / "empty.ini"
        path.write_text(f"[paths]\n{key} =\n")
        with pytest.raises(ConfigError, match=f"{key} must not be empty"):
            parse_config(path)

    @pytest.mark.parametrize("text", ["[paths]\nout_dir = o\n  sub\n", "[paths]\ndata_root = d\n\tmore\n",
                                      "[dataset]\neeg_format = csv\n  f32\n"])
    def test_multi_line_value_rejected(self, tmp_path, text):
        # a configparser continuation line joins the value across lines
        path = tmp_path / "multi.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="must be one line"):
            parse_config(path)

    @pytest.mark.parametrize("value", ["o\nsub", "o\rsub", "o\n", " o", "o\t"])
    def test_str_setting_that_a_file_cannot_give_back_rejected(self, value):
        with pytest.raises(ConfigError, match="out_dir must be one line without surrounding whitespace"):
            validate_config(RunConfig(out_dir=value))

    @pytest.mark.parametrize("order", [201, 244, 10**12])
    def test_bandpass_order_beyond_the_design_limit_rejected(self, order):
        validate_config(RunConfig(bandpass_order=200))
        with pytest.raises(ConfigError, match=re.escape(f"band-pass order must be in [1, 200], got {order}")):
            validate_config(RunConfig(bandpass_order=order))

    def test_bandpass_design_that_overflows_rejected(self):
        cfg = RunConfig(bandpass_order=100, bandpass_lo_hz=0.001, bandpass_hi_hz=499.9)
        with pytest.raises(ConfigError, match="order 100 overflows in its design"):
            validate_config(cfg)

    @pytest.mark.parametrize("name", ["kpca_coef0", "notch_q", "kpca_gamma", "learning_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_setting_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            validate_config(dataclasses.replace(RunConfig(), **{name: value}))


_VALUES = {
    int: st.integers(-(2**63), 2**63),
    float: st.floats(),
    bool: st.booleans(),
    str: st.text(max_size=12),
}


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_render_parse_fixpoint(data, tmp_path_factory):
    """A config validate_config accepts comes back from its render as it was."""
    names = data.draw(st.lists(st.sampled_from(sorted(FIELD_TYPES)), max_size=4, unique=True))
    changes = {name: data.draw(_VALUES.get(FIELD_TYPES[name], st.none() | st.floats()), label=name)
               for name in names}
    cfg = RunConfig(**changes)
    try:
        validate_config(cfg)
    except ConfigError:
        return
    path = tmp_path_factory.mktemp("render") / "echo.ini"
    path.write_text(render_config(cfg), encoding="utf-8")
    assert parse_config(path) == cfg


def test_schema_names_each_field_once():
    names = [field_name for field_name, _ in _SCHEMA.values()]
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(RunConfig))


# Library parameters whose stock values live in RunConfig (or are stock seeds and
# generators): each call states them, so a library call cannot quietly run at
# another setting than the CLI.
REQUIRED_SETTINGS = [
    (eeg.PreprocessOptions, [f.name for f in dataclasses.fields(eeg.PreprocessOptions)]),
    (eeg.preprocess_eeg, ["options"]),
    (eeg.remove_artifact_components, ["kurtosis_threshold"]),
    (eeg.kpca_fit, ["out_dim", "degree", "gamma", "coef0"]),
    (eeg.fast_ica, ["seed"]),
    (nn.build_synthesis_model, ["seed", "filters", "kernel_size", "dropout_rate"]),
    (nn.build_regression_model, ["seed", "hidden", "in_dim", "dropout_rate"]),
    (nn.Dropout, ["rate", "seed"]),
    (nn.TcnBlock, ["kernel_size", "rng"]),
    (nn.TimeDistributedDense, ["rng"]),
    (nn.GruLayer, ["rng"]),
    (nn.TrainConfig, ["batch_size", "learning_rate", "seed"]),
    (nn.Adam, ["lr"]),
    (dataio.generate_synthetic_dataset, ["duration_s", "seed", "out_dir", "eeg_format"]),
    (dataio.make_split, ["ratios", "seed"]),
]


@pytest.mark.parametrize("owner, name", [(owner, name) for owner, names in REQUIRED_SETTINGS for name in names],
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_library_setting_has_no_default(owner, name):
    assert inspect.signature(owner).parameters[name].default is inspect.Parameter.empty


class TestRenderConfig:
    def test_stock_render(self):
        assert render_config(RunConfig()) == STOCK_RENDER

    def test_non_stock_render(self):
        cfg = RunConfig(data_root="/d", out_dir="o2", seed=-3, n_trials=7, duration_s=1.25, train_ratio=0.7,
                        val_ratio=0.2, eeg_format="f32", notch_hz=50, use_ica=True, kpca_gamma=0.015,
                        kpca_scope="pooled", learning_rate=3e-4, dropout=0.0)
        expected = _render_with(data_root="/d", out_dir="o2", seed="-3", n_trials="7", duration_s="1.25",
                                train_ratio="0.7", val_ratio="0.2", eeg_format="f32", notch_hz="50.0",
                                use_ica="true", gamma="0.015", scope="pooled", learning_rate="0.0003",
                                dropout="0.0")
        assert render_config(cfg) == expected
        auto = render_config(dataclasses.replace(cfg, kpca_gamma=None))
        assert auto == expected.replace("gamma = 0.015\n", "gamma = auto\n")


class TestConfigHash:
    def test_hashes_the_render_without_paths(self):
        without_paths = STOCK_RENDER.split("\n\n", 1)[1]
        assert without_paths.startswith("[run]\n")
        assert config_hash(RunConfig()) == hashlib.sha256(without_paths.encode("utf-8")).hexdigest()[:16]

    def test_paths_do_not_change_the_hash(self):
        cfg = RunConfig(seed=3)
        assert config_hash(dataclasses.replace(cfg, data_root="/a/data", out_dir="b/out")) == config_hash(cfg)
        assert config_hash(dataclasses.replace(cfg, seed=4)) != config_hash(cfg)


def test_readme_example_config_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    assert parse_config(path).seed == 7


class TestStageSeed:
    def test_deterministic_and_distinct(self):
        assert stage_seed(7, "split") == stage_seed(7, "split")
        assert stage_seed(7, "split") != stage_seed(7, "ica")
        assert stage_seed(7, "split") != stage_seed(8, "split")

    def test_non_negative_64_bit(self):
        for stage in ("split", "ica", "synthesis-init"):
            s = stage_seed(123, stage)
            assert 0 <= s < 2**63
