import pytest

from eegspeech.config import (
    RunConfig,
    config_hash,
    parse_config,
    render_config,
    stage_seed,
)
from eegspeech.errors import ConfigError


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

    @pytest.mark.parametrize("rate", ["16000", "14999", "30000", "0"])
    def test_audio_rate_other_than_synthesis_rate_rejected(self, tmp_path, rate):
        path = tmp_path / "a.ini"
        path.write_text(f"[features]\naudio_rate_hz = {rate}\n")
        with pytest.raises(ConfigError, match="audio_rate_hz must be 15000"):
            parse_config(path)


class TestStageSeed:
    def test_deterministic_and_distinct(self):
        assert stage_seed(7, "split") == stage_seed(7, "split")
        assert stage_seed(7, "split") != stage_seed(7, "ica")
        assert stage_seed(7, "split") != stage_seed(8, "split")

    def test_non_negative_64_bit(self):
        for stage in ("split", "ica", "synthesis-init"):
            s = stage_seed(123, stage)
            assert 0 <= s < 2**63
