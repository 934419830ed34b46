import dataclasses
import json

import pytest

from qatlab.config import (
    _SECTION_TYPES,
    ExperimentConfig,
    apply_override,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    parse_override,
    resolve_config,
)
from qatlab.oscillation import ToyProblem
from qatlab.qc import QCConfig
from qatlab.training import TrainConfig


class TestValidation:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.task == "train"
        assert cfg.bits_w == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task": "frobnicate"},
            {"network": "transformer"},
            {"seeds": []},
            {"seeds": [0, "1"]},
            {"bits_w": 0},
            {"bits_a": 17},
            {"first_last_bits": 2.5},
            {"granularity": "per_row"},
            {"epochs": -1},
            {"batch": 0},
            {"lr": 0.0},
            {"dampening_lambda": -0.5},
            {"eval_mode": "int8"},
            {"ablate_kind": "dropout"},
            {"batch": [1]},
            {"lr": "fast"},
            {"dampening_lambda": "x"},
            {"seeds": [True]},
            {"bits_w": True},
            {"epochs": 1.5},
            {"pretrain_epochs": "2"},
            {"soft_round_k": "x"},
            {"seeds": 3},
            {"lr": float("nan")},
            {"dataset": {"kind": "blobs", "mode": "blobs"}},
            {"seeds": [-1]},
            {"seeds": [2**128]},
            {"seeds": [0, 1, 0]},
            {"toy": {"w_star": []}},
            {"toy": {"w_star": [float("nan")]}},
            {"toy": {"w_star": [float("inf")]}},
            {"toy": {"s_w0": 0.0}},
            {"toy": {"s_x0": 0}},
            {"runs": [1]},
            {"runs": [0.5]},
            {"runs": [None]},
            {"runs": [True]},
            {"runs": [[1]]},
            {"lr": 10**400},
            {"toy": {"w_star": [10**400]}},
        ],
    )
    def test_bad_field(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_unknown_section_keys(self):
        with pytest.raises(ValueError, match="unknown ema keys.*'decay'"):
            ExperimentConfig(ema={"decay": 0.99})
        with pytest.raises(ValueError, match="unknown dataset keys"):
            ExperimentConfig(dataset={"kind": "blobs", "samples": 10})
        with pytest.raises(ValueError, match="unknown toy keys"):
            ExperimentConfig(toy={"step": 1})

    def test_sections_are_complete(self):
        """A directly built config also merges partial sections over the
        defaults, so the sections always hold every documented key."""
        cfg = ExperimentConfig(ema={"alpha": 0.9}, qc={"lr": 0.01})
        assert cfg.ema == {"enabled": True, "alpha": 0.9, "warmup_frac": 0.01}
        assert cfg.qc["lr"] == 0.01 and cfg.qc["source"] == "ema"
        assert cfg.dataset["kind"] == "blobs"

    def test_section_keys_are_consumer_fields(self):
        """Each section accepts exactly the fields of the dataclass built
        from it; qc also takes the source key.  The dataset keys, read off
        the builders' signatures, are the fourteen documented ones."""
        def names(cls, prefix=""):
            return {f.name[len(prefix):] for f in dataclasses.fields(cls)
                    if f.name.startswith(prefix)}

        keys = {section: set(types) for section, types in _SECTION_TYPES.items()}
        assert keys["toy"] == names(ToyProblem)
        assert keys["qc"] == names(QCConfig) | {"source"}
        assert keys["ema"] == names(TrainConfig, "ema_")
        assert set(ExperimentConfig().qc) == keys["qc"]
        assert set(ExperimentConfig().ema) == keys["ema"]
        assert keys["dataset"] == {
            "kind", "seed", "n", "dim", "classes", "noise", "separation", "teacher",
            "eval_fraction", "calib_fraction", "path", "labels_path", "target", "task",
        }

    def test_section_must_be_object(self):
        with pytest.raises(ValueError, match="qc must be an object"):
            ExperimentConfig(qc=[1, 2])

    def test_bad_section_values(self):
        with pytest.raises(ValueError, match="ema.alpha"):
            ExperimentConfig(ema={"alpha": 1.0})
        with pytest.raises(ValueError, match="ema.alpha"):
            ExperimentConfig(ema={"alpha": "x"})
        with pytest.raises(ValueError, match="qc.source"):
            ExperimentConfig(qc={"source": "checkpoint"})
        with pytest.raises(ValueError, match="dataset.kind"):
            ExperimentConfig(dataset={"kind": "video"})


class TestFromDict:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown config keys.*'leraning_rate'"):
            config_from_dict({"leraning_rate": 0.1})

    def test_section_merges_over_defaults(self):
        """A partial section dict keeps the other documented defaults."""
        cfg = config_from_dict({"ema": {"alpha": 0.99}})
        assert cfg.ema["alpha"] == 0.99
        assert cfg.ema["enabled"] is True
        assert cfg.ema["warmup_frac"] == 0.01

    def test_plain_fields_pass_through(self):
        cfg = config_from_dict({"bits_w": 3, "seeds": [7, 8]})
        assert cfg.bits_w == 3 and cfg.seeds == [7, 8]


class TestOverrides:
    def test_parse_json_value(self):
        assert parse_override("lr=0.01") == ("lr", 0.01)
        assert parse_override("seeds=[1,2]") == ("seeds", [1, 2])
        assert parse_override("ema.enabled=false") == ("ema.enabled", False)

    def test_parse_string_fallback(self):
        assert parse_override("checkpoint=runs/a.qat") == ("checkpoint", "runs/a.qat")

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_override("no_equals_sign")
        with pytest.raises(ValueError):
            parse_override("=5")

    def test_apply_dotted(self):
        data = {}
        apply_override(data, "ema.alpha", 0.9)
        apply_override(data, "lr", 0.5)
        assert data == {"ema": {"alpha": 0.9}, "lr": 0.5}

    def test_apply_through_scalar_fails(self):
        with pytest.raises(ValueError, match="non-object"):
            apply_override({"lr": 0.5}, "lr.nested", 1)


class TestResolve:
    def test_file_plus_overrides(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({"bits_w": 2, "ema": {"alpha": 0.9}}))
        cfg = resolve_config(p, ["bits_w=3", "ema.warmup_frac=0.05"], forced_task="toy")
        assert cfg.task == "toy"
        assert cfg.bits_w == 3  # override wins over the file
        assert cfg.ema["alpha"] == 0.9
        assert cfg.ema["warmup_frac"] == 0.05

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(p)

    def test_non_object_json(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1,2,3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config(p)


class TestHash:
    def test_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        assert config_hash(a) == config_hash(b)
        c = ExperimentConfig(bits_w=5)
        assert config_hash(a) != config_hash(c)

    def test_roundtrip_dict(self):
        cfg = ExperimentConfig(seeds=[3], dampening_lambda=0.1)
        again = config_from_dict(config_to_dict(cfg))
        assert config_hash(cfg) == config_hash(again)
