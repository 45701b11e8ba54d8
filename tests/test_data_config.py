import numpy as np
import pytest

from cgsphere.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from cgsphere.data import (
    class_templates,
    dataset_coefficients,
    generate_split,
    read_dataset,
    write_dataset,
)
from cgsphere.network import ActivationType

import oracles


# --- config ---

def test_defaults_round_trip():
    cfg = ExperimentConfig()
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_non_default_round_trip():
    cfg = ExperimentConfig(bandlimit=3, grid_bandwidth=4, tau="rule:12",
                           lr=1e-3, regime="NR/NR", steps=17)
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("bandlimit = 3\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("bandlimit = soup\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("bandlimt = 3\n")


def test_key_set_twice_rejected_naming_both_lines():
    text = "bandlimit = 3\ntrain_per_class = 8\n# again\ntrain_per_class = 0\n"
    with pytest.raises(ConfigError, match=r"line 4: key 'train_per_class' "
                       r"is already set on line 2"):
        parse_config(text)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# hello\n\nbandlimit = 4  # inline\n")
    assert cfg.bandlimit == 4


def test_validation_rules():
    with pytest.raises(ConfigError):
        ExperimentConfig(bandlimit=8, grid_bandwidth=8)
    with pytest.raises(ConfigError):
        ExperimentConfig(layers=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(classes=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(regime="sideways")
    with pytest.raises(ConfigError, match="unknown key 'pair_policy'"):
        parse_config("pair_policy = unordered\n")
    for name in ("train_per_class", "test_per_class"):
        with pytest.raises(ConfigError, match=f"{name} must be at least 1"):
            ExperimentConfig(**{name: 0})
    with pytest.raises(ConfigError, match="tau"):
        ExperimentConfig(tau="rule:x")
    with pytest.raises(ConfigError, match="tau"):
        ExperimentConfig(tau="-1")
    with pytest.raises(ConfigError, match="tau"):
        parse_config("tau = 4,4\n")
    with pytest.raises(ConfigError, match="bandlimit must lie in 0..64"):
        ExperimentConfig(bandlimit=-1)
    with pytest.raises(ConfigError, match="hidden"):
        ExperimentConfig(hidden=0)
    with pytest.raises(ConfigError, match="batch_size"):
        ExperimentConfig(batch_size=0)
    with pytest.raises(ConfigError, match="unknown key 'n_in'"):
        parse_config("n_in = 2\n")
    with pytest.raises(ConfigError, match="bandlimit must lie in 0..64"):
        ExperimentConfig(bandlimit=65, grid_bandwidth=66)
    with pytest.raises(ConfigError, match="steps must be at least 0, got -7"):
        parse_config("steps = -7\n")
    assert parse_config("steps = 0\n").steps == 0


def test_tau_vector_forms():
    assert ExperimentConfig(tau="4").tau_vector() == ActivationType((4,) * 6)
    assert ExperimentConfig(bandlimit=2, tau="5,3,1").tau_vector() == \
        ActivationType((5, 3, 1))
    rule = ExperimentConfig(tau="rule:12").tau_vector()
    assert rule.tau[0] == 12 and rule.tau[5] > 0
    with pytest.raises(ConfigError):
        ExperimentConfig(bandlimit=2, tau="1,2").tau_vector()


def test_network_spec_shape():
    cfg = ExperimentConfig(bandlimit=3, grid_bandwidth=4, layers=3, tau="4")
    spec = cfg.network_spec()
    assert spec.n_layers == 3
    assert spec.layer_types[0].tau == (4, 4, 4, 4)
    assert spec.layer_types[-1].tau == (4, 0, 0, 0)


def test_regime_flags():
    assert not ExperimentConfig(regime="NR/NR").train_rotated()
    assert not ExperimentConfig(regime="NR/NR").test_rotated()
    assert not ExperimentConfig(regime="NR/R").train_rotated()
    assert ExperimentConfig(regime="NR/R").test_rotated()
    assert ExperimentConfig(regime="R/R").train_rotated()


def test_load_config(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("bandlimit = 2\ngrid_bandwidth = 4\n")
    assert load_config(p).bandlimit == 2


# --- data generation ---

def small_cfg(**kw):
    base = dict(bandlimit=2, grid_bandwidth=4, classes=3, noise_sigma=0.2)
    base.update(kw)
    return ExperimentConfig(**base)


def test_templates_deterministic_and_distinct():
    a = class_templates(3, 2, seed=1)
    b = class_templates(3, 2, seed=1)
    for t1, t2 in zip(a, b):
        for x, y in zip(t1.blocks, t2.blocks):
            np.testing.assert_array_equal(x, y)
    assert not np.allclose(a[0].blocks[1], a[1].blocks[1])


def test_generate_split_balanced_and_deterministic():
    cfg = small_cfg()
    d1 = generate_split(cfg, per_class=4, rotated=False, seed=7)
    d2 = generate_split(cfg, per_class=4, rotated=False, seed=7)
    assert len(d1) == 12
    assert np.bincount(d1.labels).tolist() == [4, 4, 4]
    np.testing.assert_array_equal(d1.signal.samples, d2.signal.samples)


def test_rotated_and_unrotated_share_underlying_examples():
    cfg = small_cfg()
    nr = generate_split(cfg, per_class=2, rotated=False, seed=7)
    r = generate_split(cfg, per_class=2, rotated=True, seed=7)
    # rotation preserves each example's total power
    np.testing.assert_allclose(oracles.grid_energy(nr.signal),
                               oracles.grid_energy(r.signal),
                               rtol=1e-9)
    assert not np.allclose(nr.signal.samples, r.signal.samples)


# gen-highband's split and the desk config, at the sizes bench/prep.py uses
GEN_CONFIGS = {
    "highband": "bandlimit = 16\ngrid_bandwidth = 32\nclasses = 4\n"
                "train_per_class = 2\n",
    "desk": "bandlimit = 5\ngrid_bandwidth = 8\nclasses = 4\n"
            "train_per_class = 25\n",
}


@pytest.mark.parametrize("name", sorted(GEN_CONFIGS))
@pytest.mark.parametrize("rotated", [True, False])
def test_generate_split_matches_per_example_loop_byte_for_byte(name, rotated):
    cfg = parse_config(GEN_CONFIGS[name])
    for seed in (0, 1, 12345):
        got = generate_split(cfg, cfg.train_per_class, rotated, seed)
        want = oracles.generate_split_per_example(cfg, cfg.train_per_class,
                                                  rotated, seed)
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.signal.samples.tobytes() == want.signal.samples.tobytes()


def test_noise_scale_respected():
    quiet = small_cfg(noise_sigma=0.0)
    d1 = generate_split(quiet, per_class=2, rotated=False, seed=1)
    d2 = generate_split(quiet, per_class=2, rotated=False, seed=2)
    # zero noise: only the templates remain, so different seeds agree
    np.testing.assert_allclose(d1.signal.samples, d2.signal.samples,
                               atol=1e-12)


def test_dataset_coefficients_shapes():
    cfg = small_cfg()
    d = generate_split(cfg, per_class=2, rotated=False, seed=3)
    coeffs = dataset_coefficients(d, cfg.bandlimit)
    assert coeffs.bandlimit == 2
    assert coeffs.blocks[2].shape == (5, 6)


def test_dataset_io_round_trip(tmp_path):
    cfg = small_cfg()
    d = generate_split(cfg, per_class=2, rotated=True, seed=3)
    write_dataset(tmp_path / "train", d)
    back = read_dataset(tmp_path / "train")
    np.testing.assert_array_equal(back.labels, d.labels)
    np.testing.assert_array_equal(back.signal.samples, d.signal.samples)


def test_dataset_io_label_mismatch(tmp_path):
    cfg = small_cfg()
    d = generate_split(cfg, per_class=2, rotated=False, seed=3)
    write_dataset(tmp_path / "train", d)
    (tmp_path / "train.labels").write_text("0\n1\n")
    with pytest.raises(ValueError):
        read_dataset(tmp_path / "train")
