import dataclasses
import math

import pytest

from fermibolt.config import (
    DELTA_CANDIDATES,
    ConfigError,
    ExperimentConfig,
    format_config,
    load_config,
    parse_config,
)


def test_defaults_are_valid():
    config = ExperimentConfig().validate()
    assert config.d_v == 1
    assert config.nodes_per_axis == 64
    assert config.spatial_cells == 64
    assert config.half_width == 8.0
    assert config.kernel == "constant"
    assert config.sigma0 == 1.0
    assert config.kappa_bar == 1.0
    assert config.amplitude == 0.5
    assert config.t_final == 20.0
    assert config.dt is None
    assert config.delta == 0.01


def test_round_trip_through_text():
    config = ExperimentConfig(
        spatial_cells=32,
        nodes_per_axis=16,
        sigma0=0.75,
        amplitude=0.25,
        perturbation=1e-4,
        seed=3,
        dt=0.001,
        t_final=2.5,
        record_every=10,
        delta=0.02,
    )
    text = format_config(config)
    assert parse_config(text) == config


# a valid value other than the default for every key; the thirds need all
# 17 digits to come back
NON_DEFAULT = {
    "d_v": 2,
    "half_width": 20.0 / 3.0,
    "nodes_per_axis": 32,
    "spatial_cells": 48,
    "kernel": "gaussian_bump",
    "sigma0": 0.1 + 0.2,
    "kernel_file": "tables/sigma.txt",
    "kappa_bar": 4.0 / 3.0,
    "amplitude": 1.0 / 3.0,
    "perturbation": 1e-4,
    "seed": 3,
    "dt": 0.001,
    "cfl_safety": 2.0 / 3.0,
    "transport": "muscl2",
    "splitting": "lie",
    "t_final": 2.5,
    "record_every": 10,
    "delta": None,
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_every_key_round_trips(name):
    config = ExperimentConfig(**{name: NON_DEFAULT[name]})
    assert getattr(config, name) != getattr(ExperimentConfig(), name)
    assert parse_config(format_config(config)) == config


def test_auto_values_round_trip():
    config = ExperimentConfig(dt=None, delta=None)
    text = format_config(config)
    assert "dt = auto" in text
    assert "delta = auto" in text
    back = parse_config(text)
    assert back.dt is None
    assert back.delta is None


def test_parse_comments_and_blanks():
    config = parse_config(
        """
        # solver setup
        spatial_cells = 16   # coarse
        t_final = 1.5

        dt = auto
        """
    )
    assert config.spatial_cells == 16
    assert config.t_final == 1.5
    assert config.dt is None


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config("spatial_cells = 16\nwavelength = 3\n")
    assert "line 2" in str(err.value)
    assert "wavelength" in str(err.value)


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config("t_final = 1.0\nt_final = 2.0\n")
    assert "line 2" in str(err.value)
    assert "duplicate" in str(err.value)


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("spatial_cells = sixteen\n")
    with pytest.raises(ConfigError):
        parse_config("t_final = soon\n")
    with pytest.raises(ConfigError):
        parse_config("just some words\n")


FLOAT_KEYS = ("half_width", "sigma0", "kappa_bar", "amplitude", "perturbation",
              "cfl_safety", "t_final", "dt", "delta")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_parse_rejects_non_finite_values(key, text):
    with pytest.raises(ConfigError) as err:
        parse_config(f"spatial_cells = 16\n{key} = {text}\n")
    assert str(err.value) == f"line 2: {key!r} must be a finite number, got {text!r}"


def test_validation_fails_on_nan_and_negative_seed():
    for key in FLOAT_KEYS:
        for value in (math.nan, math.inf):
            config = dataclasses.replace(ExperimentConfig(), **{key: value})
            with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
                config.validate()
    with pytest.raises(ConfigError, match="seed must be nonnegative, got -5"):
        ExperimentConfig(seed=-5).validate()
    assert ExperimentConfig(seed=0).validate().seed == 0


def test_validation_errors():
    cases = {
        "kernel": "smooth",
        "transport": "spectral",
        "splitting": "yoshida",
        "kappa_bar": -1.0,
        "amplitude": 1.0,
        "perturbation": -0.5,
        "cfl_safety": 1.0,
        "t_final": 0.0,
        "record_every": 0,
        "dt": -0.1,
        "delta": 0.0,
        "sigma0": -2.0,
    }
    for key, value in cases.items():
        config = dataclasses.replace(ExperimentConfig(), **{key: value})
        with pytest.raises(ConfigError):
            config.validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kernel="custom_table", kernel_file="").validate()


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("spatial_cells = 8\nnodes_per_axis = 8\nt_final = 0.5\n")
    config = load_config(str(path))
    assert config.spatial_cells == 8
    assert config.t_final == 0.5


def test_delta_candidates_are_descending_and_positive():
    assert all(d > 0.0 for d in DELTA_CANDIDATES)
    assert list(DELTA_CANDIDATES) == sorted(DELTA_CANDIDATES, reverse=True)
