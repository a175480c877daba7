import numpy as np
import pytest

from jsde_lab.config import (DEFAULT_SEED, describe_keys, parse_config,
                             resolve_seed)
from jsde_lab.errors import ConfigError, UsageError


def test_pure_defaults():
    cfg = parse_config()
    assert cfg["scheme.h"] == 2.0 ** -8
    assert cfg["experiment.T"] == 1.0
    assert cfg["experiment.N"] == 1000
    assert cfg["experiment.steps"] == (2.0 ** -4, 2.0 ** -5, 2.0 ** -6,
                                       2.0 ** -7, 2.0 ** -8, 2.0 ** -9)
    assert cfg["experiment.radii"] == (10.0, 50.0, 250.0)
    assert cfg["model.u3"] == ()
    assert cfg["scheme.taming"] == "off"
    assert cfg.model() is None


def test_file_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment\n"
        "[model]\n"
        "preset = example_31\n"
        "\n"
        "[noise]\n"
        "seed = 7\n"
        "\n"
        "[experiment]\n"
        "kind = explosion\n"
        "N = 50   # inline comment\n"
    )
    cfg = parse_config(str(p), overrides=["noise.seed=42", "scheme.h=2^-6"])
    assert cfg["noise.seed"] == 42
    assert cfg["scheme.h"] == 2.0 ** -6
    assert cfg["experiment.N"] == 50
    assert cfg["experiment.kind"] == "explosion"
    assert cfg.model().label == "example_31"
    assert cfg.sources["noise.seed"] == "override"
    assert cfg.sources["experiment.kind"] == "file"
    assert cfg.sources["experiment.T"] == "default"


def test_inline_model():
    cfg = parse_config(None, overrides=[
        "model.b=-x",
        "model.sigma=sqrt(abs(x))",
        "model.c1=sqrt(abs(x))+0*u",
        "model.nu1=lebesgue(-1, 1)",
        "model.label=toy",
    ])
    m = cfg.model()
    assert m.label == "toy"
    assert np.allclose(m.b(np.array([2.0, -1.0])), [-2.0, 1.0])
    assert m.nu1.total_mass == pytest.approx(2.0)
    assert m.c2 is None and m.nu2 is None


def test_atoms_measure_and_bands():
    cfg = parse_config(None, overrides=[
        "model.b=-x", "model.sigma=x",
        "model.c2=x*u", "model.nu2=atoms(1:0.5, 2:0.25)",
        "model.u3=1.5:3",
    ])
    m = cfg.model()
    assert m.nu2.total_mass == pytest.approx(0.75)
    assert len(m.u3) == 1
    assert m.nu2.restricted(m.u3).total_mass == pytest.approx(0.25)


def test_u3_full_and_empty():
    base = ["model.b=-x", "model.sigma=x", "model.c2=x*u",
            "model.nu2=lebesgue(1,2)"]
    assert parse_config(None, base + ["model.u3=empty"]).model().u3 == ()
    assert parse_config(None, base + ["model.u3=full"]).model().u3 is None


@pytest.mark.parametrize("overrides, fragment", [
    (["modle.name=x"], 'unknown section "modle"'),
    (["model.nmae=x"], 'unknown key "model.nmae"'),
    (["experiment.N=ten"], "experiment.N"),
    (["experiment.N=2.5"], "not an integer"),
    (["scheme.taming=soft"], "expected one of"),
    (["experiment.kind=blowup"], "expected one of"),
    (["model.nu1=gauss(0,1)"], "expected lebesgue"),
    (["noise.seed"], "must look like"),
    (["scheme.h=banana"], "scheme.h"),
    (["model.nu1=lebesgue(2, 1)"], "empty density piece"),
])
def test_bad_values_and_keys(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(None, overrides=overrides)


@pytest.mark.parametrize("overrides, fragment", [
    (["model.preset=example_31", "model.b=-x"], "mutually exclusive"),
    (["model.b=-x"], "needs model.sigma"),
    (["model.b=-x", "model.sigma=x", "model.c1=x*u"], "must be set together"),
    (["model.b=-x", "model.sigma=x", "model.u3=0:1"], "needs model.nu2"),
])
def test_inconsistent_model(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(None, overrides=overrides).model()


def test_unknown_key_suggests_nearest():
    with pytest.raises(ConfigError, match="did you mean"):
        parse_config(None, overrides=["model.presett=x"])


def test_parse_error_reports_line_and_column(tmp_path):
    p = tmp_path / "broken.cfg"
    p.write_text("[model]\npreset example_31\n")
    with pytest.raises(ConfigError, match="line 2, column"):
        parse_config(str(p))


def test_key_before_section(tmp_path):
    p = tmp_path / "headless.cfg"
    p.write_text("preset = example_31\n")
    with pytest.raises(ConfigError, match="line 1.*section"):
        parse_config(str(p))


def test_duplicate_key(tmp_path):
    p = tmp_path / "dup.cfg"
    p.write_text("[noise]\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(str(p))


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/swallow.cfg")


def test_seed_precedence(monkeypatch):
    monkeypatch.delenv("JSDE_LAB_SEED", raising=False)
    assert resolve_seed(None, None) == DEFAULT_SEED == 1729
    monkeypatch.setenv("JSDE_LAB_SEED", "99")
    assert resolve_seed(None, None) == 99
    assert resolve_seed(None, 7) == 7
    assert resolve_seed(3, 7) == 3
    monkeypatch.setenv("JSDE_LAB_SEED", "pear")
    with pytest.raises(UsageError, match="JSDE_LAB_SEED"):
        resolve_seed(None, None)


def test_describe_keys_lists_schema():
    text = describe_keys()
    for key in ("scheme.h", "experiment.N", "analysis.modulus"):
        assert key in text
