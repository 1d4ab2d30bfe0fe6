"""scripts/gen_fixtures.py regenerates every bundled fixture unchanged."""

import importlib.util
import pathlib
from importlib import resources

import pytest

from hyhlab import fixtures
from hyhlab.curve import CurveParams

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "gen_fixtures.py"


def test_generators_reproduce_bundled_fixtures():
    spec = importlib.util.spec_from_file_location("gen_fixtures", SCRIPT)
    gen_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_fixtures)
    generated = gen_fixtures.generate()
    bundled = {path.name: path.read_text()
               for path in (resources.files("hyhlab") / "fixtures").iterdir()
               if path.name.endswith(".json")}
    assert {f"{name}.json" for name in generated} == set(bundled)
    for name, params in generated.items():
        assert gen_fixtures.render(params) == bundled[f"{name}.json"], name


def test_base_point_o_is_not_written():
    # a params file has no spelling of G = O
    with pytest.raises(ValueError, match="cannot serialize params with G = O"):
        fixtures.params_to_dict(CurveParams(q=23, a=1, b=1, G=None, n=28, h=1))
