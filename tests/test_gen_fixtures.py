"""scripts/gen_fixtures.py regenerates every bundled fixture unchanged."""

import importlib.util
import os
import pathlib
import subprocess
import sys
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


def test_base_point_draw_ends_on_a_non_cyclic_sylow_subgroup():
    # y^2 = x^3 + 33x + 36 over F_61 has #E = 72 and group Z/24 x Z/3, so
    # 24*P = O for every P and no draw gives a point of order 3
    code = ("import random, runpy; from hyhlab import curve; "
            f"runpy.run_path({str(SCRIPT)!r})['base_point_of_order']("
            "curve.CurveParams(61, 33, 36, None, 1, 1), 3, 72, random.Random(0))")
    src = SCRIPT.parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stderr.splitlines()[-1] == (
        "hyhlab.curve.SearchBudgetExceeded: no point of order 3 found in 4096 tries")
