"""scripts/gen_fixtures.py regenerates every bundled fixture unchanged."""

import importlib.util
import pathlib
from importlib import resources

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
