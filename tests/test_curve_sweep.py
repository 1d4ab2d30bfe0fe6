"""scripts/curve_sweep.py on its default list of random honest curves:
``demo all`` prints its table on every curve at seeds 0 and 1, every paper
row it stages lands, and no strict row lands but a nonce-reuse whose two
texts share a keystream."""

import importlib.util
import os
import pathlib
import subprocess
import sys

from hyhlab import fixtures

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "curve_sweep.py"
_spec = importlib.util.spec_from_file_location("curve_sweep", SCRIPT)
curve_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(curve_sweep)


def test_duality_holds_on_random_honest_curves(capsys):
    rc = curve_sweep.main([])
    assert capsys.readouterr().out.splitlines() == [
        "0 problems on 52 curves at seeds (0, 1)"]
    assert rc == 0


def test_draw_ends_on_a_non_cyclic_sylow_subgroup():
    # the 103rd draw below q = 100 is F61_N3, where (#E/n)*P = O for every
    # P, so a draw that retries P until G != O would never end there
    src = SCRIPT.parent.parent / "src"
    code = f"import runpy; print(len(runpy.run_path({str(SCRIPT)!r})['random_curves'](103, 5, 100)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["103"], out.stderr


def test_strict_landing_explained_by_a_shared_session_key():
    # on params_f23_n7, seed 11's two fresh ephemerals give x(d_B*R1) =
    # x(d_B*R2), and strict nonce-reuse lands; at seed 0 they do not
    params = fixtures.load(fixtures.F23_N7)
    assert curve_sweep.problems(params, 11) == []
    assert [curve_sweep.strict_keys_share_x(params, seed) for seed in (0, 11)] == [
        False, True]
