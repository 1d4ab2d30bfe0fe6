"""Access to the bundled parameter files.

One known-good set per working size, plus one deliberately broken set per
validator check that can be broken on its own. All files use the same JSON
shape the CLI accepts: {"q","a","b","Gx","Gy","n","h"} as lowercase hex.
"""

import json
import os

from .curve import CurveParams
from .hyh import int_from_hex

GOOD = "params_good"            # q near 2^20, passes every check
TOY16 = "params_toy16"          # q near 2^16, passes every check
F23_N7 = "params_f23_n7"        # 28-point curve over F_23, order-7 subgroup
COMPOSITE_N = "params_composite_n"
SMALL_N = "params_small_n"
MOV = "params_mov"
N_EQ_Q = "params_n_eq_q"
SUPERSINGULAR = "params_supersingular"
SECP160R1 = "params_secp160r1"


def params_from_dict(obj: dict) -> CurveParams:
    try:
        fields = {k: int_from_hex(obj[k])
                  for k in ("q", "a", "b", "Gx", "Gy", "n", "h")}
    except KeyError as exc:
        raise ValueError(f"params file missing field {exc}") from None
    except ValueError:
        raise ValueError("params fields must be lowercase hex strings") from None
    return CurveParams(q=fields["q"], a=fields["a"], b=fields["b"],
                       G=(fields["Gx"], fields["Gy"]),
                       n=fields["n"], h=fields["h"])


def params_to_dict(params: CurveParams) -> dict:
    if params.G is None:
        raise ValueError("cannot serialize params with G = O")
    return {
        "q": f"{params.q:x}", "a": f"{params.a:x}", "b": f"{params.b:x}",
        "Gx": f"{params.G[0]:x}", "Gy": f"{params.G[1]:x}",
        "n": f"{params.n:x}", "h": f"{params.h:x}",
    }


def fixture_text(name: str) -> str:
    path = os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.json")
    with open(path, encoding="utf-8") as f:
        return f.read()


def load(name: str) -> CurveParams:
    return params_from_dict(json.loads(fixture_text(name)))
