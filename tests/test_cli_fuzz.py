"""Mutated wire files never crash the CLI. Each example takes valid params,
key and signcrypted-text files on params_f23_n7, drops, retypes or
rewrites fields of one of them, and runs every command that reads them:
each ends in exit 0, 1 or 2, never a traceback.

The example count is half the Hypothesis profile's: 50 in Tier-1, 500
under ``HYHLAB_HYPOTHESIS_PROFILE=ci`` (tests/conftest.py)."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hyhlab import cli, fixtures, hyh
from hyhlab.hyh import PAPER, STRICT, SchemeConfig

# q = 23 and n = 7: every mutated params file stays at toy size, so no
# example counts points near curve.DEFAULT_COUNT_BOUND
PARAMS = fixtures.load(fixtures.F23_N7)
_CONFIG = SchemeConfig(params=PARAMS)
ALICE = hyh.keypair_from_secret(_CONFIG, 3)
BOB = hyh.keypair_from_secret(_CONFIG, 5)
MESSAGE = b"fuzzed"
R = 1  # the leaked ephemeral scalar of SCT
SCT = hyh.signcrypt(_CONFIG, ALICE.d, BOB.U, MESSAGE, forced_r=R)

WIRE_FILES = {
    "params.json": fixtures.params_to_dict(PARAMS),
    "alice.key": {"d": f"{ALICE.d:x}"},
    "alice.pub": hyh.point_to_hex(ALICE.U, "U"),
    "bob.key": {"d": f"{BOB.d:x}"},
    "bob.pub": hyh.point_to_hex(BOB.U, "U"),
    "sct.json": hyh.sct_to_dict(SCT),
}
COMMANDS = {
    "unsigncrypt": ["unsigncrypt", "--key", "bob.key", "--peer", "alice.pub",
                    "--in", "sct.json"],
    "verify": ["verify", "--peer", "alice.pub", "--in", "sct.json",
               "--message", "message.bin"],
    "signcrypt": ["signcrypt", "--key", "alice.key", "--peer", "bob.pub",
                  "--in", "message.bin"],
    "params validate": ["params", "validate"],
    "attack ephemeral": ["attack", "ephemeral", "--sct", "sct.json", "--r", f"{R:x}",
                         "--sender-pub", "alice.pub", "--recipient-pub", "bob.pub"],
}

# spellings that int_from_hex refuses, of which int(text, 16) takes all but
# the first three ("\u0661" is an Arabic-Indic one); and, for C, spellings
# that bytes_from_hex refuses
INT_REFUSED = ["", "inf", "INF", "0x1f", " 1f", "1f ", "1f\n", "-1", "+1", "1_0",
               "7F", "\u0661"]
BYTES_REFUSED = ["0", "0 0", " 00", "0x00", "7F"]
_RETYPED = st.one_of(st.integers(-2**70, 2**70), st.none(), st.booleans(),
                     st.floats(allow_nan=False), st.lists(st.integers(0, 9), max_size=2),
                     st.dictionaries(st.just("x"), st.integers(0, 9), max_size=1))
_HEX_TEXT = st.text("0123456789abcdefABCDEFx _-+inf\n", max_size=8)


def _values(bound: int):
    return st.one_of(st.integers(0, bound).map("{:x}".format),
                     st.sampled_from(INT_REFUSED + BYTES_REFUSED), _HEX_TEXT, _RETYPED)


# what a mutated field may hold: params fields stay below 2^12, the others
# reach past n and q
_PARAMS_VALUES, _VALUES = _values(2**12), _values(2**200)
_NAMES = st.sampled_from(sorted(WIRE_FILES))
_KEYS = {name: st.sampled_from(sorted({*fields, "Rx", "Ry", "Ux", "Uy", "d", "C", "s"}))
         for name, fields in WIRE_FILES.items()}
_GONE = {name: st.sets(st.sampled_from(sorted(fields)))
         for name, fields in WIRE_FILES.items()}
_NOT_OBJECTS = st.one_of(st.lists(st.integers(), max_size=2), st.integers(),
                         st.text(max_size=4), st.none())


@st.composite
def mutations(draw):
    """(file name, its mutated content): some fields dropped, some rewritten,
    or the whole object replaced by another JSON value."""
    name = draw(_NAMES)
    if draw(st.integers(0, 15)) == 0:
        return name, draw(_NOT_OBJECTS)
    gone = draw(_GONE[name])
    values = _PARAMS_VALUES if name == "params.json" else _VALUES
    edits = draw(st.dictionaries(_KEYS[name], values, max_size=3))
    return name, {k: v for k, v in WIRE_FILES[name].items() if k not in gone} | edits


@pytest.fixture(scope="module")
def wire_dir(tmp_path_factory):
    """A directory of the valid files, which each test leaves as it found it."""
    path = tmp_path_factory.mktemp("wire")
    (path / "message.bin").write_bytes(MESSAGE)
    for name, content in WIRE_FILES.items():
        (path / name).write_text(json.dumps(content))
    return path


def _run(wire_dir, mode: str, command: list[str]) -> int:
    argv = ["--params", "params.json", "--mode", mode, *command]
    return cli.main([str(wire_dir / arg) if arg in WIRE_FILES or arg == "message.bin"
                     else arg for arg in argv])


def test_unmutated_files_run(wire_dir):
    # the base files are valid, so each mutation is of a working run
    codes = {(mode, name): _run(wire_dir, mode, command)
             for mode in (PAPER, STRICT) for name, command in COMMANDS.items()}
    # params_f23_n7's n = 7 fails the validator's n > 4*sqrt(q) check
    assert codes == {key: 1 if key[1] == "params validate" else 0 for key in codes}


def _edit(name: str, **fields) -> tuple[str, dict]:
    return name, WIRE_FILES[name] | fields


def _examples(*mutations):
    """Run each mutation in paper and strict mode before the drawn ones."""
    def decorate(test):
        for mutation in mutations:
            for mode in (PAPER, STRICT):
                test = example(mutation=mutation, mode=mode)(test)
        return test
    return decorate


@settings(max_examples=settings.default.max_examples // 2, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=mutations(), mode=st.sampled_from([PAPER, STRICT]))
@_examples(*(_edit("sct.json", s=text) for text in INT_REFUSED),
           *(_edit("sct.json", C=text) for text in BYTES_REFUSED))
# O as "inf", out-of-range scalars, and a JSON value that is no object
@_examples(_edit("sct.json", Ry="inf"), _edit("alice.pub", Uy="inf"),
           _edit("bob.pub", Uy="inf"), _edit("params.json", Gy="inf"),
           _edit("alice.key", d=f"{PARAMS.n:x}"), _edit("sct.json", s=f"{2**200:x}"),
           _edit("sct.json", Rx=f"{2**200:x}"), _edit("params.json", n="1"),
           ("bob.pub", []))
# n = 0 once took hyh.hash_to_scalar's reduction mod n to a ZeroDivisionError
@_examples(_edit("params.json", n="0"))
def test_mutated_wire_files_end_in_an_exit_code(wire_dir, mutation, mode):
    name, content = mutation
    (wire_dir / name).write_text(json.dumps(content))
    try:
        for command in COMMANDS.values():
            assert _run(wire_dir, mode, command) in (0, 1, 2)
    finally:
        (wire_dir / name).write_text(json.dumps(WIRE_FILES[name]))
