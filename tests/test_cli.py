import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyhlab import attacks, cli, curve, fixtures, hyh
from hyhlab.hyh import SchemeConfig


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def params_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(fixtures.fixture_text(name))
    return str(path)


@pytest.fixture()
def toy_params_file(tmp_path):
    return params_file(tmp_path, fixtures.TOY16)


class TestParamsValidate:
    def test_good_fixture_passes(self, capsys, toy_params_file):
        rc, out = run(capsys, "--params", toy_params_file, "params", "validate")
        assert rc == 0
        assert json.loads(out)["overall"] is True

    def test_bad_fixture_names_check(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(fixtures.fixture_text(fixtures.N_EQ_Q))
        rc, out = run(capsys, "--params", str(path), "params", "validate")
        assert rc == 1
        report = json.loads(out)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["not_anomalous"]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        rc, _ = run(capsys, "--params", str(path), "params", "validate")
        assert rc == 2

    def test_missing_field(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        obj = json.loads(fixtures.fixture_text(fixtures.TOY16))
        del obj["h"]
        path.write_text(json.dumps(obj))
        rc, _ = run(capsys, "--params", str(path), "params", "validate")
        assert rc == 2

    @pytest.mark.parametrize("base, fields", [
        (fixtures.GOOD, {"q": f"{fixtures.load(fixtures.GOOD).q + 2:x}"}),
        (fixtures.TOY16, {"a": "0", "b": "0", "Gx": "1", "Gy": "1",
                          "n": f"{fixtures.load(fixtures.TOY16).q:x}", "h": "1"}),
    ], ids=["composite_q", "singular"])
    def test_uncountable_curve_fails_cleanly(self, capsys, tmp_path, base, fields):
        obj = json.loads(fixtures.fixture_text(base))
        obj.update(fields)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        rc = cli.main(["--params", str(path), "params", "validate"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.err == ""
        checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
        assert not checks["not_supersingular"]["passed"]
        assert "cannot count points" in checks["not_supersingular"]["detail"]

    def test_text_format(self, capsys, toy_params_file):
        rc, out = run(capsys, "--params", toy_params_file, "--format", "text",
                      "params", "validate")
        assert rc == 0
        assert "overall: pass" in out


class TestProtocolCommands:
    def _keygen(self, capsys, tmp_path, toy_params_file, name, seed):
        out_path = tmp_path / f"{name}.key"
        rc, _ = run(capsys, "--params", toy_params_file, "--seed", str(seed),
                    "--out", str(out_path), "keygen")
        assert rc == 0
        return str(out_path), str(out_path) + ".pub"

    def test_round_trip(self, capsys, tmp_path, toy_params_file):
        alice_priv, alice_pub = self._keygen(capsys, tmp_path, toy_params_file,
                                             "alice", 1)
        bob_priv, bob_pub = self._keygen(capsys, tmp_path, toy_params_file,
                                         "bob", 2)
        message = tmp_path / "message.bin"
        message.write_bytes(b"files all the way down")
        sct = tmp_path / "sct.json"
        rc, _ = run(capsys, "--params", toy_params_file, "--seed", "3",
                    "--out", str(sct), "signcrypt", "--key", alice_priv,
                    "--peer", bob_pub, "--in", str(message))
        assert rc == 0
        recovered = tmp_path / "recovered.bin"
        rc, _ = run(capsys, "--params", toy_params_file, "--out", str(recovered),
                    "unsigncrypt", "--key", bob_priv, "--peer", alice_pub,
                    "--in", str(sct))
        assert rc == 0
        assert recovered.read_bytes() == b"files all the way down"
        rc, out = run(capsys, "--params", toy_params_file, "unsigncrypt",
                      "--key", bob_priv, "--peer", alice_pub, "--in", str(sct))
        assert rc == 0
        assert json.loads(out) == {"accepted": True,
                                   "message": b"files all the way down".hex()}

    def test_forced_r_reproduces_ephemeral_point(self, capsys, tmp_path,
                                                 toy_params_file):
        alice_priv, _ = self._keygen(capsys, tmp_path, toy_params_file, "alice", 1)
        _, bob_pub = self._keygen(capsys, tmp_path, toy_params_file, "bob", 2)
        m1, m2 = tmp_path / "m1", tmp_path / "m2"
        m1.write_bytes(b"first")
        m2.write_bytes(b"second")
        outs = []
        for m in (m1, m2):
            rc, out = run(capsys, "--params", toy_params_file, "signcrypt",
                          "--key", alice_priv, "--peer", bob_pub,
                          "--in", str(m), "--force-r", "abc")
            assert rc == 0
            outs.append(json.loads(out))
        assert outs[0]["Rx"] == outs[1]["Rx"]
        assert outs[0]["Ry"] == outs[1]["Ry"]

    def test_corrupted_ciphertext_exits_one(self, capsys, tmp_path,
                                            toy_params_file):
        alice_priv, alice_pub = self._keygen(capsys, tmp_path, toy_params_file,
                                             "alice", 1)
        bob_priv, bob_pub = self._keygen(capsys, tmp_path, toy_params_file,
                                         "bob", 2)
        message = tmp_path / "m"
        message.write_bytes(b"intact")
        rc, out = run(capsys, "--params", toy_params_file, "--seed", "3",
                      "signcrypt", "--key", alice_priv, "--peer", bob_pub,
                      "--in", str(message))
        obj = json.loads(out)
        obj["C"] = ("00" if obj["C"][:2] != "00" else "01") + obj["C"][2:]
        sct = tmp_path / "sct.json"
        sct.write_text(json.dumps(obj))
        rc, _ = run(capsys, "--params", toy_params_file, "unsigncrypt",
                    "--key", bob_priv, "--peer", alice_pub, "--in", str(sct))
        assert rc == 1

    def test_verify_command(self, capsys, tmp_path, toy_params_file):
        alice_priv, alice_pub = self._keygen(capsys, tmp_path, toy_params_file,
                                             "alice", 1)
        _, bob_pub = self._keygen(capsys, tmp_path, toy_params_file, "bob", 2)
        message = tmp_path / "m"
        message.write_bytes(b"attested")
        sct = tmp_path / "sct.json"
        rc, _ = run(capsys, "--params", toy_params_file, "--seed", "3",
                    "--out", str(sct), "signcrypt", "--key", alice_priv,
                    "--peer", bob_pub, "--in", str(message))
        rc, out = run(capsys, "--params", toy_params_file, "verify",
                      "--peer", alice_pub, "--in", str(sct),
                      "--message", str(message))
        assert rc == 0 and json.loads(out)["valid"] is True
        other = tmp_path / "other"
        other.write_bytes(b"forged claim")
        rc, out = run(capsys, "--params", toy_params_file, "verify",
                      "--peer", alice_pub, "--in", str(sct),
                      "--message", str(other))
        assert rc == 1 and json.loads(out)["valid"] is False

    @pytest.mark.parametrize("mode, code", [("paper", 0), ("strict", 1)])
    def test_verify_s_outside_one_to_n(self, capsys, tmp_path, toy_params_file,
                                       mode, code):
        alice_priv, alice_pub = self._keygen(capsys, tmp_path, toy_params_file,
                                             "alice", 1)
        _, bob_pub = self._keygen(capsys, tmp_path, toy_params_file, "bob", 2)
        message = tmp_path / "m"
        message.write_bytes(b"attested")
        _, out = run(capsys, "--params", toy_params_file, "--seed", "3",
                     "signcrypt", "--key", alice_priv, "--peer", bob_pub,
                     "--in", str(message))
        honest = json.loads(out)
        n = fixtures.load(fixtures.TOY16).n
        # s + n passes the verification equation wherever s does; so does
        # s = 0 with R = O and a message hashing to 0 mod n
        config = SchemeConfig(params=fixtures.load(fixtures.TOY16))
        zero_hash = next(m for m in (b"zero-%d" % i for i in range(1 << 20))
                         if hyh.hash_to_scalar(config, m) == 0)
        zero_message = tmp_path / "zero"
        zero_message.write_bytes(zero_hash)
        for fields, msg in [({"s": f"{int(honest['s'], 16) + n:x}"}, message),
                            ({"Rx": "00", "Ry": "inf", "s": "0"}, zero_message)]:
            sct = tmp_path / "sct.json"
            sct.write_text(json.dumps({**honest, **fields}))
            rc, out = run(capsys, "--params", toy_params_file, "--mode", mode,
                          "verify", "--peer", alice_pub, "--in", str(sct),
                          "--message", str(msg))
            assert rc == code and json.loads(out)["valid"] is (code == 0)

    @pytest.mark.parametrize("mode", ["paper", "strict"])
    def test_verify_unreduced_small_order_ephemeral(self, capsys, tmp_path, mode):
        # the order-3 point of b' = b + 1 with q added to its x once made
        # public_verify raise NotInvertible, and verify exit 2
        good = params_file(tmp_path, fixtures.GOOD)
        _, alice_pub = self._keygen(capsys, tmp_path, good, "alice", 1)
        message = tmp_path / "m"
        message.write_bytes(b"m")
        sct = tmp_path / "sct.json"
        q = fixtures.load(fixtures.GOOD).q
        sct.write_text(json.dumps({"Rx": f"{657345 + q:x}", "Ry": f"{967893:x}",
                                   "C": "00" * 40, "s": "3"}))
        rc, out = run(capsys, "--params", good, "--mode", mode, "verify",
                      "--peer", alice_pub, "--in", str(sct),
                      "--message", str(message))
        assert rc == 1 and json.loads(out)["valid"] is False

    @pytest.mark.parametrize("mode", ["paper", "strict"])
    def test_verify_unreduced_small_order_sender_key(self, capsys, tmp_path, mode):
        # the same point as the sender key: its comb table, once built with
        # the affine law from the raw point, raised NotInvertible
        good = params_file(tmp_path, fixtures.GOOD)
        alice_priv, _ = self._keygen(capsys, tmp_path, good, "alice", 1)
        _, bob_pub = self._keygen(capsys, tmp_path, good, "bob", 2)
        message = tmp_path / "m"
        message.write_bytes(b"m")
        sct = tmp_path / "sct.json"
        run(capsys, "--params", good, "--seed", "3", "--out", str(sct),
            "signcrypt", "--key", alice_priv, "--peer", bob_pub,
            "--in", str(message))
        q = fixtures.load(fixtures.GOOD).q
        hostile = tmp_path / "hostile.pub"
        hostile.write_text(json.dumps({"Ux": f"{657345 + q:x}", "Uy": f"{967893:x}"}))
        rc, out = run(capsys, "--params", good, "--mode", mode, "verify",
                      "--peer", str(hostile), "--in", str(sct),
                      "--message", str(message))
        assert rc == 1 and json.loads(out)["valid"] is False

    @pytest.mark.parametrize("case", ["off_curve", "order_2"])
    @pytest.mark.parametrize("mode, code", [("paper", 0), ("strict", 1)])
    def test_verify_small_order_sender_key(self, capsys, tmp_path,
                                           small_order_sender_keys,
                                           keyless_forgery, mode, code, case):
        # a sender key of order 2 on its own curve lets a triple made with
        # no secret pass the paper's equation; strict mode refuses the key
        params, u_a, order = small_order_sender_keys[case]
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(fixtures.params_to_dict(params)))
        config = SchemeConfig(params=params)
        bob = hyh.keypair_from_secret(config, 5678)
        m = b"signed by nobody"
        sct = tmp_path / "sct.json"
        sct.write_text(json.dumps(hyh.sct_to_dict(
            keyless_forgery(config, u_a, order, bob.U, m))))
        message = tmp_path / "m"
        message.write_bytes(m)
        sender = tmp_path / "sender.pub"
        sender.write_text(json.dumps({"Ux": f"{u_a[0]:x}", "Uy": f"{u_a[1]:x}"}))
        rc, out = run(capsys, "--params", str(params_path), "--mode", mode,
                      "verify", "--peer", str(sender), "--in", str(sct),
                      "--message", str(message))
        assert rc == code and json.loads(out)["valid"] is (code == 0)

    def test_missing_file_exits_two(self, capsys, toy_params_file):
        rc, _ = run(capsys, "--params", toy_params_file, "unsigncrypt",
                    "--key", "/nonexistent", "--peer", "/nonexistent",
                    "--in", "/nonexistent")
        assert rc == 2

    def test_rejection_writes_no_out_file(self, capsys, tmp_path,
                                          toy_params_file):
        alice_priv, alice_pub = self._keygen(capsys, tmp_path, toy_params_file,
                                             "alice", 1)
        bob_priv, bob_pub = self._keygen(capsys, tmp_path, toy_params_file,
                                         "bob", 2)
        message = tmp_path / "m"
        message.write_bytes(b"intact")
        _, out = run(capsys, "--params", toy_params_file, "--seed", "3",
                     "signcrypt", "--key", alice_priv, "--peer", bob_pub,
                     "--in", str(message))
        obj = json.loads(out)
        obj["C"] = ("00" if obj["C"][:2] != "00" else "01") + obj["C"][2:]
        sct = tmp_path / "sct.json"
        sct.write_text(json.dumps(obj))
        recovered = tmp_path / "recovered.bin"
        rc, out = run(capsys, "--params", toy_params_file, "--out",
                      str(recovered), "unsigncrypt", "--key", bob_priv,
                      "--peer", alice_pub, "--in", str(sct))
        assert rc == 1
        assert json.loads(out) == {"accepted": False}
        assert not recovered.exists()

    @pytest.mark.parametrize("mode", ["paper", "strict"])
    @pytest.mark.parametrize("command, field, value, code", [
        (command, *case) for command in ("unsigncrypt", "verify") for case in [
            ("s", "-1", 2),      # not lowercase hex: bad input
            ("s", "f" * 61, 1),  # no tag or encoding exists for it: rejected
            ("s", 5, 2),         # not a hex string: bad input
            ("Ry", 7, 2),
        ]
    ], ids=[prefix + case for prefix in ("", "verify_") for case in
            ("negative_s", "61_hex_digit_s", "int_s", "int_Ry")])
    def test_hostile_signcrypted_text(self, capsys, tmp_path, toy_params_file,
                                      mode, command, field, value, code):
        alice_priv, alice_pub = self._keygen(capsys, tmp_path, toy_params_file,
                                             "alice", 1)
        bob_priv, bob_pub = self._keygen(capsys, tmp_path, toy_params_file,
                                         "bob", 2)
        message = tmp_path / "m"
        message.write_bytes(b"intact")
        _, out = run(capsys, "--params", toy_params_file, "--seed", "3",
                     "signcrypt", "--key", alice_priv, "--peer", bob_pub,
                     "--in", str(message))
        obj = json.loads(out)
        obj[field] = value
        sct = tmp_path / "sct.json"
        sct.write_text(json.dumps(obj))
        command_args = (["--key", bob_priv] if command == "unsigncrypt"
                        else ["--message", str(message)])
        rc, _ = run(capsys, "--params", toy_params_file, "--mode", mode,
                    command, *command_args, "--peer", alice_pub, "--in", str(sct))
        assert rc == code


def assert_refused(capsys, wire_files, flag, name, edit, error):
    """unsigncrypt with the file of flag edited and saved as name ends in
    exit 2 and the one line ``error: <error>``."""
    Path(name).write_text(json.dumps(edit(wire_files[flag])))
    paths = {f: f"{f[2:]}.json" for f in wire_files}
    paths[flag] = name
    rc = cli.main(["--params", paths["--params"], "unsigncrypt",
                   "--key", paths["--key"], "--peer", paths["--peer"],
                   "--in", paths["--in"]])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {error}\n"


class TestWireFileRefusals:
    """Each malformed wire file ends in exit 2 with one ``error:`` line that
    names the file, never a traceback."""

    @pytest.fixture()
    def wire_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        params = fixtures.load(fixtures.TOY16)
        config = SchemeConfig(params=params)
        alice = hyh.keypair_from_secret(config, 5)
        bob = hyh.keypair_from_secret(config, 7)
        sct = hyh.signcrypt(config, alice.d, bob.U, b"wire", rng_seed=1)
        files = {
            "--params": fixtures.params_to_dict(params),
            "--key": {"d": f"{bob.d:x}"},
            "--peer": {"Ux": f"{alice.U[0]:x}", "Uy": f"{alice.U[1]:x}"},
            "--in": hyh.sct_to_dict(sct),
        }
        for flag, obj in files.items():
            (tmp_path / f"{flag[2:]}.json").write_text(json.dumps(obj))
        return files

    @pytest.mark.parametrize("flag, name, edit, error", [
        ("--in", "array.json", lambda obj: [obj],
         "array.json: expected a JSON object"),
        ("--key", "nod.json", lambda obj: {},
         'nod.json: expected a private key file {"d": hex}'),
        ("--peer", "inf.json", lambda obj: {**obj, "Uy": "inf"},
         'inf.json: expected a public key file {"Ux": hex, "Uy": hex}'),
        ("--params", "q.json", lambda obj: {**obj, "q": "zz"},
         "q.json: params fields must be lowercase hex strings"),
        ("--params", "g.json", lambda obj: {**obj, "Gy": "inf"},
         "g.json: params fields must be lowercase hex strings"),
        ("--in", "nos.json", lambda obj: {k: v for k, v in obj.items() if k != "s"},
         "nos.json: bad signcrypted text: 's'"),
        # the spellings bytes.fromhex takes besides lowercase hex pairs
        ("--in", "c.json", lambda obj: {**obj, "C": obj["C"].upper()},
         "c.json: bad signcrypted text: ciphertext is not lowercase hex bytes"),
        ("--in", "c.json", lambda obj: {**obj, "C": " ".join(
            obj["C"][i:i + 2] for i in range(0, len(obj["C"]), 2))},
         "c.json: bad signcrypted text: ciphertext is not lowercase hex bytes"),
    ], ids=["array", "key_without_d", "public_key_at_infinity", "params_bad_q",
            "params_g_at_infinity", "sct_without_s", "sct_c_capitals",
            "sct_c_space_between_bytes"])
    def test_refusal_line(self, capsys, wire_files, flag, name, edit, error):
        assert_refused(capsys, wire_files, flag, name, edit, error)

    # the spellings int(text, 16) takes besides lowercase hex
    @pytest.mark.parametrize("spelling", ["0x7", "-7", " 7", "1_7", "7F"])
    @pytest.mark.parametrize("flag, field, error", [
        ("--params", "n", "params fields must be lowercase hex strings"),
        ("--key", "d", 'expected a private key file {"d": hex}'),
    ], ids=["params", "key"])
    def test_hex_field_not_lowercase_hex(self, capsys, wire_files, flag, field,
                                         error, spelling):
        assert_refused(capsys, wire_files, flag, "x.json",
                       lambda obj: {**obj, field: spelling}, f"x.json: {error}")

    @pytest.mark.parametrize("d", [-3, 0, "n"])
    @pytest.mark.parametrize("command", ["signcrypt", "unsigncrypt"])
    @pytest.mark.parametrize("mode", ["paper", "strict"])
    def test_private_key_out_of_range(self, capsys, wire_files, mode, command, d):
        d = fixtures.load(fixtures.TOY16).n if d == "n" else d
        Path("d.json").write_text(json.dumps({"d": f"{d:x}"}))
        rc = cli.main(["--params", "params.json", "--mode", mode, command,
                       "--key", "d.json", "--peer", "peer.json", "--in", "in.json"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        # "-3" is no lowercase hex, so it is refused before the range check
        error = ('expected a private key file {"d": hex}' if d < 0
                 else "private key out of range [1, n-1]")
        assert captured.err == f"error: d.json: {error}\n"

    @pytest.mark.parametrize("command", [
        ["params", "validate"], ["keygen"], ["demo", "all"],
        ["signcrypt", "--key", "key.json", "--peer", "peer.json", "--in", "key.json"],
        ["unsigncrypt", "--key", "key.json", "--peer", "peer.json", "--in", "in.json"],
    ], ids=["params_validate", "keygen", "demo_all", "signcrypt", "unsigncrypt"])
    def test_unwritable_out(self, capsys, wire_files, command):
        rc = cli.main(["--params", "params.json", "--out", "no/such/dir.json",
                       *command])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "'no/such/dir.json'" in captured.err

    @pytest.mark.parametrize("command, flag", [
        (["signcrypt", "--key", "key.json", "--peer", "peer.json"], "--in"),
        (["verify", "--peer", "peer.json", "--in", "in.json"], "--message"),
    ], ids=["signcrypt_in", "verify_message"])
    @pytest.mark.parametrize("path", ["missing.bin", "."], ids=["missing", "directory"])
    def test_unreadable_byte_file(self, capsys, wire_files, command, flag, path):
        rc = cli.main(["--params", "params.json", *command, flag, path])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"'{path}'" in captured.err


# one well-formed object over every key of a params, private-key, public-key
# and signcrypted-text file; each example deletes and rewrites some keys
_WIRE_OBJECT = {**fixtures.params_to_dict(fixtures.load(fixtures.TOY16)),
                "d": "5", "Ux": "3", "Uy": "4", "Rx": "1", "Ry": "2",
                "C": "00ff", "s": "7"}
_WIRE_VALUES = st.one_of(
    st.integers(0, 2**20).map("{:x}".format),
    st.sampled_from(["", "0x1f", " 1f", "1f ", "1f\n", "-1", "1_0", "7F",
                     "inf", "INF"]),
    st.text("0123456789abcdefABCDEFx _-inf\n", max_size=8),
    st.integers(-2**70, 2**70), st.none(), st.booleans(),
    st.lists(st.integers(0, 9), max_size=2))
_WIRE_PARSERS = (fixtures.params_from_dict, cli._public_key, hyh.sct_from_dict,
                 lambda obj: hyh.int_from_hex(obj["d"]))


@settings(max_examples=100, deadline=None)
@given(gone=st.sets(st.sampled_from(sorted(_WIRE_OBJECT))),
       edits=st.dictionaries(st.sampled_from(sorted(_WIRE_OBJECT)),
                             _WIRE_VALUES, max_size=3))
def test_wire_parsers_refuse_only_as_bad_input(gone, edits):
    # cli._load turns exactly these three into exit 2; any other exception
    # from a parser would escape main as a traceback
    obj = {k: v for k, v in _WIRE_OBJECT.items() if k not in gone} | edits
    for parse in _WIRE_PARSERS:
        try:
            parse(obj)
        except (KeyError, ValueError, TypeError):
            pass


class TestAttackCommands:
    @pytest.mark.parametrize("name", cli.ATTACK_NAMES)
    def test_paper_mode_attacks_succeed(self, capsys, toy_params_file, name):
        rc, out = run(capsys, "--params", toy_params_file, "--seed", "1",
                      "attack", name)
        assert rc == 0, out
        assert json.loads(out)["success"] is True

    @pytest.mark.parametrize("name", cli.ATTACK_NAMES)
    def test_strict_mode_attacks_fail(self, capsys, toy_params_file, name):
        rc, out = run(capsys, "--params", toy_params_file, "--mode", "strict",
                      "--seed", "1", "attack", name)
        assert rc == 1, out
        assert json.loads(out)["success"] is False

    def test_ephemeral_prints_recovered_key(self, capsys, toy_params_file):
        rc, out = run(capsys, "--params", toy_params_file, "--seed", "1",
                      "attack", "ephemeral")
        assert rc == 0
        assert "d_A" in json.loads(out)["recovered_secrets"]

    @staticmethod
    def _ephemeral_from_files(capsys, tmp_path, toy_params_file, r):
        """Exit code, stdout and stderr of ``attack ephemeral`` with the
        leaked scalar r on a triple signcrypted under r = abc."""
        alice_priv = tmp_path / "alice.key"
        rc, out = run(capsys, "--params", toy_params_file, "--seed", "1",
                      "--out", str(alice_priv), "keygen")
        _, out = run(capsys, "--params", toy_params_file, "--seed", "2",
                     "--out", str(tmp_path / "bob.key"), "keygen")
        message = tmp_path / "m"
        message.write_bytes(b"intercepted")
        sct = tmp_path / "sct.json"
        rc, _ = run(capsys, "--params", toy_params_file, "--out", str(sct),
                    "signcrypt", "--key", str(alice_priv),
                    "--peer", str(tmp_path / "bob.key.pub"),
                    "--in", str(message), "--force-r", "abc")
        assert rc == 0
        rc = cli.main(["--params", toy_params_file, "attack", "ephemeral",
                       "--sct", str(sct), "--r", r,
                       "--sender-pub", str(alice_priv) + ".pub",
                       "--recipient-pub", str(tmp_path / "bob.key.pub")])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_ephemeral_from_files(self, capsys, tmp_path, toy_params_file):
        rc, out, _ = self._ephemeral_from_files(capsys, tmp_path, toy_params_file,
                                                "abc")
        assert rc == 0
        assert json.loads(out)["success"] is True

    def test_hex_options_not_lowercase_hex(self, capsys, tmp_path, toy_params_file):
        rc, out, err = self._ephemeral_from_files(capsys, tmp_path,
                                                  toy_params_file, "0xabc")
        assert (rc, out) == (2, "")
        assert err == "error: '0xabc' is not a lowercase hex number\n"
        rc = cli.main(["--params", toy_params_file, "signcrypt",
                       "--key", str(tmp_path / "alice.key"),
                       "--peer", str(tmp_path / "bob.key.pub"),
                       "--in", str(tmp_path / "m"), "--force-r", "ABC"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == "error: 'ABC' is not a lowercase hex number\n"

    def test_ephemeral_from_files_wrong_r(self, capsys, tmp_path, toy_params_file):
        rc, out, err = self._ephemeral_from_files(capsys, tmp_path,
                                                  toy_params_file, "abd")
        assert (rc, out) == (2, "")
        assert err == "error: r*G does not match the transmitted R\n"

    def test_invalid_curve_strict_notes_blocking(self, capsys, toy_params_file):
        rc, out = run(capsys, "--params", toy_params_file, "--mode", "strict",
                      "--seed", "1", "attack", "invalid-curve")
        assert rc == 1
        events = [e["event"] for e in json.loads(out)["transcript"]]
        assert "oracle_rejected" in events

    def test_invalid_curve_x_zero_collision(self, capsys, tmp_path):
        # seed 7 stages d_B = 2 on the 7-point group, and 2*W = (0, 2) for
        # the order-29 point W of b' = 4: the MAC keyed by x = 0 also
        # matches j = 0, as x(O) = 0 in the lab
        rc, out = run(capsys, "--params", params_file(tmp_path, fixtures.F23_N7),
                      "--seed", "7", "attack", "invalid-curve")
        report = json.loads(out)
        config = SchemeConfig(params=fixtures.load(fixtures.F23_N7))
        _, bob = cli._keys(config, random.Random(7))
        assert rc == 0
        d_b = int(report["recovered_secrets"]["d_B"], 16)
        assert d_b == bob.d == 2
        assert curve.scalar_mul(config.params, d_b, config.params.G) == bob.U
        residue = next(e for e in report["transcript"]
                       if e["event"] == "residue_found" and e["order"] == 29)
        assert residue["candidates"] == [0, 2]

    def test_invalid_curve_x_zero_collision_strict(self, capsys, tmp_path):
        rc, out = run(capsys, "--params", params_file(tmp_path, fixtures.F23_N7),
                      "--mode", "strict", "--seed", "7",
                      "attack", "invalid-curve")
        report = json.loads(out)
        assert rc == 1 and report["oracle_queries"] == 1
        assert [e["event"] for e in report["transcript"]] == [
            "oracle_rejected", "blocked"]

    @pytest.mark.parametrize("mode", ["paper", "strict"])
    def test_invalid_curve_not_staged_at_secp160r1(self, capsys, tmp_path, mode):
        # no invalid curve can be counted at q ~ 2^160, so nothing is sent
        rc, out = run(capsys, "--params", params_file(tmp_path, fixtures.SECP160R1),
                      "--seed", "5", "--mode", mode, "attack", "invalid-curve")
        report = json.loads(out)
        assert rc == 1 and not report["success"] and report["oracle_queries"] == 0
        [event] = report["transcript"]
        assert event["event"] == "not_staged"
        bound = curve.DEFAULT_COUNT_BOUND
        assert event["reason"].endswith(f"exceeds counting bound {bound}")

    @staticmethod
    def _toy16_with_n(tmp_path, n):
        obj = json.loads(fixtures.fixture_text(fixtures.TOY16))
        obj["n"] = f"{n:x}"
        path = tmp_path / "toy16_big_n.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_invalid_curve_hits_short_of_n(self, capsys, tmp_path):
        # the small orders of toy16's 64 curves multiply to less than
        # n = 2^1000 + 1: paper mode asks for every one, then gives up
        path = self._toy16_with_n(tmp_path, (1 << 1000) + 1)
        rc = cli.main(["--params", path, "attack", "invalid-curve"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert rc == 1 and captured.err == ""
        assert not report["success"] and report["oracle_queries"] == 57
        *found, event = report["transcript"]
        assert [e["event"] for e in found] == ["residue_found"] * 57
        assert event["event"] == "not_staged"
        assert event["reason"].startswith("product of small orders only reached")
        product = math.prod(e["order"] for e in found)
        assert f" {product} " in event["reason"] and product < 1 << 1000

    def test_invalid_curve_hits_short_of_n_strict(self, capsys, tmp_path):
        # the strict recipient refuses the first point before the search
        # could run out
        path = self._toy16_with_n(tmp_path, (1 << 1000) + 1)
        rc = cli.main(["--params", path, "--mode", "strict", "attack",
                       "invalid-curve"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert rc == 1 and captured.err == ""
        assert not report["success"] and report["oracle_queries"] == 1
        assert [e["event"] for e in report["transcript"]] == [
            "oracle_rejected", "blocked"]

    def test_invalid_curve_without_candidate_is_not_blocked(self, capsys, tmp_path):
        # n = 2^340 + 1 takes more curves than the sign vectors are tried
        # for; the recipient refused nothing, so no blocked event
        path = self._toy16_with_n(tmp_path, (1 << 340) + 1)
        rc = cli.main(["--params", path, "attack", "invalid-curve"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert rc == 1 and captured.err == ""
        assert not report["success"] and report["recovered_secrets"] == {}
        events = [e["event"] for e in report["transcript"]]
        assert "blocked" not in events and "oracle_rejected" not in events
        last = report["transcript"][-1]
        assert last["event"] == "no_candidate"
        assert last["curves"] == report["oracle_queries"]
        assert last["curves"] > attacks.MAX_SIGN_VECTOR_CURVES

    @pytest.mark.parametrize("name, seed", [("ephemeral", 9),
                                            ("forward-secrecy", 3)])
    def test_strict_leak_staging_reports_blocked(self, capsys, tmp_path, name, seed):
        # on the 7-point group a guessed r or d_A is right at these seeds;
        # strict mode stages no leak, so no guess is run and none can land
        rc, out = run(capsys, "--params", params_file(tmp_path, fixtures.F23_N7),
                      "--mode", "strict", "--seed", str(seed),
                      "attack", name)
        report = json.loads(out)
        assert rc == 1 and report["success"] is False
        assert [e["event"] for e in report["transcript"]] == ["staging", "blocked"]
        assert report["transcript"][1]["reason"].startswith("no misuse staged")

    def test_non_staged_without_inputs_is_config_error(self, capsys,
                                                       toy_params_file):
        # an intercepted-file run of ephemeral needs all four files
        flags = [("--sct", "sct.json"), ("--r", "abc"),
                 ("--sender-pub", "a.pub"), ("--recipient-pub", "b.pub")]
        for omitted in range(len(flags)):
            argv = [arg for i, flag in enumerate(flags) if i != omitted
                    for arg in flag]
            rc = cli.main(["--params", toy_params_file, "attack", "ephemeral",
                           *argv])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (2, "")
            assert captured.err == (
                "error: attack ephemeral takes all of "
                "--sct/--r/--sender-pub/--recipient-pub or none\n")

    @pytest.mark.parametrize("name", [n for n in cli.ATTACK_NAMES
                                      if n != "ephemeral"])
    def test_intercepted_files_for_a_staged_attack(self, capsys,
                                                   toy_params_file, name):
        rc = cli.main(["--params", toy_params_file, "attack", name,
                       "--sct", "sct.json"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == (f"error: attack {name} takes no intercepted "
                                "files; it stages its own victims\n")

    @pytest.mark.parametrize("mode, events", [
        ("paper", ["certificate_issued", "alice_sent", "mallory_forwarded",
                   "bob_unsigncrypted"]),
        ("strict", ["certification_blocked"])])
    def test_uks_under_a_wrong_claimed_order(self, capsys, tmp_path, mode,
                                             events):
        # G of params_f23_n7 has order 7, not the claimed 5: the paper CA
        # binds Alice's key to Mallory, but Alice's s, taken mod 5, fails
        # Bob's verification and he rejects her text; the strict CA refuses
        # Alice's key for its order and issues none
        obj = json.loads(fixtures.fixture_text(fixtures.F23_N7))
        obj["n"] = "5"
        path = tmp_path / "f23_n5.json"
        path.write_text(json.dumps(obj))
        rc = cli.main(["--params", str(path), "--mode", mode, "attack", "uks"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert (rc, captured.err) == (1, "")
        assert [e["event"] for e in report["transcript"]] == events
        assert all(e["accepted"] is False for e in report["transcript"]
                   if e["event"] == "bob_unsigncrypted")

    @pytest.mark.parametrize("mode, code", [("paper", 0), ("strict", 1)])
    def test_text_report_shows_wall_time(self, capsys, tmp_path, mode, code):
        path = tmp_path / "secp160r1.json"
        path.write_text(fixtures.fixture_text(fixtures.SECP160R1))
        rc, out = run(capsys, "--params", str(path), "--mode", mode,
                      "--format", "text", "attack", "nonce-reuse")
        assert rc == code
        line = next(ln for ln in out.splitlines() if ln.startswith("wall time:"))
        assert float(line.split()[-1].rstrip("s")) > 0


class TestDegenerateBasePoint:
    """Params files whose G = (x, 0) has order 2: a command that needs a
    usable random scalar ends in a refusal (exit 2), and every command ends
    without a hang or a traceback."""

    @staticmethod
    def _params(tmp_path, q, gx, n, h):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({"q": f"{q:x}", "a": "1", "b": "1", "Gx": f"{gx:x}",
                                    "Gy": "0", "n": f"{n:x}", "h": f"{h:x}"}))
        return str(path)

    @pytest.mark.parametrize("mode, code, events", [
        ("paper", 0, ["certificate_issued", "alice_sent", "mallory_forwarded",
                      "bob_unsigncrypted", "views_diverged"]),
        ("strict", 1, ["certification_blocked"])], ids=["paper", "strict"])
    def test_uks_needs_no_schnorr_nonce(self, capsys, tmp_path, mode, code,
                                        events):
        # n = 2 leaves no usable Schnorr nonce, but uks makes no Schnorr
        # signature: the paper CA binds Alice's key unasked, and the strict
        # CA refuses that key before it reads any proof
        rc = cli.main(["--params", self._params(tmp_path, 11, 3, 2, 2),
                       "--mode", mode, "attack", "uks"])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (code, "")
        report = json.loads(captured.out)
        assert [e["event"] for e in report["transcript"]] == events

    def test_signcrypt_rng_failure_exits_two(self, capsys, tmp_path):
        # Bob's even secret makes U_B = O, so no ephemeral scalar is usable
        rc = cli.main(["--params", self._params(tmp_path, 23, 13, 7, 4),
                       "attack", "forward-secrecy"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: no usable ephemeral scalar")

    def test_keygen_of_identity_key_exits_two(self, capsys, tmp_path):
        rc = cli.main(["--params", self._params(tmp_path, 23, 13, 7, 4),
                       "--seed", "0", "keygen"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert "public key O" in err


class TestDemoAll:
    @pytest.mark.parametrize("name", [
        fixtures.GOOD, fixtures.TOY16, fixtures.F23_N7, fixtures.SECP160R1,
        *fixtures.BAD_FIXTURES])
    def test_default_seed_exit_code(self, capsys, tmp_path, name):
        # a composite n is refused; every other bundled set runs its table
        rc, _ = run(capsys, "--params", params_file(tmp_path, name), "demo", "all")
        assert rc == (2 if name == fixtures.COMPOSITE_N else 0)

    def test_default_params_are_params_good(self, capsys, tmp_path):
        default = run(capsys, "--seed", "7", "demo", "all")
        named = run(capsys, "--params", params_file(tmp_path, fixtures.GOOD),
                    "--seed", "7", "demo", "all")
        assert default == named and default[0] == 0

    def test_mode_duality(self, capsys, toy_params_file):
        rc, out = run(capsys, "--params", toy_params_file, "--seed", "5",
                      "demo", "all")
        assert rc == 0
        summary = json.loads(out)
        assert summary["paper_successes"] == 6
        assert summary["strict_successes"] == 0

    def test_deterministic_output(self, capsys, toy_params_file):
        rc1, out1 = run(capsys, "--params", toy_params_file, "--seed", "5",
                        "demo", "all")
        rc2, out2 = run(capsys, "--params", toy_params_file, "--seed", "5",
                        "demo", "all")
        assert (rc1, out1) == (rc2, out2)

    def test_seed_changes_secrets_not_pattern(self, capsys, toy_params_file):
        _, out1 = run(capsys, "--params", toy_params_file, "--seed", "5",
                      "attack", "ephemeral")
        _, out2 = run(capsys, "--params", toy_params_file, "--seed", "6",
                      "attack", "ephemeral")
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["success"] and r2["success"]
        assert r1["recovered_secrets"]["d_A"] != r2["recovered_secrets"]["d_A"]

    def test_text_table(self, capsys, toy_params_file):
        rc, out = run(capsys, "--params", toy_params_file, "--seed", "5",
                      "--format", "text", "demo", "all")
        assert rc == 0
        assert "paper-mode attacks landed: 6/6" in out
        assert "strict-mode attacks landed: 0/6" in out

    def test_x_zero_collision_seed_runs_to_a_table(self, capsys, tmp_path):
        # seed 7 is the collision of TestAttackCommands
        rc, out = run(capsys, "--params", params_file(tmp_path, fixtures.F23_N7),
                      "--seed", "7", "demo", "all")
        rows = {r["attack"]: (r["paper_success"], r["strict_success"])
                for r in json.loads(out)["findings"]}
        assert set(rows.values()) == {(True, False)}
        assert rc == 0

    def test_shared_keystream_seed_lands_nonce_reuse_in_strict(self, capsys,
                                                                tmp_path):
        rc, out = run(capsys, "--params", params_file(tmp_path, fixtures.F23_N7),
                      "--seed", "11", "demo", "all")
        rows = {r["attack"]: (r["paper_success"], r["strict_success"])
                for r in json.loads(out)["findings"]}
        # two fresh ephemerals out of [1, 6] give one keystream here, so the
        # nonce-reuse XOR lands in strict mode too, and the exit code is 1
        assert rows.pop("nonce-reuse") == (True, True)
        assert set(rows.values()) == {(True, False)}
        assert rc == 1

    def test_secp160r1_prints_its_table(self, capsys, tmp_path):
        # invalid-curve is not staged there; the other five run as usual
        rc, out = run(capsys, "--params", params_file(tmp_path, fixtures.SECP160R1),
                      "--seed", "5", "demo", "all")
        summary = json.loads(out)
        rows = {r["attack"]: (r["paper_success"], r["strict_success"])
                for r in summary["findings"]}
        assert rows.pop("invalid-curve") == (None, None)
        assert set(rows.values()) == {(True, False)}
        assert (summary["paper_successes"], summary["strict_successes"]) == (5, 0)
        assert summary["expected"] == {"paper_successes": 5, "strict_successes": 0}
        assert rc == 0

    def test_secp160r1_text_table_marks_the_unstaged_attack(self, capsys, tmp_path):
        rc, out = run(capsys, "--params", params_file(tmp_path, fixtures.SECP160R1),
                      "--seed", "5", "--format", "text", "demo", "all")
        assert "invalid-curve      n/a      n/a\n" in out
        assert "paper-mode attacks landed: 5/6" in out
        assert rc == 0


def test_readme_commands_parse(capsys):
    # every hyhlab line of README's code blocks: a flag the CLI lost, or a
    # global option after the subcommand, fails here; --help exits 0
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    commands = [line for block in blocks for line in block.splitlines()
                if line.startswith("hyhlab ")]
    assert len(commands) >= 10
    refused = []
    for line in commands:
        try:
            cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit as exc:
            if exc.code != 0:
                refused.append(line)
    capsys.readouterr()
    assert refused == []


def test_cli_import_leaves_logging_unloaded():
    # every CLI run and benchmark child pays the import; -S keeps
    # site-packages' start-up hooks out of the count
    src = str(Path(hyh.__file__).resolve().parent.parent)
    code = "import sys, hyhlab.cli; print('logging' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
