import json
import math
import os
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

from conftest import BAD_FIXTURES, COMPOSITE_N, N_EQ_Q, TOY16


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
    return params_file(tmp_path, TOY16)


class TestParamsValidate:
    def test_good_fixture_passes(self, capsys, toy_params_file):
        rc, out = run(capsys, "--params", toy_params_file, "params", "validate")
        assert rc == 0
        assert json.loads(out)["overall"] is True

    def test_bad_fixture_names_check(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(fixtures.fixture_text(N_EQ_Q))
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
        obj = json.loads(fixtures.fixture_text(TOY16))
        del obj["h"]
        path.write_text(json.dumps(obj))
        rc, _ = run(capsys, "--params", str(path), "params", "validate")
        assert rc == 2

    @pytest.mark.parametrize("base, fields", [
        (fixtures.GOOD, {"q": f"{fixtures.load(fixtures.GOOD).q + 2:x}"}),
        (TOY16, {"a": "0", "b": "0", "Gx": "1", "Gy": "1",
                          "n": f"{fixtures.load(TOY16).q:x}", "h": "1"}),
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

    def test_composite_n_signcrypt_draws_again(self, capsys, tmp_path):
        # n = 2 * 10909: at seed 3 the first r drawn shares a factor with n,
        # has no inverse, and is drawn again like any degenerate r
        params = params_file(tmp_path, COMPOSITE_N)
        alice_priv, alice_pub = self._keygen(capsys, tmp_path, params, "alice", 1)
        bob_priv, bob_pub = self._keygen(capsys, tmp_path, params, "bob", 2)
        message = tmp_path / "message.bin"
        message.write_bytes(b"one message through every fixture and mode")
        sct = tmp_path / "sct.json"
        rc, _ = run(capsys, "--params", params, "--seed", "3", "--out", str(sct),
                    "signcrypt", "--key", alice_priv, "--peer", bob_pub,
                    "--in", str(message))
        assert rc == 0
        rc, out = run(capsys, "--params", params, "unsigncrypt", "--key", bob_priv,
                      "--peer", alice_pub, "--in", str(sct))
        assert (rc, json.loads(out)) == (0, {"accepted": True,
                                             "message": message.read_bytes().hex()})

    @pytest.mark.parametrize("name, force_r, peer, error", [
        (TOY16, "0", None, "forced ephemeral scalar out of range"),
        (TOY16, f"{fixtures.load(TOY16).n:x}", None,
         "forced ephemeral scalar out of range"),
        # U_B = (24329, 0) lies on toy16 with order 2, so K = 2*U_B = O
        (TOY16, "2", {"Ux": f"{24329:x}", "Uy": "0"},
         "forced ephemeral scalar hits a degenerate case"),
        # r = 2 has no inverse mod n = 2 * 10909
        (COMPOSITE_N, "2", None,
         "forced ephemeral scalar hits a degenerate case"),
    ], ids=["zero", "n", "identity_shared_point", "composite_n_no_inverse"])
    def test_forced_r_refusal(self, capsys, tmp_path, name, force_r, peer, error):
        params = params_file(tmp_path, name)
        alice_priv, bob_pub = self._keygen(capsys, tmp_path, params, "alice", 1)
        if peer is not None:
            bob_pub = tmp_path / "order2.pub"
            bob_pub.write_text(json.dumps(peer))
        m = tmp_path / "m"
        m.write_bytes(b"m")
        rc = cli.main(["--params", params, "signcrypt", "--key",
                       alice_priv, "--peer", str(bob_pub), "--in", str(m),
                       "--force-r", force_r])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, "", f"error: {error}\n")

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
        n = fixtures.load(TOY16).n
        # s + n passes the verification equation wherever s does; so does
        # any s with R = O and a message hashing to 0 mod n
        config = SchemeConfig(params=fixtures.load(TOY16))
        zero_hash = next(m for m in (b"zero-%d" % i for i in range(1 << 20))
                         if hyh.hash_to_scalar(config, m) == 0)
        zero_message = tmp_path / "zero"
        zero_message.write_bytes(zero_hash)
        for fields, msg in [({"s": f"{int(honest['s'], 16) + n:x}"}, message),
                            ({"Rx": "00", "Ry": "inf", "s": "0"}, zero_message),
                            ({"Rx": "00", "Ry": "inf", "s": "1"}, zero_message)]:
            sct = tmp_path / "sct.json"
            sct.write_text(json.dumps({**honest, **fields}))
            rc, out = run(capsys, "--params", toy_params_file, "--mode", mode,
                          "verify", "--peer", alice_pub, "--in", str(sct),
                          "--message", str(msg))
            assert rc == code and json.loads(out)["valid"] is (code == 0)

    @pytest.mark.parametrize("mode", ["paper", "strict"])
    def test_verify_unreduced_small_order_ephemeral(self, capsys, tmp_path, mode):
        # the order-3 point of b' = b + 1 with q added to its x once made
        # public_verify raise a not-invertible ValueError, and verify exit 2
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
        # the affine law from the raw point, raised a not-invertible ValueError
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
        params = fixtures.load(TOY16)
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
        d = fixtures.load(TOY16).n if d == "n" else d
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
_WIRE_OBJECT = {**fixtures.params_to_dict(fixtures.load(TOY16)),
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

    def test_ephemeral_x_r_zero_is_no_candidate(self, capsys, tmp_path,
                                                toy_params_file):
        # R = O, H(M) = 0 mod n and s = 1 with r = 0: x_R*d_A = r*s - H(M)
        # holds for every d_A, so the triple says nothing of d_A, and no
        # search of [0, n) stands in for the key formula
        config = SchemeConfig(params=fixtures.load(TOY16))
        n = config.params.n
        files = {"sct": {"Rx": "00", "Ry": "inf", "s": "1",
                         "C": (attacks._zero_hash_message(n) + bytes(32)).hex()}}
        for name, d in (("sender", n - 2), ("recipient", 5)):
            files[name] = hyh.point_to_hex(hyh.keypair_from_secret(config, d).U, "U")
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        rc, out = run(capsys, "--params", toy_params_file, "attack", "ephemeral",
                      "--sct", str(tmp_path / "sct"), "--r", "0",
                      "--sender-pub", str(tmp_path / "sender"),
                      "--recipient-pub", str(tmp_path / "recipient"))
        report = json.loads(out)
        assert (rc, report["success"], report["recovered_secrets"]) == (1, False, {})
        assert [e["event"] for e in report["transcript"]] == ["decrypted",
                                                              "no_candidate"]

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
        _, _, bob = cli._stage(config, 7)
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
        obj = json.loads(fixtures.fixture_text(TOY16))
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


def _hostile_params(tmp_path, n, h=1):
    """The 19-point curve y^2 = x^3 + 2x + 2 over F_17, G = (0, 6), under a
    claimed n and h."""
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"q": "11", "a": "2", "b": "2", "Gx": "0",
                                "Gy": "6", "n": f"{n:x}", "h": f"{h:x}"}))
    return str(path)


@pytest.mark.parametrize("name", ["ephemeral", "forward-secrecy"])
def test_strict_leak_attacks_stage_nothing(capsys, tmp_path, name):
    # strict key validation refuses every key of the n = 5 file, but the
    # strict leak attacks draw no key and send nothing, so they report
    # blocked instead of exiting 2
    rc = cli.main(["--params", _hostile_params(tmp_path, 5), "--mode", "strict",
                   "attack", name])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (1, "")
    report = json.loads(captured.out)
    assert [e["event"] for e in report["transcript"]] == ["staging", "blocked"]


def test_hostile_parameters_end_in_an_exit_code(capsys, tmp_path):
    # y^2 = x^3 + 2x + 2 over F_17 has 19 points and G = (0, 6) generates
    # them; a params file may claim any n and h for it, and each run of
    # demo all and of keygen in either mode ends in exit 0, 1 or 2
    path = tmp_path / "hostile.json"
    escaped = {}
    for n in range(2, 30):
        for h in (1, 2, 4):
            path.write_text(json.dumps({"q": "11", "a": "2", "b": "2", "Gx": "0",
                                        "Gy": "6", "n": f"{n:x}", "h": f"{h:x}"}))
            for argv in (["demo", "all"], ["keygen"], ["--mode", "strict", "keygen"]):
                try:
                    rc = cli.main(["--params", str(path), *argv])
                except Exception as exc:
                    rc = f"{type(exc).__name__}: {exc}"
                if rc not in (0, 1, 2):
                    escaped[n, h, *argv] = rc
    capsys.readouterr()
    assert escaped == {}


def test_hostile_parameters_strict_refusals_are_reported(capsys, tmp_path):
    # over the pairs above, a strict refusal of the recipient key ends in the
    # attack's report, not in exit 2: the leak attacks and nonce-reuse report
    # blocked, except at n = 19, G's true order, where nonce-reuse runs on two
    # fresh ephemerals and fails; and demo all prints its table at every
    # pair, a paper staging with no usable ephemeral scalar as n/a
    last_events, demo_failures = {}, []
    for n in range(2, 30):
        for h in (1, 2, 4):
            params = _hostile_params(tmp_path, n, h)
            for name in ("ephemeral", "forward-secrecy", "nonce-reuse"):
                rc = cli.main(["--params", params, "--mode", "strict", "attack", name])
                captured = capsys.readouterr()
                assert (rc, captured.err) == (1, ""), (n, h, name)
                report = json.loads(captured.out)
                last_events[n, h, name] = report["transcript"][-1]["event"]
            rc = cli.main(["--params", params, "demo", "all"])
            captured = capsys.readouterr()
            if rc not in (0, 1) or captured.err:
                demo_failures.append((n, h, rc, captured.err))
    assert demo_failures == []
    assert {key: event for key, event in last_events.items() if event != "blocked"} == {
        (19, h, "nonce-reuse"): "staging" for h in (1, 2, 4)}


def test_strict_nonce_reuse_without_a_usable_r_is_not_staged(capsys, tmp_path):
    # an honest curve: y^2 = x^3 + 101x + 37 over F_173, G = (31, 75) of
    # order 5. Every x(r*G) = 1 mod 5, and at seed 1 d_A = -H(M2) mod 5, so
    # the second strict text has s = 0 under every r: nonce-reuse reports
    # not_staged, and demo all prints its table at seeds 0-3
    path = tmp_path / "f173.json"
    path.write_text(json.dumps({"q": "ad", "a": "65", "b": "25", "Gx": "1f",
                                "Gy": "4b", "n": "5", "h": "24"}))
    rc = cli.main(["--params", str(path), "--mode", "strict", "--seed", "1",
                   "attack", "nonce-reuse"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (1, "")
    assert json.loads(captured.out)["transcript"][-1] == {
        "event": "not_staged",
        "reason": "no usable ephemeral scalar found; recipient key degenerate?"}
    runs = []
    for seed in "0123":
        rc = cli.main(["--params", str(path), "--seed", seed, "demo", "all"])
        runs.append((seed, rc, capsys.readouterr().err))
    assert runs == [(seed, 0, "") for seed in "0123"]


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
    def test_uks_needs_no_possession_proof(self, capsys, tmp_path, mode, code,
                                           events):
        # n = 2 leaves no usable ephemeral scalar to sign a proof of
        # possession with, but uks makes none: the paper CA binds Alice's key
        # unasked, and the strict CA refuses that key before it reads a proof
        rc = cli.main(["--params", self._params(tmp_path, 11, 3, 2, 2),
                       "--mode", mode, "attack", "uks"])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (code, "")
        report = json.loads(captured.out)
        assert [e["event"] for e in report["transcript"]] == events

    def test_signcrypt_rng_failure_is_not_staged(self, capsys, tmp_path):
        # Bob's even secret makes U_B = O, so no ephemeral scalar is usable
        rc = cli.main(["--params", self._params(tmp_path, 23, 13, 7, 4),
                       "attack", "forward-secrecy"])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (1, "")
        assert json.loads(captured.out)["transcript"][-1] == {
            "event": "not_staged",
            "reason": "no usable ephemeral scalar found; recipient key degenerate?"}

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("name", ["ephemeral", "nonce-reuse"])
    def test_shared_r_staging_is_not_staged(self, capsys, tmp_path, name, seed):
        # n = 2 leaves r = 1 the one scalar to share, and under it a staged
        # message signcrypts to s = 0
        rc = cli.main(["--params", self._params(tmp_path, 11, 3, 2, 2),
                       "--seed", seed, "attack", name])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (1, "")
        assert json.loads(captured.out)["transcript"][-1] == {
            "event": "not_staged",
            "reason": "no usable ephemeral scalar found; recipient key degenerate?"}

    def test_keygen_of_identity_key_exits_two(self, capsys, tmp_path):
        rc = cli.main(["--params", self._params(tmp_path, 23, 13, 7, 4),
                       "--seed", "0", "keygen"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert "public key O" in err


class TestDemoAll:
    @pytest.mark.parametrize("name", [
        fixtures.GOOD, TOY16, fixtures.F23_N7, fixtures.SECP160R1,
        *BAD_FIXTURES])
    def test_default_seed_exit_code(self, capsys, tmp_path, name):
        # every bundled set runs its table, a composite n included
        rc, _ = run(capsys, "--params", params_file(tmp_path, name), "demo", "all")
        assert rc == 0

    def test_every_bundled_set_lands_each_paper_attack_it_stages(self):
        # seed 0: paper lands every attack it can stage, strict none, and
        # invalid-curve on secp160r1, with no small-order invalid curve to
        # stage it on, is the one row left n/a
        rows = {}
        for name in (fixtures.GOOD, TOY16, fixtures.F23_N7,
                     fixtures.SECP160R1, *BAD_FIXTURES):
            for row in cli.run_demo_all(fixtures.load(name), 0)["findings"]:
                rows[name, row["attack"]] = (row["paper_success"],
                                             row["strict_success"])
        assert len(rows) == 9 * len(cli.ATTACK_NAMES)
        assert {key: row for key, row in rows.items() if row != (True, False)} == {
            (fixtures.SECP160R1, "invalid-curve"): (None, None)}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 7, 11, 42])
    def test_composite_n_lands_every_paper_attack(self, capsys, tmp_path, seed):
        # the key formulas solve their congruence mod n = 2*10909 rather
        # than invert an even x_R or s, which has no inverse
        rc, out = run(capsys, "--params", params_file(tmp_path, COMPOSITE_N),
                      "--seed", str(seed), "demo", "all")
        summary = json.loads(out)
        assert rc == 0
        assert (summary["paper_successes"], summary["strict_successes"]) == (6, 0)

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

    def test_results_do_not_depend_on_the_comb_cache(self, f23):
        # a cleared comb cache, a warm one and one holding 16 foreign bases
        # give the same results, since a table depends on its base alone
        for name in (fixtures.GOOD, TOY16):
            params = fixtures.load(name)
            curve._comb_table.cache_clear()
            cold = cli.run_demo_all(params, 7)
            warm = cli.run_demo_all(params, 7)
            for x in range(curve._COMB_TABLES):
                curve.fixed_base_mul(f23, 5, (x, 1))
            misses = curve._comb_table.cache_info().misses
            foreign = cli.run_demo_all(params, 7)
            assert curve._comb_table.cache_info().misses > misses
            assert cold == warm == foreign
        config = SchemeConfig(params=fixtures.load(fixtures.SECP160R1))
        alice = hyh.keypair_from_secret(config, 1234)
        bob = hyh.keypair_from_secret(config, 5678)
        curve._comb_table.cache_clear()
        cold = hyh.signcrypt(config, alice.d, bob.U, b"m", rng_seed=7)
        assert hyh.signcrypt(config, alice.d, bob.U, b"m", rng_seed=7) == cold

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


def modules_loaded_by_cli_import(*names):
    # every CLI run and benchmark child pays the import; -S keeps
    # site-packages' start-up hooks out of the count
    src = str(Path(hyh.__file__).resolve().parent.parent)
    code = f"import sys, hyhlab.cli; print(*[m for m in {names!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    return result.stdout.split()


def test_cli_import_leaves_logging_unloaded():
    assert modules_loaded_by_cli_import("logging") == []


def test_cli_import_leaves_importlib_resources_unloaded():
    # the fixtures are read with open() beside fixtures.py, so the import
    # pays for none of importlib.resources, pathlib and tempfile
    assert modules_loaded_by_cli_import(
        "importlib.resources", "pathlib", "tempfile") == []
