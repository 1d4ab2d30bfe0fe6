"""Command-line front end.

Subcommands mirror the protocol (keygen / signcrypt / unsigncrypt / verify),
the validator (params validate), and the attack corpus (attack <name>,
demo all). Every run is reproducible: --seed pins all randomness and JSON
output is byte-identical for identical inputs.

Exit codes: 0 success / accepted, 1 failed check or rejected or attack
unsuccessful, 2 bad input or configuration.
"""

import argparse
import dataclasses
import functools
import json
import random
import sys
import time

from . import attacks, fixtures, hyh, paramcheck
from .attacks import AttackReport
from .curve import CurveParams, Point
from .hyh import SchemeConfig, SigncryptedText
from .numtheory import NotInvertible


# --- attack staging ----------------------------------------------------------
#
# Each scenario stages its own victims from the seed and then runs the attack
# against them; the attack's own report says whether it landed. In paper mode
# the staging includes the enabling misuse (a leaked or reused ephemeral
# scalar, a leaked long-term key). In strict mode the same traffic is staged
# without the misuse: nonce-reuse still runs on two fresh ephemerals, and the
# two leak attacks, which have no leaked secret to run on, are reported
# blocked. An attack that needs no misuse (invalid-curve, uks,
# degenerate-key) is staged the same way in both modes, and the checks of the
# recipient or the CA, which read the mode from the config, decide it.

def _keys(config: SchemeConfig, rng: random.Random) -> tuple[hyh.KeyPair, hyh.KeyPair]:
    alice = hyh.keypair_from_secret(config, rng.randrange(1, config.params.n))
    bob = hyh.keypair_from_secret(config, rng.randrange(1, config.params.n))
    return alice, bob


def _signcrypt_under_one_r(config: SchemeConfig, rng: random.Random,
                           d_a: int, u_b: Point, messages: tuple[bytes, ...]
                           ) -> tuple[int, list[SigncryptedText]]:
    """(r, texts): the messages signcrypted from d_a to u_b under the first
    r drawn from rng under which every one of them signcrypts. A degenerate
    r is drawn again, as ``hyh.signcrypt`` draws its own; a NotInvertible,
    as from a composite n, is no degenerate r and propagates."""
    for _ in range(hyh._RESAMPLE_LIMIT):
        r = rng.randrange(1, config.params.n)
        try:
            return r, [hyh.signcrypt(config, d_a, u_b, m, forced_r=r)
                       for m in messages]
        except NotInvertible:
            raise
        except ValueError:
            continue
    raise hyh.RngFailure("no ephemeral scalar signcrypts every staged message")


def _no_misuse(attack_name: str, **staging) -> AttackReport:
    """The report of a leak attack staged without its leak."""
    report = AttackReport(attack_name, success=False)
    report.log("staging", **staging)
    report.log("blocked", reason="no misuse staged: nothing leaked to attack with")
    return report


def scenario_ephemeral(config: SchemeConfig, seed: int) -> AttackReport:
    rng = random.Random(seed)
    alice, bob = _keys(config, rng)
    message = b"wire transfer: move the usual amount"
    if config.mode == hyh.PAPER:
        # the victim pre-computed (r, R) pairs and the store leaked
        r, (sct,) = _signcrypt_under_one_r(config, rng, alice.d, bob.U, (message,))
        report = attacks.recover_sender_key(config, alice.U, bob.U, sct, r)
        report.log("staging", leaked_ephemeral=True)
        return report
    # the victim still sends, and a params file it cannot send under is refused
    hyh.signcrypt(config, alice.d, bob.U, message, rng_seed=rng)
    return _no_misuse("recover_sender_key", leaked_ephemeral=False,
                      note="no precomputed (r, R) store to steal from")


def scenario_nonce_reuse(config: SchemeConfig, seed: int) -> AttackReport:
    rng = random.Random(seed)
    alice, bob = _keys(config, rng)
    m1 = b"first message, padded to equal size."
    m2 = b"second message, same size as first!!!"[: len(m1)]
    shared = config.mode == hyh.PAPER
    if shared:
        _, (sct1, sct2) = _signcrypt_under_one_r(config, rng, alice.d, bob.U, (m1, m2))
    else:
        sct1, sct2 = (hyh.signcrypt(config, alice.d, bob.U, m, rng_seed=rng)
                      for m in (m1, m2))
    report = attacks.nonce_reuse_recover(config, sct1, sct2, m1)
    report.log("staging", shared_ephemeral=shared, same_R=sct1.R == sct2.R)
    return report


def scenario_invalid_curve(config: SchemeConfig, seed: int) -> AttackReport:
    rng = random.Random(seed)
    _, bob = _keys(config, rng)
    oracle = attacks.ConfirmationOracle(bob.d, config)
    return attacks.invalid_curve_attack(config, bob.U, oracle)


def scenario_uks(config: SchemeConfig, seed: int) -> AttackReport:
    rng = random.Random(seed)
    alice, bob = _keys(config, rng)
    return attacks.uks_scenario(config, alice, bob, rng_seed=seed)


def scenario_forward_secrecy(config: SchemeConfig, seed: int) -> AttackReport:
    rng = random.Random(seed)
    alice, bob = _keys(config, rng)
    message = b"old traffic, recorded long ago"
    sct = hyh.signcrypt(config, alice.d, bob.U, message, rng_seed=rng)
    if config.mode == hyh.PAPER:
        # the long-term key later leaks; recorded traffic falls
        report = attacks.break_forward_secrecy(config, alice.d, bob.U, sct, message)
        report.log("staging", long_term_key_leaked=True)
        return report
    return _no_misuse("break_forward_secrecy", long_term_key_leaked=False,
                      note="long-term key stayed in protected storage")


def scenario_degenerate_key(config: SchemeConfig, seed: int) -> AttackReport:
    return attacks.degenerate_key_demo(config, rng_seed=seed)


SCENARIOS = {
    "ephemeral": scenario_ephemeral,
    "nonce-reuse": scenario_nonce_reuse,
    "invalid-curve": scenario_invalid_curve,
    "uks": scenario_uks,
    "forward-secrecy": scenario_forward_secrecy,
    "degenerate-key": scenario_degenerate_key,
}
ATTACK_NAMES = tuple(SCENARIOS)
INTERCEPTED_FLAGS = "--sct/--r/--sender-pub/--recipient-pub"


def run_demo_all(params: CurveParams, seed: int) -> dict:
    """Every attack in both modes; the mode-duality summary table. An attack
    that could not be staged (a ``not_staged`` event) has success None: it
    neither landed nor was held, and paper mode is not expected to land it."""
    findings = []
    for name in ATTACK_NAMES:
        row = {"attack": name}
        for mode in (hyh.PAPER, hyh.STRICT):
            config = SchemeConfig(params=params, mode=mode)
            report = SCENARIOS[name](config, seed)
            staged = all(e["event"] != "not_staged" for e in report.transcript)
            row[f"{mode}_success"] = report.success if staged else None
        findings.append(row)
    paper_total = sum(r["paper_success"] is True for r in findings)
    strict_total = sum(r["strict_success"] is True for r in findings)
    paper_staged = sum(r["paper_success"] is not None for r in findings)
    return {
        "findings": findings,
        "paper_successes": paper_total,
        "strict_successes": strict_total,
        "expected": {"paper_successes": paper_staged, "strict_successes": 0},
    }


# --- input/output ------------------------------------------------------------

def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from None


def _write(path: str, data: str | bytes):
    try:
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValueError(str(exc)) from None


def _load(path: str, parse, refusal: str = "{}"):
    """What ``parse`` makes of the JSON object in the file at path. Bad
    input ends in exit 2: an unreadable file, JSON that is not an object,
    or a parser's KeyError, ValueError or TypeError, which prints
    ``path: `` and ``refusal.format(error)``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        return parse(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"{path}: " + refusal.format(exc)) from None


def load_params(path: str | None) -> CurveParams:
    if path is None:
        return fixtures.load(fixtures.GOOD)
    return _load(path, fixtures.params_from_dict)


def _load_private(path: str, n: int) -> int:
    d = _load(path, lambda obj: hyh.int_from_hex(obj["d"]),
              'expected a private key file {{"d": hex}}')
    if not 1 <= d < n:
        raise ValueError(f"{path}: private key out of range [1, n-1]")
    return d


def _public_key(obj: dict) -> Point:
    U = hyh.point_from_hex(obj, "U")
    if U is None:
        raise ValueError("a public key is never O")
    return U


def _load_public(path: str) -> Point:
    return _load(path, _public_key,
                 'expected a public key file {{"Ux": hex, "Uy": hex}}')


def _load_sct(path: str) -> SigncryptedText:
    return _load(path, hyh.sct_from_dict, "bad signcrypted text: {}")


def _emit(args, payload: dict, text_lines: list[str], copy_to_out: bool = True):
    if args.format == "json":
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        rendered = "\n".join(text_lines) + "\n"
    if copy_to_out and args.out:
        _write(args.out, rendered)
    sys.stdout.write(rendered)


# --- commands ----------------------------------------------------------------

def cmd_params_validate(args) -> int:
    params = load_params(args.params)
    report = paramcheck.validate_domain_params(params)
    lines = [f"{'check':24} result  detail"]
    for c in report.checks:
        lines.append(f"{c.name:24} {'pass' if c.passed else 'FAIL':6}  {c.detail}")
    lines.append(f"overall: {'pass' if report.overall else 'FAIL'}")
    _emit(args, report.to_dict(), lines)
    return 0 if report.overall else 1


def cmd_keygen(args) -> int:
    config = _config(args)
    keypair = hyh.gen(config, rng_seed=args.seed)
    if keypair.U is None:
        raise ValueError(f"secret {keypair.d:x} gives the public key O; "
                         "G does not have order n")
    pub = hyh.point_to_hex(keypair.U, "U")
    if args.out:
        _write(args.out, json.dumps({"d": f"{keypair.d:x}"}, indent=2, sort_keys=True))
        _write(args.out + ".pub", json.dumps(pub, indent=2, sort_keys=True))
    payload = {"d": f"{keypair.d:x}", **pub}
    # --out names the key file here, so the printed copy stays on stdout
    _emit(args, payload,
          [f"d  = {keypair.d:x}", f"Ux = {pub['Ux']}", f"Uy = {pub['Uy']}"],
          copy_to_out=False)
    return 0


def cmd_signcrypt(args) -> int:
    config = _config(args)
    d_a = _load_private(args.key, config.params.n)
    u_b = _load_public(args.peer)
    message = _read_bytes(args.infile)
    forced_r = hyh.int_from_hex(args.force_r) if args.force_r else None
    sct = hyh.signcrypt(config, d_a, u_b, message,
                        rng_seed=args.seed, forced_r=forced_r)
    payload = hyh.sct_to_dict(sct)
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return 0


def cmd_unsigncrypt(args) -> int:
    config = _config(args)
    d_b = _load_private(args.key, config.params.n)
    u_a = _load_public(args.peer)
    sct = _load_sct(args.infile)
    message = hyh.unsigncrypt(config, d_b, u_a, sct)
    if message is None:
        payload, lines = {"accepted": False}, ["rejected"]
    elif args.out:
        _write(args.out, message)
        payload, lines = {"accepted": True, "out": args.out}, [f"wrote {args.out}"]
    else:
        payload, lines = {"accepted": True, "message": message.hex()}, [message.hex()]
    # --out names the plaintext file here, so the report stays on stdout
    _emit(args, payload, lines, copy_to_out=False)
    return 0 if message is not None else 1


def cmd_verify(args) -> int:
    config = _config(args)
    u_a = _load_public(args.peer)
    sct = _load_sct(args.infile)
    message = _read_bytes(args.message)
    ok = hyh.public_verify(config, u_a, message, sct.R, sct.s)
    _emit(args, {"valid": ok}, ["valid" if ok else "invalid"])
    return 0 if ok else 1


def cmd_attack(args) -> int:
    config = _config(args)
    intercepted = (args.sct, args.r, args.sender_pub, args.recipient_pub)
    if intercepted == (None,) * 4:
        attack = functools.partial(SCENARIOS[args.name], config, args.seed)
    elif args.name != "ephemeral":
        raise ValueError(f"attack {args.name} takes no intercepted files; "
                         "it stages its own victims")
    elif None in intercepted:
        raise ValueError(f"attack ephemeral takes all of {INTERCEPTED_FLAGS} "
                         "or none")
    else:
        sct = _load_sct(args.sct)
        attack = functools.partial(
            attacks.recover_sender_key, config, _load_public(args.sender_pub),
            _load_public(args.recipient_pub), sct, hyh.int_from_hex(args.r))
    t0 = time.monotonic()
    report = attack()
    _emit_report(args, report, time.monotonic() - t0)
    return 0 if report.success else 1


def _emit_report(args, report: AttackReport, wall_time: float):
    """The report as JSON, or as text with the wall time, which the JSON
    leaves out so it stays reproducible."""
    lines = [f"attack:  {report.attack_name}",
             f"success: {report.success}",
             f"oracle queries: {report.oracle_queries}",
             f"wall time: {wall_time:.3f}s"]
    for k, v in report.recovered_secrets.items():
        lines.append(f"recovered {k} = {v}")
    for event in report.transcript:
        lines.append("  " + json.dumps(event, sort_keys=True))
    _emit(args, dataclasses.asdict(report), lines)


def cmd_demo_all(args) -> int:
    params = load_params(args.params)
    summary = run_demo_all(params, args.seed)
    verdicts = {True: "BROKEN", False: "held", None: "n/a"}
    lines = [f"{'attack':<18} paper    strict"]
    for row in summary["findings"]:
        lines.append(f"{row['attack']:<18} "
                     f"{verdicts[row['paper_success']]:<8} "
                     f"{verdicts[row['strict_success']]}")
    lines.append(f"paper-mode attacks landed: {summary['paper_successes']}"
                 f"/{len(ATTACK_NAMES)}")
    lines.append(f"strict-mode attacks landed: {summary['strict_successes']}"
                 f"/{len(ATTACK_NAMES)}")
    _emit(args, summary, lines)
    expected = summary["expected"]
    ok = (summary["paper_successes"] == expected["paper_successes"]
          and summary["strict_successes"] == expected["strict_successes"])
    return 0 if ok else 1


def _config(args) -> SchemeConfig:
    return SchemeConfig(params=load_params(args.params), mode=args.mode)


# --- parser ------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hyhlab",
        description="HYH signcryption lab: run the scheme, validate "
                    "parameters, and reproduce the attacks. The global "
                    "options --params, --mode, --seed, --out and --format go "
                    "before the subcommand, as in "
                    "hyhlab --seed 1 --mode strict attack uks.",
    )
    parser.add_argument("--params", metavar="PATH",
                        help="curve parameter file (default: bundled good set)")
    parser.add_argument("--mode", choices=(hyh.PAPER, hyh.STRICT),
                        default=hyh.PAPER)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomness (default 0)")
    parser.add_argument("--out", metavar="PATH", help="also write output here")
    parser.add_argument("--format", choices=("json", "text"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="parameter tooling")
    params_sub = p_params.add_subparsers(dest="subcommand", required=True)
    params_sub.add_parser("validate", help="run the nine-check validator")
    p_params.set_defaults(func=cmd_params_validate)

    p_keygen = sub.add_parser(
        "keygen", help="generate a key pair; --out F keygen writes F and F.pub")
    p_keygen.set_defaults(func=cmd_keygen)

    p_sc = sub.add_parser("signcrypt")
    p_sc.add_argument("--key", required=True, help="sender private key file")
    p_sc.add_argument("--peer", required=True, help="recipient public key file")
    p_sc.add_argument("--in", dest="infile", required=True, help="message file")
    p_sc.add_argument("--force-r", metavar="HEX",
                      help="pin the ephemeral scalar (attack staging)")
    p_sc.set_defaults(func=cmd_signcrypt)

    p_usc = sub.add_parser("unsigncrypt")
    p_usc.add_argument("--key", required=True, help="recipient private key file")
    p_usc.add_argument("--peer", required=True, help="sender public key file")
    p_usc.add_argument("--in", dest="infile", required=True,
                       help="signcrypted text file")
    p_usc.set_defaults(func=cmd_unsigncrypt)

    p_ver = sub.add_parser("verify", help="public verification of (M, R, s)")
    p_ver.add_argument("--peer", required=True, help="sender public key file")
    p_ver.add_argument("--in", dest="infile", required=True,
                       help="signcrypted text file")
    p_ver.add_argument("--message", required=True, help="claimed plaintext file")
    p_ver.set_defaults(func=cmd_verify)

    p_atk = sub.add_parser(
        "attack", help="run one attack scenario",
        description="Run one attack on victims and traffic staged in-process "
                    "from --seed. attack ephemeral runs on intercepted files "
                    f"instead when given all of {INTERCEPTED_FLAGS}.")
    p_atk.add_argument("name", choices=ATTACK_NAMES)
    p_atk.add_argument("--sct", help="intercepted signcrypted text file")
    p_atk.add_argument("--r", metavar="HEX", help="leaked ephemeral scalar")
    p_atk.add_argument("--sender-pub", help="sender public key file")
    p_atk.add_argument("--recipient-pub", help="recipient public key file")
    p_atk.set_defaults(func=cmd_attack)

    p_demo = sub.add_parser("demo", help="run the whole attack corpus")
    demo_sub = p_demo.add_subparsers(dest="subcommand", required=True)
    demo_sub.add_parser("all", help="all attacks, both modes, one table")
    p_demo.set_defaults(func=cmd_demo_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, hyh.RngFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
