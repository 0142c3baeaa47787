import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddlab
from ddlab.cli import _pool_size, build_parser, main


def _cli_env():
    """The environment for a `python -m ddlab.cli` subprocess: this ddlab first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ddlab.__file__).parents[1])] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


@pytest.fixture()
def dd1_file(tmp_path):
    path = tmp_path / "dd1.json"
    path.write_text(json.dumps({"base_vars": [], "d": 1, "e": 2, "P": "Z^2 - 1", "Q": "Y^2 + Z"}))
    return str(path)


@pytest.fixture()
def dd2_file(tmp_path):
    path = tmp_path / "dd2.json"
    path.write_text(json.dumps({"base_vars": [], "d": 1, "e": 1, "P": "Z^2 - 1", "Q": "Y^2 + Z"}))
    return str(path)


@pytest.fixture()
def s1_file(tmp_path):
    path = tmp_path / "s1.json"
    path.write_text(json.dumps({"base_vars": [], "d": 1, "e": 1, "P": "Z^2", "Q": "2*Y"}))
    return str(path)


class TestBasicCommands:
    def test_validate_pass(self, dd1_file, capsys):
        assert main(["validate", dd1_file]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_validate_fail_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"base_vars": [], "d": 1, "e": 1, "P": "X", "Q": "Y"}))
        assert main(["validate", str(path)]) == 1

    def test_invariants(self, dd1_file, capsys):
        assert main(["invariants", dd1_file]) == 0
        out = capsys.readouterr().out
        assert "(d,e,r,s) = (1, 2, 2, 2)" in out

    def test_omega3(self, dd1_file, capsys):
        assert main(["omega3", dd1_file]) == 0

    def test_lnd(self, dd1_file, capsys):
        assert main(["lnd", dd1_file]) == 0
        out = capsys.readouterr().out
        assert "well defined: True" in out
        assert "nilpotency index of T: 4" in out

    def test_exp(self, dd1_file, capsys):
        assert main(["exp", dd1_file]) == 0
        out = capsys.readouterr().out
        assert "axioms: PASS" in out

    def test_fiber(self, dd1_file, capsys):
        assert main(["fiber", dd1_file]) == 0
        out = capsys.readouterr().out
        assert "Z^2 - 1" in out

    def test_file_not_found_exit_two(self, capsys):
        assert main(["validate", "/nonexistent/file.json"]) == 2

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"base_vars": [], "d": 1, "e": 1, "P": "Z +* 1", "Q": "Y"}))
        assert main(["validate", str(path)]) == 2


class TestMember:
    def test_member(self, dd1_file, capsys):
        code = main(["member", dd1_file, "--element", '{"-1": "Z^2 - 1"}'])
        assert code == 0
        out = capsys.readouterr().out
        assert "witness Y" in out

    def test_non_member(self, dd1_file, capsys):
        code = main(["member", dd1_file, "--element", '{"-1": "Z - 1"}'])
        assert code == 1
        out = capsys.readouterr().out
        assert "not a member" in out
        assert "level -1: remainder Z - 1 modulo (Z^2 - 1)^1" in out

    def test_easy_non_member_at_a_large_shift(self, dd1_file, capsys):
        # refused at its lowest level -200, whose coefficient has z-degree 199
        # < 200, the degree of the divisor (Z^2 - 1)^100, which is never built
        code = main(["member", dd1_file, "--json", "--element", '{"-200": "(Z^2-1)^99*Z"}'])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["member"] is False and report["witness"] is None
        cert = report["certificate"]
        assert (cert["level"], cert["divisor"]) == (-200, "(Z^2 - 1)^100")
        assert cert["completeness"]["passed"]

    def test_non_member_at_a_level_past_the_32_bit_fields(self, tmp_path, capsys):
        # x's exponent -(2^32 + 1) is the signed top field of the packed keys;
        # J = 1610612737 is the least J with 2*J + 2*floor(J/3) >= 2^32 + 1
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"base_vars": [], "d": 2, "e": 2, "P": "Z^4 + 1", "Q": "Y^3 + Z"}))
        assert main(["member", str(path), "--element", '{"-4294967297": "1"}']) == 1
        out = capsys.readouterr().out
        assert "level -4294967297: remainder 1 modulo (Z^4 + 1)^1610612737" in out

    def test_incomplete_division_is_an_error_line(self, dd1_file, capsys, monkeypatch):
        # with P(0,Z) dropped from I0 the completeness report fails: one
        # error line and exit 2 instead of an answer
        from ddlab import elements

        original = elements._initial_relations
        monkeypatch.setattr(elements, "_initial_relations", lambda p, ctx: [
            rel + p.p_at_x0().transfer(ctx) if k == 0 else rel
            for k, rel in enumerate(original(p, ctx))])
        assert main(["member", dd1_file, "--element", '{"-1": "Z - 1"}']) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: x-adic division not known to be complete")

    def test_with_adjoined(self, dd1_file, capsys):
        code = main(["member", dd1_file, "--adjoin", "W1",
                     "--element", '{"1": "W1", "0": "Z"}'])
        assert code == 0

    def test_missing_element_flag(self, dd1_file):
        assert main(["member", dd1_file]) == 2


class TestIsoCommands:
    def test_transport_and_verify(self, dd1_file, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "lambda1": "1", "mu1": "1", "beta1_tilde": "1", "g2_prime": "1",
            "delta1": "0", "alpha1_tilde": "1", "g1_prime": "0",
        }))
        out_file = tmp_path / "transport.json"
        code = main(["iso-transport", dd1_file, "--data", str(data), "--out", str(out_file)])
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["target"]["P"] == "Z^2 + X - 1"

        target = tmp_path / "target.json"
        target.write_text(json.dumps(report["target"]))
        fwd = tmp_path / "fwd.json"
        fwd.write_text(json.dumps({"images": report["forward"]}))
        bwd = tmp_path / "bwd.json"
        bwd.write_text(json.dumps({"images": report["backward"]}))
        code = main(["iso-verify", dd1_file, "--target", str(target),
                     "--forward", str(fwd), "--backward", str(bwd)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mutually inverse pair: PASS" in out

    @pytest.mark.parametrize("number, text", [("0.1", "1/10"), ("2.5e-1", "1/4")])
    def test_data_numbers_are_exact_decimals(self, dd1_file, tmp_path, capsys, number, text):
        reports = []
        for value in (number, json.dumps(text)):
            data = tmp_path / "data.json"
            data.write_text('{"lambda1": %s, "mu1": "1", "beta1_tilde": "1", "g2_prime": "1"}' % value)
            assert main(["iso-transport", dd1_file, "--data", str(data), "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert reports[0]["data"]["lambda1"] == text

    def test_verify_bad_hom(self, dd1_file, tmp_path, capsys):
        fwd = tmp_path / "fwd.json"
        fwd.write_text(json.dumps({"images": {"X": "0", "Y": "Y", "Z": "Z", "T": "T"}}))
        code = main(["iso-verify", dd1_file, "--target", dd1_file, "--forward", str(fwd)])
        assert code == 1

    def _images(self, tmp_path, name, images):
        path = tmp_path / name
        path.write_text(json.dumps({"images": images}))
        return str(path)

    def test_verify_pair_that_is_not_inverse(self, dd1_file, tmp_path, capsys):
        sigma = self._images(tmp_path, "sigma.json", {"X": "-X", "Y": "-Y", "Z": "Z", "T": "T"})
        identity = self._images(tmp_path, "id.json", {"X": "X", "Y": "Y", "Z": "Z", "T": "T"})
        code = main(["iso-verify", dd1_file, "--target", dd1_file, "--forward", sigma,
                     "--backward", identity])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            "forward homomorphism: PASS", "backward homomorphism: PASS", "mutually inverse pair: FAIL"]

    def test_backward_verifies_each_map_once(self, dd1_file, tmp_path, monkeypatch, capsys):
        from ddlab import cli, isomorphisms

        original = isomorphisms.verify_hom
        verified = []

        def counted(h):
            verified.append(h)
            return original(h)

        monkeypatch.setattr(isomorphisms, "verify_hom", counted)
        monkeypatch.setattr(cli, "verify_hom", counted)
        sigma = self._images(tmp_path, "sigma.json", {"X": "-X", "Y": "-Y", "Z": "Z", "T": "T"})
        code = main(["iso-verify", dd1_file, "--target", dd1_file, "--forward", sigma,
                     "--backward", sigma, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report)[-3:] == ["forward_verified", "backward_verified", "pair_verified"]
        assert len(verified) == 2

    def test_transport_needs_r_above_one(self, tmp_path, capsys):
        path = tmp_path / "pz.json"
        path.write_text(json.dumps({**DD1, "P": "Z"}))
        data = tmp_path / "data.json"
        data.write_text(json.dumps(ISO_UNITS))
        message = "transport requires deg_Z P(0,Z) > 1, got r = 1"
        assert main(["iso-transport", str(path), "--data", str(data)]) == 1
        assert capsys.readouterr().out.splitlines() == [f"transport failed: {message}"]
        assert main(["iso-transport", str(path), "--data", str(data), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == message

    def test_transport_pair_failure(self, dd1_file, tmp_path, monkeypatch, capsys):
        from ddlab import isomorphisms
        from ddlab.presentations import CheckItem, Report

        failed = Report((CheckItem("mutually inverse pair", False),))
        monkeypatch.setattr(isomorphisms, "verify_iso_pair", lambda h, hinv: failed)
        data = tmp_path / "data.json"
        data.write_text(json.dumps(ISO_UNITS))
        assert main(["iso-transport", dd1_file, "--data", str(data)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "transport failed: constructed transport pair failed verification"]

    def test_distinguish(self, dd1_file, dd2_file, capsys):
        code = main(["distinguish", dd1_file, "--other", dd2_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "not R-isomorphic" in out

    def test_distinguish_inconclusive(self, dd1_file, capsys):
        assert main(["distinguish", dd1_file, "--other", dd1_file]) == 1


class TestCancelCert:
    def test_dd1_certificate(self, dd1_file, tmp_path, capsys):
        out_file = tmp_path / "cert.json"
        code = main(["cancel-cert", dd1_file, "--out", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: non-cancellation pair certified" in out
        assert "f = X^2*W1 + Z" in out
        cert = json.loads(out_file.read_text())
        assert cert["schema"] == "dd-lab/2"
        assert cert["verdict"] == "non-cancellation pair certified"

    def test_rejected_e_one(self, dd2_file, capsys):
        assert main(["cancel-cert", dd2_file]) == 1

    @pytest.mark.parametrize("flags, renders", [([], 0), (["--json"], 1)])
    def test_json_is_built_only_when_rendered(self, dd1_file, capsys, monkeypatch, flags, renders):
        from ddlab.cancellation import CancellationCertificate

        original = CancellationCertificate.to_json
        calls = []

        def counted(cert):
            calls.append(cert)
            return original(cert)

        monkeypatch.setattr(CancellationCertificate, "to_json", counted)
        assert main(["cancel-cert", dd1_file, *flags]) == 0
        assert len(calls) == renders
        out = capsys.readouterr().out
        assert ("f = X^2*W1 + Z" in out) == (not flags)

    def test_failure_after_f_prints_f_only(self, dd1_file, capsys, monkeypatch):
        # f is built, g and h are not: the text shows f and the failed stage
        from ddlab import cancellation

        def fails(f, phi, budget):
            raise cancellation.PipelineError("injected")

        monkeypatch.setattr(cancellation, "compute_g_h", fails)
        assert main(["cancel-cert", dd1_file]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "f = X^2*W1 + Z",
            "ok: guards and unit-ideal conditions",
            "ok: exponential map built and checked",
            "ok: invariant element f built and fixed by the map",
            "FAIL: compute_g_h (injected)",
            "verdict: failed at compute_g_h: injected",
        ]


class TestDanielewskiReduce:
    def test_reduce(self, s1_file, capsys):
        assert main(["danielewski-reduce", s1_file]) == 0
        out = capsys.readouterr().out
        assert "X^2*T - (Z^2)" in out

    def test_s_two_rejected(self, dd1_file):
        assert main(["danielewski-reduce", dd1_file]) == 2


class TestOutputModes:
    def test_json_flag(self, dd1_file, capsys):
        assert main(["invariants", dd1_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "dd-lab/2"
        assert payload["tuple"] == [1, 2, 2, 2]

    def test_multiple_inputs_and_jobs(self, dd1_file, dd2_file, capsys):
        code = main(["invariants", dd1_file, dd2_file, "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(1, 2, 2, 2)" in out
        assert "(1, 1, 2, 2)" in out

    def test_out_with_multiple_inputs(self, dd1_file, dd2_file, tmp_path, capsys):
        out_file = tmp_path / "multi.json"
        assert main(["invariants", dd1_file, dd2_file, "--out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert isinstance(report, list) and len(report) == 2

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("count", [1, 3])
    def test_out_file_is_the_indented_json_of_the_payloads(self, dd1_file, dd2_file, tmp_path, count,
                                                           json_flag, capsys):
        # one payload, or the list of three of them, as json.dumps(..., indent=2)
        # writes it; exp nests lists in dicts, and the broken input gives an
        # error payload
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({"base_vars": [], "d": 1, "e": 1, "P": "Z +* 1", "Q": "Y"}))
        inputs = [dd1_file, str(broken), dd2_file][:count]
        out_file = tmp_path / "report.json"
        main(["exp", *inputs, "--out", str(out_file), *json_flag])
        stdout = capsys.readouterr().out
        text = out_file.read_text(encoding="utf-8")
        payloads = [json.loads(text)] if count == 1 else json.loads(text)
        assert len(payloads) == count
        assert text == json.dumps(payloads[0] if count == 1 else payloads, indent=2)
        assert [p["input"] for p in payloads] == inputs
        if json_flag:
            assert stdout == "".join(json.dumps(p, indent=2) + "\n" for p in payloads)

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_exits_two_with_one_line(self, dd1_file, tmp_path, where, capsys):
        out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        assert main(["validate", dd1_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "PASS" in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write --out {out}: ")

    def test_closed_stdout_ends_quietly(self, dd1_file, tmp_path):
        # as `ddlab cancel-cert a.json b.json --json | head -c 5`, with the
        # reader gone before the first write
        second = tmp_path / "second.json"
        second.write_text(json.dumps({**DD1, "P": "Z^3 - 1"}))
        out_file = tmp_path / "report.json"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ddlab.cli", "cancel-cert", dd1_file, str(second),
                 "--json", "--out", str(out_file)],
                stdout=write_end, stderr=subprocess.PIPE, env=_cli_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr.decode() == ""
        assert proc.returncode == 0
        assert len(json.loads(out_file.read_text())) == 2


class TestLimits:
    @pytest.mark.parametrize("flags", [["--budget", "0"], ["--budget", "-3"], ["--cap", "-1"],
                                       ["--jobs", "0"], ["--jobs", "-2"]])
    def test_out_of_range_rejected_with_one_line(self, dd1_file, flags, capsys):
        command = {"--budget": "omega3", "--cap": "lnd", "--jobs": "invariants"}[flags[0]]
        assert main([command, dd1_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flags[0]} must be at least")

    def test_budget_is_used_as_given(self, dd1_file, capsys):
        assert main(["cancel-cert", dd1_file, "--budget", "1"]) == 1
        assert "budget of 1 steps exceeded" in capsys.readouterr().out
        assert main(["cancel-cert", dd1_file]) == 0

    def test_member_budget_pays_for_the_completeness_premises(self, tmp_path, capsys):
        # Z*x^-1 is refused at once; the premises that make the refusal an
        # answer are computed under the call's budget, which runs out
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({**DD1, "d": 129}))
        assert main(["member", str(path), "--element", '{"-1": "Z"}', "--budget", "1000"]) == 2
        assert capsys.readouterr().out == "error: Groebner step budget of 1000 steps exceeded\n"

    def test_cap_zero_accepted(self, dd1_file, capsys):
        assert main(["lnd", dd1_file, "--cap", "0"]) == 1
        assert "cap exceeded" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["member", "--element", '{"-1000000000": "Z^2 - 1"}', "--budget", "10"],
        ["cancel-cert"],
    ])
    def test_time_does_not_grow_with_d(self, tmp_path, command):
        # d = 10^9: the x-adic division visits only the levels that hold
        # terms, not the 10^9 - 1 empty ones above y's lowest level
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({**DD1, "d": 10 ** 9}))
        proc = subprocess.run([sys.executable, "-m", "ddlab.cli", command[0], str(path), *command[1:]],
                              capture_output=True, env=_cli_env(), timeout=5)
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()


class TestFlags:
    """Each subcommand accepts only the flags its handler reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--budget", "3"],
            ["validate", "--cap", "2"],
            ["omega3", "--order", "lex"],
            ["omega3", "--cap", "2"],
            ["lnd", "--budget", "3"],
            ["exp", "--budget", "3"],
            ["fiber", "--cap", "2"],
            ["member", "--jobs", "2"],
            ["invariants", "--order", "lex"],
            ["danielewski-reduce", "--cap", "2"],
        ],
        ids=lambda argv: "-".join(a.strip("-") for a in argv[:2]),
    )
    def test_removed_flag_exits_two(self, dd1_file, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], dd1_file, *argv[1:]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_flag_count(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: sorted(o for a in sp._actions for o in a.option_strings if o.startswith("--"))
                 for name, sp in sub.choices.items()}
        settable = {"--order", "--budget", "--cap", "--jobs", "--json", "--out"}
        assert sum(len(settable.intersection(f)) for f in flags.values()) == 39
        assert [n for n, f in flags.items() if "--budget" in f] == ["omega3", "fiber", "member", "cancel-cert"]
        assert [n for n, f in flags.items() if "--cap" in f] == ["lnd", "exp", "cancel-cert"]
        assert [n for n, f in flags.items() if "--jobs" in f] == [
            "validate", "invariants", "omega3", "lnd", "exp", "fiber", "cancel-cert", "danielewski-reduce"]


class TestPoolSize:
    @pytest.mark.parametrize(
        "jobs, inputs, cpus, expected",
        [
            (4, 7, 2, 2),
            (8, 3, 16, 3),
            (2, 7, 8, 2),
            (1, 5, 8, 1),
            (0, 5, 8, 1),
            (-2, 5, 8, 1),
            (4, 1, 8, 1),
            (4, 5, None, 1),
            (10**6, 10**6, 2, 2),
        ],
    )
    def test_clamped_to_inputs_and_cpus(self, jobs, inputs, cpus, expected):
        assert _pool_size(jobs, inputs, cpus) == expected


DD1 = {"base_vars": [], "d": 1, "e": 2, "P": "Z^2 - 1", "Q": "Y^2 + Z"}


class TestMalformedInput:
    """Bad records and expressions exit 2 with one error line and no traceback."""

    @pytest.mark.parametrize(
        "record, message",
        [
            ([DD1], "expected an object, got list"),
            ({**DD1, "Q": 5}, "Q must be a string, got 5"),
            ({**DD1, "base_vars": [5]}, "base_vars must be a list of strings, got [5]"),
            ({**DD1, "base_vars": "ab"}, "base_vars must be a list of strings, got 'ab'"),
            ({**DD1, "base_vars": ["1a"]}, "base variable '1a' is not a variable name"),
            ({**DD1, "d": 2.7}, "d must be an integer, got 2.7"),
            ({**DD1, "d": True}, "d must be an integer, got True"),
            ({**DD1, "P": "(" * 3000 + "Z" + ")" * 3000}, "nested more than 100 deep"),
            ({**DD1, "P": "Z*" + "-" * 3000 + "Z"}, "nested more than 100 deep"),
            ({**DD1, "P": "(Z+1)^200000"}, "degree 200000 exceeds the limit of 1000"),
            ({**DD1, "P": "(X+Y+Z+T+1)^40"}, "term products exceed the limit of 1000000"),
        ],
        ids=["list", "Q-int", "base_vars-int", "base_vars-str", "base_vars-name", "d-float", "d-bool",
             "parentheses", "signs", "power", "power-terms"],
    )
    @pytest.mark.parametrize("command", ["validate", "invariants"])
    def test_exits_two_with_one_error_line(self, tmp_path, capsys, record, message, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
        assert "Traceback" not in captured.err


ISO_UNITS = {"lambda1": "1", "mu1": "1", "beta1_tilde": "1", "g2_prime": "1"}


class TestMalformedJsonArguments:
    """Bad --element, --data and --forward contents exit 2 with one error line."""

    def _assert_one_error_line(self, capsys, message):
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "element, message",
        [
            ("[1]", "--element must be a JSON object, got list"),
            ('{"1": 5}', "each --element coefficient must be a string, got int"),
            # two keys for one exponent would drop one of the coefficients
            ('{"-1": "Z^2 - 1", "-01": "Z"}', "keys '-1' and '-01' name the same exponent -1"),
            ('{"-1": "Z^2 - 1", "-1": "Z"}', "key '-1' is repeated"),
            # int() alone reads "1_0" as 10 and an Arabic-Indic three as 3
            ('{"1_0": "Z"}', "key '1_0' is not an integer in ASCII digits"),
            ('{"\u0663": "Z"}', "key '\u0663' is not an integer in ASCII digits"),
            ('{"0": "Z^\u0663"}', "unexpected character '\u0663'"),
        ],
        ids=["list", "int-coefficient", "one-exponent-two-keys", "repeated-key", "underscore-key",
             "non-ascii-key", "non-ascii-exponent"],
    )
    def test_member_element(self, dd1_file, capsys, element, message):
        assert main(["member", dd1_file, "--element", element]) == 2
        self._assert_one_error_line(capsys, message)

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1], "isomorphism data must be a JSON object, got list"),
            ({**ISO_UNITS, "lambda1": [1]}, "lambda1 must be a number or a string, got list"),
            ({**ISO_UNITS, "delta1": 3}, "delta1 must be a string, got int"),
            ({**ISO_UNITS, "lambda1": "1/0"}, "bad isomorphism data: Fraction(1, 0)"),
            ({**ISO_UNITS, "lambda1": float("inf")},
             "bad isomorphism data: cannot convert Infinity to integer ratio"),
        ],
        ids=["list", "lambda1-list", "delta1-int", "lambda1-zero-denominator", "lambda1-infinity"],
    )
    def test_iso_transport_data(self, dd1_file, tmp_path, capsys, data, message):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(data))
        assert main(["iso-transport", dd1_file, "--data", str(path)]) == 2
        self._assert_one_error_line(capsys, message)

    @pytest.mark.parametrize(
        "forward, message",
        [
            ([1], "must be a JSON object, got list"),
            ({"images": {"X": 5}}, "each image must be a string, got int"),
            ({"images": {"X": "X"}}, "missing images for generators ['Y', 'Z', 'T']"),
        ],
        ids=["list", "int-image", "missing-images"],
    )
    def test_iso_verify_forward(self, dd1_file, tmp_path, capsys, forward, message):
        path = tmp_path / "fwd.json"
        path.write_text(json.dumps(forward))
        assert main(["iso-verify", dd1_file, "--target", dd1_file, "--forward", str(path)]) == 2
        self._assert_one_error_line(capsys, message)

    def test_iso_verify_images_of_non_generators(self, dd1_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("extra.json").write_text(json.dumps(
            {"images": {"X": "X", "Y": "Y", "Z": "Z", "T": "T", "W1": "X"}}))
        assert main(["iso-verify", dd1_file, "--target", dd1_file, "--forward", "extra.json"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "error: extra.json: images for names that are not generators: ['W1']"]


class TestErrorsBecomeInputErrors:
    """Errors raised below a handler on bad flag values exit 2 with one line."""

    @pytest.mark.parametrize("cap", ["0", "2"])
    def test_exp_cap_below_nilpotency(self, dd1_file, capsys, cap):
        assert main(["exp", dd1_file, "--cap", cap]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: no nilpotency for generator")
        assert f"within cap {cap}" in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "adjoin, message",
        [
            ("X", "adjoined variable 'X' is not fresh"),
            ("1a", "invalid variable name: '1a'"),
            ("W1,W1", "adjoined variable 'W1' is not fresh"),
        ],
        ids=["generator", "malformed", "repeated"],
    )
    def test_member_adjoin(self, dd1_file, capsys, adjoin, message):
        argv = ["member", dd1_file, "--element", '{"-1": "Z^2 - 1"}', "--adjoin", adjoin]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0] == f"error: bad --adjoin: {message}"
        assert "Traceback" not in captured.err


_MISSING = object()
# each field is valid three times in four, so most runs get past loading
_DEGREES = (st.integers(1, 3), st.sampled_from([-1, 0, 1.0, 2.5, True, False, "1", "two"]))
_P_TEXTS = (
    st.sampled_from(["Z^2 - 1", "Z^3 + X", "Z^2 + 1/2", "2*Z^2 + X*Z - 1", "Z^2 - u", "Z", "X"]),
    st.sampled_from(["Z +* 1", "(Z", "", "Z^", "W1*Z", 5, None, [1], 2.5]),
)
_Q_TEXTS = (
    st.sampled_from(["Y^2 + Z", "Y^3 + X*Z + 1/2", "Y^2 + Z*Y + Z", "Y + Z", "Y^2", "Y^2 + u*Z", "2*Y"]),
    st.sampled_from(["Y^^2", ")", "Y^2 + V", 7, None, {"Y": 1}]),
)
_BASE_VARS = (st.sampled_from([_MISSING, [], ["u"]]),
              st.sampled_from(["u", [5], ["X"], ["1a"], ["u", "u"]]))
_ELEMENTS = st.sampled_from(
    [None, '{"-1": "Z^2 - 1"}', '{"-1": "Z"}', '{"-2": "Z + W1"}', '{"0": "Z"}', '{"0": "Y"}', "[1]"])


def _mostly_valid(draw, field):
    good, bad = field
    return draw(bad) if draw(st.integers(0, 3)) == 0 else draw(good)


@st.composite
def _cli_runs(draw):
    record = {name: _mostly_valid(draw, field)
              for name, field in (("d", _DEGREES), ("e", _DEGREES), ("P", _P_TEXTS), ("Q", _Q_TEXTS))}
    base_vars = _mostly_valid(draw, _BASE_VARS)
    if base_vars is not _MISSING:
        record["base_vars"] = base_vars
    command = draw(st.sampled_from(
        ["validate", "invariants", "danielewski-reduce", "omega3", "fiber", "lnd", "exp", "member"]))
    flags = []
    if command in ("omega3", "fiber"):
        flags = ["--budget", "2000"]
    elif command in ("lnd", "exp"):
        flags = ["--cap", str(draw(st.integers(0, 6)))]
    elif command == "member":
        flags = ["--budget", "2000", "--adjoin", draw(st.sampled_from(["", "W1", "X", "1a", "W1,W1"]))]
        element = draw(_ELEMENTS)
        if element is not None:
            flags += ["--element", element]
    if draw(st.booleans()):
        flags.append("--json")
    return record, command, flags


@settings(max_examples=80, deadline=None)
@given(run=_cli_runs())
def test_fuzzed_records_exit_cleanly(tmp_path_factory, run):
    """Any record and any of these commands exits 0, 1 or 2 without a
    traceback; without --json, exit 2 prints exactly one `error:` line."""
    record, command, flags = run
    path = tmp_path_factory.mktemp("fuzz") / "record.json"
    path.write_text(json.dumps(record))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *flags])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() and "Traceback" not in err.getvalue()
    if code == 2 and "--json" not in flags:
        lines = (out.getvalue() + err.getvalue()).splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
