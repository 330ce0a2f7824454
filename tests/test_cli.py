import io
import json

import pytest

from superstring import InstanceError
from superstring.cli import (
    GeneratorParams,
    config_from_args,
    generate_instance,
    main,
    run,
)


def run_capture(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(config_from_args(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_json_output_schema():
    code, out, err = run_capture(["--strings", "ab,cd", "--k", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "n",
        "k",
        "length",
        "mistake_string_index",
        "witness",
        "offsets",
        "mismatch_positions",
        "counters",
    ]
    assert payload["n"] == 2
    assert payload["k"] == 2
    assert payload["length"] == 2
    assert payload["witness"] is None
    assert payload["counters"] is None


def test_json_with_reconstruct_and_counters():
    code, out, _ = run_capture(["--strings", "ab,cd", "--k", "2", "--json", "--reconstruct", "--counters"])
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == "cd"
    assert payload["offsets"] == [0, 0]
    assert payload["mismatch_positions"] == [0, 1]
    for cell in payload["counters"].values():
        assert cell["count"] <= cell["bound"]


def test_human_output():
    code, out, _ = run_capture(["--strings", "ab,cd", "--k", "2"])
    assert code == 0
    assert out.splitlines()[0] == "length=2 m=0"


def test_substring_violation_exit_code_and_message():
    code, out, err = run_capture(["--strings", "ab,abc", "--k", "0"])
    assert code == 2
    assert "substring violation" in err
    assert "'ab'" in err and "'abc'" in err


def test_empty_file_input(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n")
    code, _, err = run_capture(["--input", str(path), "--k", "0"])
    assert code == 2
    assert "no strings" in err


def test_file_input_not_utf8_exit_code(tmp_path):
    # bytes that are not UTF-8 are invalid input, not an internal failure
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ab\n\xff\xfecd\n")
    code, out, err = run_capture(["--input", str(path), "--k", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_file_input(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("# demo\nab\ncd\n")
    code, out, _ = run_capture(["--input", str(path), "--k", "2", "--json"])
    assert code == 0
    assert json.loads(out)["length"] == 2


def test_oracle_check_agreement():
    code, _, _ = run_capture(["--strings", "ab,ba", "--k", "1", "--oracle-check"])
    assert code == 0


def test_oracle_check_limit_exit_code():
    code, _, err = run_capture(
        ["--gen", "n=6,len=3..3,alphabet=3", "--seed", "5", "--k", "1", "--oracle-check"]
    )
    assert code == 3
    assert "oracle limits" in err


def test_oracle_disagreement_exit_code(monkeypatch):
    # the solver is exact, so a disagreement can only be simulated
    import superstring.cli as cli_module
    from superstring.oracle import OracleResult

    monkeypatch.setattr(
        cli_module, "brute_force_min_length", lambda inst: OracleResult(1, "x", 0)
    )
    code, _, err = run_capture(["--strings", "ab,ba", "--k", "1", "--oracle-check"])
    assert code == 4
    assert "disagreement" in err


def test_verify_flag_passes_on_valid_run():
    code, out, err = run_capture(["--strings", "ab,cd", "--k", "2", "--reconstruct", "--verify"])
    assert code == 0
    assert err == ""
    assert "witness=" in out


def test_generator_determinism():
    params = GeneratorParams(count=3, min_len=2, max_len=4, alphabet=2)
    first = generate_instance(params, 7, 0)
    second = generate_instance(params, 7, 0)
    assert first.strings == second.strings
    different = generate_instance(params, 8, 0)
    assert first.strings != different.strings


def test_generator_validity():
    # single-character draws can wedge the rejection sampler, which reports
    # infeasibility; every completed draw must be containment-free
    params = GeneratorParams(count=4, min_len=1, max_len=5, alphabet=2)
    completed = 0
    for seed in range(20):
        try:
            inst = generate_instance(params, seed, 0)
        except InstanceError:
            continue
        completed += 1
        assert inst.n == 4
        for i, a in enumerate(inst.strings):
            for j, b in enumerate(inst.strings):
                assert i == j or a not in b
    assert completed >= 10


def test_generator_infeasible():
    params = GeneratorParams(count=10, min_len=1, max_len=1, alphabet=2)
    with pytest.raises(InstanceError, match="generation infeasible"):
        generate_instance(params, 0, 0)


def test_gen_run_byte_identical():
    argv = ["--gen", "n=3,len=2..4,alphabet=2", "--seed", "7", "--k", "1", "--json", "--reconstruct"]
    outputs = {run_capture(argv)[1] for _ in range(2)}
    assert len(outputs) == 1


def test_singleton_counters_follow_the_composition_formula():
    # one string takes the general path: n + c n(n-1) = 1 composition, and
    # no pair, subset-recurrence term, core, window or split is counted
    code, out, _ = run_capture(["--strings", "abc", "--k", "3", "--json", "--counters"])
    assert code == 0
    counters = json.loads(out)["counters"]
    assert counters.pop("composition") == {"count": 1, "bound": 1}
    assert all(cell["count"] == 0 for cell in counters.values())


def test_argparse_round_trip():
    argv = ["--strings", "ab,cd", "--k", "2", "--json", "--reconstruct"]
    config = config_from_args(argv)
    assert config.strings == ["ab", "cd"]
    assert config.k == 2
    assert config.json and config.reconstruct
    # there is no --threads option, so argparse rejects it
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--threads", "2"])
    assert exit_info.value.code == 2


def test_argparse_gen_spec():
    config = config_from_args(["--gen", "n=3,len=2..4,alphabet=2", "--seed", "9", "--k", "1"])
    assert config.gen == GeneratorParams(count=3, min_len=2, max_len=4, alphabet=2)
    assert config.seed == 9


def test_bad_gen_spec_exit_code():
    assert main(["--gen", "nope", "--k", "0"]) == 2


@pytest.mark.parametrize(
    "spec",
    ["n=3,len=2..3,alphabet=30", "n=3,len=2..3,alphabet=2,extra=1", "n=3,len=2..3,alphabet=2,n=4"],
    ids=["alphabet-above-26", "unknown-key", "repeated-key"],
)
def test_gen_spec_it_cannot_honour_exit_code(spec, capsys):
    # 26 letters are all the generator has, a key it does not know would
    # silently change nothing, and of a repeated key the last value would
    # silently win
    assert main(["--gen", spec, "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["--strings", "ab,,cd", "--k", "1"], ["--gen", "n=0,len=2..3,alphabet=2", "--k", "1"]],
    ids=["empty-string", "no-strings"],
)
def test_malformed_strings_exit_code(argv, capsys):
    # the Instance refuses an empty string and an empty string list, and the
    # CLI reports its InstanceError as one error line
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_main_smoke(capsys):
    assert main(["--strings", "ab,ba", "--k", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["length"] == 2


def test_verify_failure_exit_code(monkeypatch):
    # the solver's witnesses verify, so a rejected one can only be simulated
    import superstring.cli as cli_module

    monkeypatch.setattr(cli_module, "verify_solution", lambda inst, sol: ["simulated"])
    code, out, err = run_capture(["--strings", "ab,cd", "--k", "2", "--reconstruct", "--verify"])
    assert code == 1
    assert out == ""
    assert "verification failed: simulated" in err


@pytest.mark.parametrize("flag", ["--verify", "--reconstruct"], ids=["verify", "reconstruct-only"])
def test_bad_witness_from_the_solver_exit_code(monkeypatch, flag):
    # solve checks the witness it builds and raises ReconstructionError on a
    # bad one; the CLI reports that as a failed verification, not a traceback
    import superstring.solver as solver_module

    assemble = solver_module._assemble

    def corrupted(*args):
        witness, offsets, positions = assemble(*args)
        return witness[::-1], offsets, positions

    monkeypatch.setattr(solver_module, "_assemble", corrupted)
    code, out, err = run_capture(["--strings", "abc,cde", "--k", "0", flag, "--json"])
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert lines and all(line.startswith("error: verification failed: ") for line in lines)
    assert "not a superstring" in err


def test_counter_bound_exit_code(monkeypatch):
    # real counts stay within their bounds, so an excess can only be simulated
    from dataclasses import asdict

    from superstring import Counters

    monkeypatch.setattr(
        Counters, "bounds", staticmethod(lambda n, c: dict.fromkeys(asdict(Counters()), -1))
    )
    code, out, err = run_capture(["--strings", "ab,cd", "--k", "2", "--json", "--counters"])
    assert code == 1
    assert out == ""
    assert "counter bound exceeded" in err
