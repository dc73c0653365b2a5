import argparse
import io
import json
import os
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bvinfluence import cli
from bvinfluence.boolfn import TruthTable, from_anf, random_function, to_truth_table
from bvinfluence.cli import main, read_table, run, write_table
from bvinfluence.rng import spawn_seeds


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def invoke_json(argv):
    code, out, err = invoke(argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_reject_constant)


def test_influence_command_values():
    report = invoke_json(["influence", "--anf", "x1+x2*x3", "--n", "3"])
    assert report["schema_version"] == 1
    assert report["command"] == "influence"
    decimals = [float(e["influence"]["decimal"]) for e in report["results"]["influences"]]
    assert decimals == [1.0, 0.5, 0.5]
    fracs = [e["influence"]["fraction"] for e in report["results"]["influences"]]
    assert fracs == ["1/1", "1/2", "1/2"]
    assert report["results"]["total"]["fraction"] == "2/1"


def test_json_round_trips_byte_identically():
    for argv in (
        ["influence", "--anf", "x1*x2", "--n", "2"],
        ["estimate", "--anf", "x1*x2", "--n", "2", "--m", "200", "--seed", "3"],
        ["learn3", "--anf", "x1 + x2*x3", "--n", "3", "--lambda", "100", "--seed", "4"],
        ["verify", "--random", "6:9"],
    ):
        code, out, _ = invoke(argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_estimate_command_within_tolerance():
    report = invoke_json(["estimate", "--anf", "x1*x2", "--n", "2", "--m", "10000", "--seed", "7"])
    for entry in report["results"]["estimates"]:
        assert abs(float(entry["p"]["decimal"]) - 0.5) < 0.05
    assert report["results"]["oracle_calls"] == 10000
    assert report["parameters"]["seed"] == 7


def test_estimate_default_m_is_surfaced():
    report = invoke_json(["estimate", "--anf", "x1", "--n", "1", "--seed", "0"])
    assert report["parameters"]["m"] == 1060


def test_verify_command_passes_on_random_function():
    code, out, _ = invoke(["verify", "--random", "8:42"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["all_passed"] is True
    assert {c["identity"] for c in report["results"]["identities"]} == {
        "influence_definition_equals_spectral",
        "parseval",
        "autocorrelation_transform",
    }


def test_verify_exit_code_on_identity_failure(monkeypatch):
    # theorems hold for every function, so force a failure to exercise
    # the exit-code contract
    monkeypatch.setattr(
        cli, "verify_identities",
        lambda f: [{"identity": "parseval", "passed": False, "detail": "forced"}],
    )
    code, out, _ = invoke(["verify", "--random", "4:1"])
    assert code == 1
    assert json.loads(out)["results"]["all_passed"] is False


def test_omitted_seed_is_recorded_and_replayable():
    code, out, _ = invoke(["bv-sample", "--anf", "x1*x2", "--n", "2", "--m", "25"])
    assert code == 0
    first = json.loads(out)
    seed = first["parameters"]["seed"]
    assert isinstance(seed, int)

    replay = invoke_json(
        ["bv-sample", "--anf", "x1*x2", "--n", "2", "--m", "25", "--seed", str(seed)]
    )
    assert replay["results"] == first["results"]


def test_random_source_seed_is_recorded():
    code, out, _ = invoke(["spectrum", "--random", "5"])
    assert code == 0
    first = json.loads(out)
    seed = first["parameters"]["function_seed"]
    again = invoke_json(["spectrum", "--random", f"5:{seed}"])
    assert again["results"] == first["results"]


def test_spectrum_command_matches_library():
    report = invoke_json(["spectrum", "--anf", "x1*x2", "--n", "2"])
    assert report["results"]["coefficients"] == [2, 2, 2, -2]


def test_bv_sample_bits_convention():
    report = invoke_json(["bv-sample", "--anf", "x1 + x3", "--n", "3", "--m", "4", "--seed", "1"])
    # linear function: every outcome is a = 101; the bit string reads y1 y2 y3
    assert report["results"]["outcomes"] == [5, 5, 5, 5]
    assert report["results"]["bits"] == ["101"] * 4


def test_list_influential_command():
    report = invoke_json(
        ["list-influential", "--anf", "x1 + x4", "--n", "4", "--m", "40", "--seed", "2"]
    )
    assert report["results"]["variables"] == [1, 4]
    assert report["results"]["oracle_calls"] == 40
    assert 0.94 < report["results"]["guarantee"] < 0.96  # default c=3


def test_learn2_command():
    report = invoke_json(["learn2", "--anf", "x1 + x2*x3", "--n", "4", "--rho", "30", "--seed", "6"])
    labels = {e["variable"]: e["class"] for e in report["results"]["classes"]}
    assert labels == {1: "linear", 2: "quadratic", 3: "quadratic", 4: "absent"}
    assert report["parameters"]["rho"] == 30
    assert "assumed, not checked" in report["results"]["assumed_model"]


def test_learn3_command_windows():
    report = invoke_json(
        ["learn3", "--anf", "x1 + x2*x3 + x4*x5*x6", "--n", "6",
         "--lambda", "2000", "--epsilon", "0.1", "--seed", "12"]
    )
    labels = {e["variable"]: e["class"] for e in report["results"]["classes"]}
    assert labels[1] == "linear"
    assert labels[2] == labels[3] == "quadratic"
    assert labels[4] == labels[5] == labels[6] == "cubic"
    quad = next(e for e in report["results"]["classes"] if e["variable"] == 2)
    assert quad["window"]["low"]["fraction"] == "2/5"
    assert report["parameters"]["epsilon"]["fraction"] == "1/10"
    # parameters list the options in the order learn3 declares them
    params = invoke_json(
        ["learn3", "--anf", "x1 + x2*x3", "--n", "3", "--lambda", "100", "--epsilon", "1/20", "--seed", "12"]
    )["parameters"]
    assert params["epsilon"] == {"fraction": "1/20", "decimal": "0.050000000000000003"}
    assert list(params) == ["source", "expression", "n", "lambda", "epsilon", "seed"]


def test_classical_command_query_ledger():
    report = invoke_json(
        ["classical", "--anf", "x1*x2", "--n", "2", "--m", "500", "--seed", "3"]
    )
    assert report["results"]["oracle_calls_per_variable"] == 1000
    assert report["results"]["oracle_calls_total"] == 2000  # both variables
    assert report["results"]["sampling_path_calls_for_all_variables"] == 500
    for entry in report["results"]["estimates"]:
        assert entry["oracle_calls"] == 1000


def test_classical_single_variable():
    report = invoke_json(
        ["classical", "--anf", "x1*x2", "--n", "2", "--m", "200", "--seed", "3", "--i", "2"]
    )
    assert [e["variable"] for e in report["results"]["estimates"]] == [2]
    assert report["parameters"]["i"] == 2
    # --i comes last, and only when it is given
    assert list(report["parameters"]) == ["source", "expression", "n", "m", "seed", "i"]


def test_classical_variables_draw_from_spawned_seeds():
    base = ["classical", "--random", "6:2", "--m", "2000"]
    full = invoke_json([*base, "--seed", "10"])["results"]["estimates"]
    # --i k replays variable k of a full run
    for entry in full:
        alone = invoke_json([*base, "--seed", "10", "--i", str(entry["variable"])])
        assert alone["results"]["estimates"] == [entry]
    # adjacent run seeds share no draws: with seed + offset, variable 2 of
    # --seed 10 replayed --seed 11 --i 2 exactly
    adjacent = invoke_json([*base, "--seed", "11", "--i", "2"])["results"]["estimates"]
    assert adjacent != [full[1]]
    assert set(spawn_seeds(10, 6)).isdisjoint(spawn_seeds(11, 6))
    assert spawn_seeds(10, 2) == spawn_seeds(10, 6)[:2]
    code, _, err = invoke([*base, "--seed", "10", "--i", "7"])
    assert code == 2 and "variable index" in err


PHYSICAL_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.parametrize(
    "command, flag, count",
    [pytest.param("bv-sample", "--m", 10**15, id="bv-sample---m")]
    # passes a bound of 8 bytes per draw, but the rendered outcomes would not fit
    + [pytest.param("bv-sample", "--m", PHYSICAL_BYTES // 16, id="bv-sample-rendered")],
)
def test_huge_draw_count_exits_2_before_allocating(command, flag, count, monkeypatch):
    def no_table(args):
        raise AssertionError("the function was built before the count was checked")

    monkeypatch.setattr(cli, "_resolve_function", no_table)
    code, out, err = invoke([command, "--random", "4:1", flag, str(count)])
    assert code == 2
    assert out == ""
    assert "physical memory" in err


def test_counting_commands_have_no_draw_count_bound():
    # estimate counts its draws block by block and keeps none of them, so
    # no count is refused for lack of memory
    args = cli.build_parser().parse_args(["estimate", "--random", "4:1", "--m", str(10**15)])
    cli._check_count_memory(args)


def test_csv_output_influence():
    code, out, _ = invoke(["influence", "--anf", "x1 + x2*x3", "--n", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# bvinfluence-csv v1 command=influence"
    assert lines[1] == "variable,influence_fraction,influence_decimal"
    assert lines[2] == "1,1/1,1"
    assert lines[3].startswith("2,1/2,0.5")
    assert lines[-1].startswith("total,")


def test_csv_output_spectrum():
    code, out, _ = invoke(["spectrum", "--anf", "x1*x2", "--n", "2", "--format", "csv"])
    lines = out.splitlines()
    assert lines[1] == "y,coefficient"
    assert lines[2:] == ["0,2", "1,2", "2,2", "3,-2"]


def test_each_format_builds_only_its_own_output(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("built output for the other format")

    monkeypatch.setitem(cli._COMMANDS, "spectrum", (*cli._COMMANDS["spectrum"][:3], fail))
    assert invoke_json(["spectrum", "--random", "5:1"])["results"]["n"] == 5
    monkeypatch.undo()
    monkeypatch.setattr(cli.json, "dump", fail)
    monkeypatch.setattr(cli.json, "dumps", fail)
    code, out, err = invoke(["spectrum", "--random", "5:1", "--format", "csv"])
    assert code == 0, err
    assert out.splitlines()[1] == "y,coefficient"


def test_exit_code_2_on_bad_input(tmp_path):
    table2 = str(tmp_path / "n2.txt")
    write_table(random_function(2, seed=1), table2)
    bad = [
        ["influence", "--anf", "x1 +* x2", "--n", "2"],        # syntax
        ["influence", "--anf", "x9", "--n", "2"],              # index range
        ["influence", "--anf", "x1"],                          # missing --n
        ["influence"],                                          # no source
        ["influence", "--anf", "x1", "--n", "1", "--random", "3:1"],  # two sources
        ["influence", "--table", "/nonexistent/file.tt"],      # unreadable
        ["influence", "--random", "0:4"],                      # n out of range
        ["influence", "--random", "abc"],                      # malformed
        ["influence", "--random", "4:1", "--n", "7"],          # --n without --anf
        ["influence", "--table", table2, "--n", "9"],          # --n without --anf
        ["learn3", "--anf", "x1", "--n", "1", "--epsilon", "0.2"],    # eps domain
        ["list-influential", "--random", "4:1", "--m", "10", "--seed", "1", "--c", "nan"],
        ["list-influential", "--random", "4:1", "--m", "10", "--seed", "1", "--c", "inf"],
    ]
    for argv in bad:
        code, out, err = invoke(argv)
        assert code == 2, argv
        assert err.strip(), argv  # a diagnostic was printed
        assert not out.strip()


def test_parser_options_match_the_readme():
    # the README's command table lists each subcommand's own options, after
    # the function flags, and its prose gives their defaults
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z0-9-]+)` \|[^|]*\|([^|]*)\|$", readme, re.M)
    documented = {command: re.findall(r"--\w+", options) for command, options in rows}
    defaults = dict(re.findall(r"`(--\w+)` (?:defaults )?to (\d+(?:\.\d+)?)", " ".join(readme.split())))
    assert sorted(defaults) == ["--c", "--epsilon", "--lambda", "--m", "--rho"]
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == [
        "influence", "spectrum", "verify", "bv-sample", "estimate",
        "list-influential", "learn2", "learn3", "classical",
    ]
    assert sorted(documented) == sorted(subparsers.choices)
    function_flags = ["--anf", "--n", "--table", "--random", "--format"]
    for command, sub in subparsers.choices.items():
        actions = [a for a in sub._actions if "--help" not in a.option_strings]
        assert [a.option_strings for a in actions] == [[flag] for flag in function_flags + documented[command]]
        for action in actions[len(function_flags):]:
            flag = action.option_strings[0]
            assert action.dest == {"--lambda": "lam"}.get(flag, flag[2:]), command
            if flag in defaults:
                assert action.default == Fraction(defaults[flag]), (command, flag)
            else:
                assert action.default is None, (command, flag)


@pytest.mark.parametrize("epsilon", ["1/0", "nan"])
def test_bad_epsilon_is_a_parse_error(capsys, epsilon):
    # argparse reports a bad --epsilon and exits 2 itself, before run returns
    with pytest.raises(SystemExit) as exc:
        run(["learn3", "--random", "4:1", "--epsilon", epsilon])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --epsilon: invalid fraction value: '{epsilon}'" in err
    assert "Traceback" not in err


def test_text_table_file_matches_the_documented_example(tmp_path):
    # majority of three, as in README's text-format example
    path = tmp_path / "maj3.tt"
    write_table(to_truth_table(from_anf("x1*x2 + x1*x3 + x2*x3", 3)), str(path))
    assert path.read_bytes() == b"n=3\n00010111\n"


def test_table_file_round_trip(tmp_path):
    t = random_function(6, seed=2718)
    text_path = tmp_path / "f.tt"
    bin_path = tmp_path / "f.ttb"
    write_table(t, str(text_path))
    write_table(t, str(bin_path))

    content = text_path.read_text()
    assert content.splitlines()[0] == "n=6"
    assert len(content.splitlines()[1]) == 64
    assert content.endswith("\n")
    assert bin_path.read_bytes()[0] == 6
    assert len(bin_path.read_bytes()) == 1 + 8

    for path in (text_path, bin_path):
        back = read_table(str(path))
        assert back.n == t.n
        assert np.array_equal(back.bits, t.bits)
        with pytest.raises(ValueError):
            back.packed[0] = 1

    # both file routes agree with the direct route end to end
    via_text = invoke_json(["influence", "--table", str(text_path)])
    via_bin = invoke_json(["influence", "--table", str(bin_path)])
    assert via_text["results"] == via_bin["results"]


def test_binary_table_is_read_without_a_second_copy(tmp_path):
    # the file's bytes and the table's one copy of the payload, each 1/8
    # byte per entry: unpacked bits, or a second copy, would exceed 0.3
    size = 1 << 20
    path = tmp_path / "f.ttb"
    write_table(random_function(20, seed=9), str(path))
    tracemalloc.start()
    try:
        read_table(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * size, f"peak {peak / size:.2f} bytes per entry"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_short_tables_keep_zero_padding(tmp_path, n):
    # Below n=3 the one packed byte has padding bits above the 2^n table
    # bits; every route to a table leaves them 0, so == and the weight in
    # repr see only the table, and a .ttb file round-trips.
    for seed in range(6):
        t = random_function(n, seed=seed)
        bits = t.bits
        assert t.packed.tolist() == [sum(int(v) << b for b, v in enumerate(bits))]
        path = tmp_path / f"f{n}-{seed}.ttb"
        write_table(t, str(path))
        assert path.read_bytes() == bytes([n]) + t.packed.tobytes()
        for same in (read_table(str(path)), TruthTable(n, bits)):
            assert same == t and repr(same) == repr(t)
        assert repr(t) == f"TruthTable(n={n}, weight={int(bits.sum())})"
        flipped = TruthTable(n, 1 - bits)
        assert flipped != t and repr(flipped) == f"TruthTable(n={n}, weight={(1 << n) - int(bits.sum())})"
    ones = to_truth_table(from_anf("1", n))
    assert ones.packed.tolist() == [(1 << min(8, 1 << n)) - 1]
    assert ones == TruthTable(n, [1] * (1 << n))


def test_table_file_error_reporting(tmp_path):
    # each diagnostic names the file and its fault; '/' wraps to 255 in
    # uint8 and '2' does not, and the table's own 0/1 check refuses both
    cases = {
        "bad_header.tt": ("k=3\n00010111\n", "first line must be 'n=<k>', found 'k=3'"),
        "bad_length.tt": ("n=3\n0001\n", "expected 8 table characters, found 4"),
        "bad_chars.tt": ("n=2\n01x1\n", "truth table entries must be 0 or 1"),
        "bad_slash.tt": ("n=2\n01/1\n", "truth table entries must be 0 or 1"),
        "bad_two.tt": ("n=2\n0121\n", "truth table entries must be 0 or 1"),
        "bad_n.tt": ("n=0\n\n", "n=0 out of range 1..24"),
    }
    for name, (payload, fault) in cases.items():
        p = tmp_path / name
        p.write_text(payload)
        code, out, err = invoke(["influence", "--table", str(p)])
        assert code == 2, name
        assert not out
        assert err == f"bvinfluence: error: {p}: {fault}\n", name

    # a random table's variable count is checked by the rule --anf's --n meets
    by_random = invoke(["influence", "--random", "0:4"])
    by_anf = invoke(["influence", "--anf", "x1", "--n", "0"])
    assert by_random[0] == by_anf[0] == 2
    assert by_random[2] == by_anf[2] == "bvinfluence: error: variable count must be in 1..24, got 0\n"

    # anything after the table line, other than blank lines, is rejected
    trailing = tmp_path / "trailing.tt"
    trailing.write_text("n=2\n0110\n0110\n")
    code, out, err = invoke(["influence", "--table", str(trailing)])
    assert code == 2
    assert not out
    assert "after the table line" in err
    blank = tmp_path / "blank.tt"
    blank.write_text("n=2\n0110\n\n\n")
    assert invoke(["influence", "--table", str(blank)])[0] == 0

    # below n=3 the single payload byte has padding bits, which must be 0
    for n, payload in ((1, 0b0110), (2, 0b1_0110), (2, 0x80)):
        padded = tmp_path / f"padded{n}.ttb"
        padded.write_bytes(bytes([n, payload]))
        code, out, err = invoke(["influence", "--table", str(padded)])
        assert code == 2, (n, payload)
        assert not out
        assert "padding" in err
    clean = tmp_path / "clean.ttb"
    clean.write_bytes(bytes([2, 0b0110]))
    assert read_table(str(clean)).bits.tolist() == [0, 1, 1, 0]

    short = tmp_path / "short.ttb"
    short.write_bytes(bytes([4, 0xFF]))  # n=4 needs 2 payload bytes
    code, _, err = invoke(["influence", "--table", str(short)])
    assert code == 2
    assert "payload" in err


def test_main_entry_point(capsys):
    assert main(["influence", "--anf", "x1", "--n", "1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["command"] == "influence"


class _CountingSink(io.RawIOBase):
    def __init__(self):
        self.data = bytearray()
        self.writes = 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


def test_main_buffers_write_through_stdout(monkeypatch):
    # PYTHONUNBUFFERED=1 makes stdout write-through: one system call per
    # write unless main buffers the report (about 4000 writes at n=12).
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(sink, encoding="utf-8", write_through=True))
    assert main(["spectrum", "--random", "12:1"]) == 0
    assert sink.writes <= 20
    assert len(json.loads(sink.data)["results"]["coefficients"]) == 1 << 12


def test_results_identical_for_identical_parameters():
    argv = ["estimate", "--random", "6:31", "--m", "400", "--seed", "44"]
    a = invoke_json(argv)
    b = invoke_json(argv)
    assert a["results"] == b["results"]
    assert a["parameters"] == b["parameters"]
