import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burstldpc
from burstldpc import (PssConfig, fixtures, format_alist, parse_alist,
                       parse_permutation, pss_optimize)
from burstldpc.cli import main
from conftest import brute_four_cycle_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lmax_fixture(capsys):
    code, out, err = run(capsys, "lmax", "fixtures:cycle4")
    assert code == 0
    assert out == "L_max 3\n"
    assert err == "L_max=3 (n=4 m=4)\n"


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "lmax", "fixtures:nope")
    assert code == 1
    assert "unknown fixture" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "lmax", "/nonexistent/file.alist")
    assert code == 1
    assert "error" in err


def test_lmax_rejects_bad_max_degree_line(tmp_path, capsys):
    lines = format_alist(fixtures()["chainD"]).splitlines()
    lines[1] = "zz qq"
    path = tmp_path / "bad.alist"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "lmax", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: alist line 2")


def test_lmax_names_the_line_of_a_bad_entry_token(tmp_path, capsys):
    lines = format_alist(fixtures()["chainD"]).splitlines()
    lines[9] = lines[9].replace("3", "x3")  # entry line 10: row 2
    path = tmp_path / "bad.alist"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "lmax", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: alist line 10: invalid literal for int() with base 10: 'x3'\n"


@pytest.mark.parametrize("argv", [("lmax", ""), ("scan", "", "--length", "2"),
                                  ("threshold", "")])
def test_empty_graph_path_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: graph path is empty\n"


# chainD has n=4, m=3: line 3 lists four column degrees, line 4 three row
# degrees, and 11 lines in all.
@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:3], "alist: fewer than 4 header lines"),
    (lambda lines: ["4 3 1"] + lines[1:], "alist: first line must be 'n m'"),
    (lambda lines: ["4"] + lines[1:], "alist: first line must be 'n m'"),
    (lambda lines: ["4 x"] + lines[1:], "alist line 1: invalid literal for int()"),
    (lambda lines: lines[:-1], "alist: expected 11 lines for n=4 m=3, got 10"),
    (lambda lines: lines + ["1 2"], "alist: expected 11 lines for n=4 m=3, got 12"),
    (lambda lines: lines[:2] + ["2 2 2"] + lines[3:],
     "alist: column-degree line has wrong length"),
    (lambda lines: lines[:3] + ["2 2 3 1"] + lines[4:],
     "alist: row-degree line has wrong length"),
])
def test_lmax_rejects_malformed_alist(tmp_path, capsys, edit, message):
    path = tmp_path / "bad.alist"
    path.write_text("\n".join(edit(format_alist(fixtures()["chainD"]).splitlines())) + "\n")
    code, out, err = run(capsys, "lmax", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message)


def test_lmax_ignores_trailing_blank_lines(tmp_path, capsys):
    path = tmp_path / "padded.alist"
    path.write_text(format_alist(fixtures()["chainD"]) + "\n \n\n")
    assert run(capsys, "lmax", str(path)) == run(capsys, "lmax", "fixtures:chainD")


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_gen_then_lmax(tmp_path, capsys):
    out = tmp_path / "g.alist"
    code, _, _ = run(capsys, "gen", "--n", "48", "--m", "24", "--dv", "3",
                     "--dc", "6", "--seed", "3", "--out", str(out))
    assert code == 0
    g = parse_alist(out.read_text())
    assert g.n == 48 and g.m == 24
    code, stdout, _ = run(capsys, "lmax", str(out))
    assert code == 0
    assert stdout.startswith("L_max ")


@pytest.mark.parametrize("seed, left", [(1, 10), (2, 0)])
def test_gen_reports_four_cycles_left(capsys, seed, left):
    # n=48 is small enough for the repair budget to run out on some seeds.
    argv = ("gen", "--n", "48", "--m", "24", "--dv", "3", "--dc", "6",
            "--seed", str(seed))
    code, out, err = run(capsys, *argv, "--girth-floor", "6")
    assert code == 0
    assert err == f"generated (3,6)-regular graph: n=48 m=24 edges=144 4-cycles={left}\n"
    assert len(brute_four_cycle_pairs(parse_alist(out).check_adj)) == left
    assert run(capsys, *argv) == (0, out, err)
    code, _, err = run(capsys, *argv, "--girth-floor", "4")
    assert code == 0
    assert "4-cycles" not in err


def test_gen_rejects_empty_dimensions(capsys):
    code, out, err = run(capsys, "gen", "--n", "0", "--m", "0", "--dv", "3", "--dc", "6")
    assert code == 1
    assert out == ""
    assert err == "error: n, m and degrees must be positive\n"


def test_gen_infeasible(capsys):
    code, _, err = run(capsys, "gen", "--n", "10", "--m", "4", "--dv", "3",
                       "--dc", "6")
    assert code == 1
    assert "socket" in err


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "fixtures:cycle4", "--length", "4")
    assert code == 0
    assert out == "L,N_B,starts\n4,1,0\n"


def test_scan_clean_length(capsys):
    code, out, _ = run(capsys, "scan", "fixtures:cycle4", "--length", "3")
    assert code == 0
    assert out == "L,N_B,starts\n3,0,\n"


def test_stopsets_tsv(capsys):
    code, out, _ = run(capsys, "stopsets", "fixtures:chainD")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "members\tspan\tpivots\tpivot_span"
    # chainD has two stopping sets: {0,1,2} and the full column set.
    assert lines[1] == "0 1 2\t3\t0 1 2\t3"
    assert lines[2] == "0 1 2 3\t4\t0 1 2\t3"


def test_stopsets_respects_limit(tmp_path, capsys):
    code, out, err = run(capsys, "stopsets", "fixtures:cycle4", "--max-n", "3")
    assert code == 1
    assert out == ""
    assert "2^n" in err
    # Refused before the output file is opened.
    target = tmp_path / "sets.tsv"
    assert run(capsys, "stopsets", "fixtures:cycle4", "--max-n", "3",
               "--out", str(target))[0] == 1
    assert not target.exists()


def test_stopsets_output_is_pinned(tmp_path, capsys):
    # Digests of the table as it was built whole before printing; rows are
    # now written one by one and must come out byte for byte the same.
    g12 = tmp_path / "g12.alist"
    assert run(capsys, "gen", "--n", "12", "--m", "6", "--dv", "3", "--dc", "6",
               "--seed", "1", "--girth-floor", "4", "--out", str(g12))[0] == 0
    pinned = {
        "fixtures:chainD": "35fc6aa1f4e059d92bfe91f0de97a19e6a3e600e5486b77ce3ac3a8c58ac5fce",
        "fixtures:two-cycles3": "bd65ba1c570872d07e4cce7a71283b587f5fc0937d238044461734bfa56ef84d",
        "fixtures:cycle4": "ae45c6bc0dae86c1c0e7deae003419c8d72671cf93e3521da96fc2e991feeda4",
        str(g12): "6eb5266e34412a98450c8b29340d5ad203c14fab1720fae093cabcdd4f3b9e40",
    }
    for graph, digest in pinned.items():
        code, out, _ = run(capsys, "stopsets", graph)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, graph
        target = tmp_path / "sets.tsv"
        assert run(capsys, "stopsets", graph, "--out", str(target))[0] == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest, graph


def test_stopsets_rows_are_written_as_found(capsys, monkeypatch):
    import burstldpc.cli as cli
    from burstldpc import InternalInvariantError

    oracle = cli.all_pivots_oracle
    calls = []

    def stop_at_third_set(g, s):
        calls.append(s)
        if len(calls) == 3:
            raise InternalInvariantError("stopped for testing")
        return oracle(g, s)

    monkeypatch.setattr(cli, "all_pivots_oracle", stop_at_third_set)
    code, out, _ = run(capsys, "stopsets", "fixtures:two-cycles3")
    assert code == 2
    assert out == "members\tspan\tpivots\tpivot_span\n0 1 2\t3\t0 1 2\t3\n3 4 5\t3\t3 4 5\t3\n"


def test_every_subcommand_runs_without_numpy(tmp_path, capsys):
    # The library declares no runtime dependency: block numpy outright, run
    # every subcommand in one process, and compare its stdout with the same
    # commands run here.
    code = str(tmp_path / "g.alist")
    gen = ["gen", "--n", "48", "--m", "24", "--dv", "3", "--dc", "6", "--seed", "1"]
    commands = [["lmax", code], ["scan", code, "--length", "16"],
                ["threshold", code], ["pss", code, "--fmax", "3"],
                ["stopsets", "fixtures:chainD"]]
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from burstldpc import cli\n"
              f"for argv in {[gen + ['--out', code]] + commands!r}:\n"
              "    print('==', argv[0], flush=True)\n"
              "    if cli.main(argv):\n"
              "        sys.exit(f'{argv[0]} failed')\n")
    src = str(Path(burstldpc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    sections = proc.stdout.split("== ")[1:]
    assert sections[0] == "gen\n"
    assert run(capsys, *gen)[1] == Path(code).read_text()
    for argv, section in zip(commands, sections[1:], strict=True):
        assert section == f"{argv[0]}\n" + run(capsys, *argv)[1]
    assert sections[-1].splitlines()[2:] == ["0 1 2\t3\t0 1 2\t3", "0 1 2 3\t4\t0 1 2\t3"]


def test_threshold_regular(capsys):
    code, out, _ = run(capsys, "threshold", "--regular", "3", "6", "--n", "2640")
    assert code == 0
    assert out.splitlines() == ["p* 0.4294398144", "lmax_target 1133"]


def test_threshold_check_degree_one(capsys):
    code, out, _ = run(capsys, "threshold", "--regular", "3", "1", "--n", "100")
    assert code == 0
    assert out.splitlines() == ["p* 1", "lmax_target 100"]


def test_threshold_from_alist(tmp_path, capsys):
    run(capsys, "gen", "--n", "64", "--m", "32", "--dv", "3", "--dc", "6",
        "--out", str(tmp_path / "g.alist"))
    code, out, _ = run(capsys, "threshold", str(tmp_path / "g.alist"))
    assert code == 0
    assert out.splitlines()[0].startswith("p* 0.42943")
    assert out.splitlines()[1] == "lmax_target 27"


def test_threshold_multiplicities(capsys):
    code, out, _ = run(capsys, "threshold", "--var-mult", "3:64",
                       "--check-mult", "6:32", "--n", "64")
    assert code == 0
    assert out.splitlines()[1] == "lmax_target 27"


def test_threshold_rejects_negative_counts(capsys):
    code, out, err = run(capsys, "threshold", "--var-mult", "3:-2",
                         "--check-mult", "6:-1", "--n", "100")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "negative node count" in err


@pytest.mark.parametrize("argv, message", [
    (("--var-mult", "3", "--check-mult", "6:1"),
     "bad multiplicity entry '3'; expected DEGREE:COUNT"),
    (("--var-mult=-3:2", "--check-mult=-6:1"), "variable degree -3 is below 1"),
    (("--regular", "0", "6"), "variable degree 0 is below 1"),
    (("--regular", "3", "0"), "check degree 0 is below 1"),
    (("--var-mult=3:2", "--check-mult=-6:1"), "check degree -6 is below 1"),
])
def test_threshold_rejects_bad_multiplicities(capsys, argv, message):
    code, out, err = run(capsys, "threshold", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_threshold_has_no_tolerance_option(capsys):
    code, out, err = run(capsys, "threshold", "--regular", "3", "6", "--tol", "1e-9")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --tol" in err


def test_threshold_needs_a_source(capsys):
    code, _, err = run(capsys, "threshold")
    assert code == 1
    assert "--regular" in err


@pytest.mark.parametrize("argv, message", [
    (("fixtures:cycle4", "--regular", "3", "6"), "got an alist input and --regular"),
    (("fixtures:cycle4", "--var-mult", "3:64", "--check-mult", "6:32"),
     "got an alist input and --var-mult/--check-mult"),
    (("--regular", "3", "6", "--var-mult", "3:64", "--check-mult", "6:32"),
     "got --regular and --var-mult/--check-mult"),
    (("--regular", "3", "6", "--var-mult", "", "--check-mult", ""),
     "got --regular and --var-mult/--check-mult"),
    (("--regular", "3", "6", "--var-mult", "2:1"), "go together"),
    (("--check-mult", "6:32"), "go together"),
])
def test_threshold_needs_exactly_one_source(capsys, argv, message):
    code, out, err = run(capsys, "threshold", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_threshold_rejects_a_repeated_degree(capsys):
    code, out, err = run(capsys, "threshold", "--var-mult", "3:2,3:4",
                         "--check-mult", "6:2")
    assert code == 1
    assert out == ""
    assert err == "error: degree 3 is listed twice in multiplicities '3:2,3:4'\n"


def test_pss_end_to_end(tmp_path, capsys):
    src = tmp_path / "in.alist"
    run(capsys, "gen", "--n", "64", "--m", "32", "--dv", "3", "--dc", "6",
        "--seed", "5", "--out", str(src))
    out_path = tmp_path / "out.alist"
    perm_path = tmp_path / "p.txt"
    report_path = tmp_path / "r.csv"
    code, out, err = run(capsys, "pss", str(src), "--seed", "7",
                         "--fmax", "16",
                         "--out", str(out_path), "--perm", str(perm_path),
                         "--report", str(report_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("original_lmax ")
    assert lines[1].startswith("final_lmax ")
    original = int(lines[0].split()[1])
    final = int(lines[1].split()[1])
    assert final >= original

    g = parse_alist(src.read_text())
    optimized = parse_alist(out_path.read_text())
    perm = parse_permutation(perm_path.read_text())
    assert optimized == g.apply_permutation(perm)

    report = report_path.read_text().splitlines()
    assert report[0] == "L,N_B,F_act,decode_calls,accepted,aborted_rounds"
    assert all(len(line.split(",")) == 6 for line in report[1:])
    assert all(line.split(",")[5].isdigit() for line in report[1:])
    assert "->" in err


def test_pss_perm_file_is_the_returned_permutation(tmp_path, capsys):
    src = tmp_path / "in.alist"
    run(capsys, "gen", "--n", "48", "--m", "24", "--dv", "3", "--dc", "6",
        "--seed", "2", "--out", str(src))
    perm_path = tmp_path / "p.txt"
    code, _, _ = run(capsys, "pss", str(src), "--seed", "9", "--fmax", "12",
                     "--perm", str(perm_path))
    assert code == 0
    result = pss_optimize(parse_alist(src.read_text()), PssConfig(rng_seed=9, f_max=12))
    assert result.permutation.mapping != tuple(range(48))
    assert parse_permutation(perm_path.read_text()) == result.permutation


def test_pss_summary_without_failing_lengths(capsys):
    # Every length of pinned3 peels, so no row has a failure to show.
    code, out, err = run(capsys, "pss", "fixtures:pinned3")
    assert code == 0
    assert out == "original_lmax 3\nfinal_lmax 3\n"
    assert err.splitlines()[-1] == "(no uncorrectable lengths encountered)"


def test_pss_byte_identical_reruns(tmp_path, capsys):
    src = tmp_path / "in.alist"
    run(capsys, "gen", "--n", "48", "--m", "24", "--dv", "3", "--dc", "6",
        "--seed", "2", "--out", str(src))
    outputs = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"out-{tag}.alist"
        report_path = tmp_path / f"r-{tag}.csv"
        code, stdout, _ = run(capsys, "pss", str(src), "--seed", "9",
                              "--fmax", "12", "--out", str(out_path),
                              "--report", str(report_path))
        assert code == 0
        outputs.append((stdout, out_path.read_bytes(), report_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_pss_systematic_flags(tmp_path, capsys):
    src = tmp_path / "in.alist"
    run(capsys, "gen", "--n", "48", "--m", "24", "--dv", "3", "--dc", "6",
        "--seed", "2", "--out", str(src))
    code, _, err = run(capsys, "pss", str(src), "--systematic-range", "0", "49")
    assert code == 1
    assert "systematic range" in err
    perm_path = tmp_path / "p.txt"
    code, _, _ = run(capsys, "pss", str(src), "--systematic-range", "0", "24",
                     "--fmax", "8", "--perm", str(perm_path))
    assert code == 0
    perm = parse_permutation(perm_path.read_text())
    assert all(image == i for i, image in enumerate(perm.mapping) if i >= 24)


def test_pss_lost_swap_exits_2(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.alist"
    run(capsys, "gen", "--n", "64", "--m", "32", "--dv", "3", "--dc", "6",
        "--seed", "5", "--out", str(src))
    swap_columns = burstldpc.TannerGraph.swap_columns
    calls = []

    def lossy(self, a, b):
        calls.append((a, b))
        if len(calls) != 1:
            swap_columns(self, a, b)

    monkeypatch.setattr(burstldpc.TannerGraph, "swap_columns", lossy)
    out_path = tmp_path / "out.alist"
    code, out, err = run(capsys, "pss", str(src), "--seed", "7", "--fmax", "16",
                         "--out", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert err.startswith("internal error: ") and "relabeled" in err


@pytest.mark.parametrize("flag, value", [("--max-length", "-1"), ("--max-length", "0"),
                                         ("--fmax", "0")])
def test_pss_rejects_limits_below_one(capsys, flag, value):
    code, out, err = run(capsys, "pss", "fixtures:cycle4", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "must be >= 1" in err


def test_internal_error_maps_to_exit_2(capsys, monkeypatch):
    from burstldpc import InternalInvariantError
    import burstldpc.cli as cli

    def boom(args):
        raise InternalInvariantError("wired for testing")

    monkeypatch.setitem(cli.build_parser.__globals__, "_cmd_lmax", boom)
    # Rebuilding the parser picks up the patched handler.
    code = cli.main(["lmax", "fixtures:cycle4"])
    captured = capsys.readouterr()
    assert code == 2
    assert "internal error" in captured.err


def test_gen_alist_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--n", "12", "--m", "6", "--dv", "2",
                       "--dc", "4")
    assert code == 0
    g = parse_alist(out)
    assert g.n == 12 and g.m == 6


SINGLE_OUTPUT_ARGV = [
    ("gen", "--n", "12", "--m", "6", "--dv", "2", "--dc", "4", "--seed", "1"),
    ("lmax", "fixtures:cycle4"),
    ("scan", "fixtures:cycle4", "--length", "3"),
    ("stopsets", "fixtures:chainD"),
    ("threshold", "--regular", "3", "6", "--n", "96"),
]


def test_out_flag_writes_file(tmp_path, capsys):
    """--out holds exactly the bytes the same call prints without it."""
    for argv in SINGLE_OUTPUT_ARGV:
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and expected, argv
        target = tmp_path / f"{argv[0]}.out"
        assert run(capsys, *argv, "--out", str(target))[:2] == (0, ""), argv
        assert target.read_bytes() == expected.encode(), argv


PSS_ARGV = ("pss", "fixtures:chainD", "--fmax", "3")


@pytest.mark.parametrize("argv, flag", [(argv, "--out") for argv in SINGLE_OUTPUT_ARGV]
                         + [(PSS_ARGV, flag) for flag in ("--out", "--perm", "--report")],
                         ids=lambda value: value if isinstance(value, str) else value[0])
def test_empty_output_path_is_refused(capsys, argv, flag):
    code, out, err = run(capsys, *argv, flag, "")
    assert code == 1
    assert out == ""
    assert err == "error: output path is empty\n"


@pytest.mark.parametrize("flag, bad, message", [
    ("--perm", "missing/p.txt", "'missing' is not a directory"),
    ("--report", ".", "is a directory"),
    ("--perm", "./o.alist", "same file as --out"),
])
def test_pss_checks_output_paths_before_the_run(tmp_path, capsys, monkeypatch,
                                                 flag, bad, message):
    def never(*args, **kwargs):
        raise AssertionError("pss_optimize ran despite an unwritable output path")

    monkeypatch.setattr("burstldpc.cli.pss_optimize", never)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *PSS_ARGV, "--out", "o.alist", flag, bad)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: output path {bad!r}") and message in err
    assert not (tmp_path / "o.alist").exists()


def test_fixed_seed_outputs_are_pinned(tmp_path, capsys):
    """Fixed seeds give byte-identical files; a change to any digest below
    changes what users get from the same command line."""
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    alist = tmp_path / "g96.alist"
    assert run(capsys, "gen", "--n", "96", "--m", "48", "--dv", "3", "--dc", "6",
               "--seed", "1", "--out", str(alist))[0] == 0
    assert sha(alist.read_bytes()) == \
        "37d0ab61cf81719cdcbc5bf73d4eb6b702857afe5a04bfefcb2bfb9845b0be63"
    paths = {name: tmp_path / f"pss.{name}" for name in ("out", "perm", "report")}
    status, stdout, _ = run(capsys, "pss", str(alist), "--seed", "3", "--pool", "closure",
                            "--fmax", "20", "--out", str(paths["out"]),
                            "--perm", str(paths["perm"]), "--report", str(paths["report"]))
    assert status == 0
    assert {name: sha(path.read_bytes()) for name, path in paths.items()} == {
        "out": "2dd47bbd1b1522ca42c779de377c63c6032306d90ceb3416e63758ec28406b9d",
        "perm": "8f9e82ead01565b946a55cf88c8dc80fa0c40c0310bbbacafce5f79ade42c768",
        "report": "ee67a1b696de741068d4f79701d8087ddcaef47dcad94a3bded76fda08ff8843",
    }
    assert sha(stdout.encode()) == \
        "707a14f4c967c310079a80beb783fb2bc7eff225c68e28accccae98d7a942f4c"
