import hashlib
from pathlib import Path

import pytest

from burstldpc import (fixtures, format_alist, parse_alist, parse_permutation,
                       read_alist)
from burstldpc.cli import main


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


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_gen_then_lmax(tmp_path, capsys):
    out = tmp_path / "g.alist"
    code, _, _ = run(capsys, "gen", "--n", "48", "--m", "24", "--dv", "3",
                     "--dc", "6", "--seed", "3", "--out", str(out))
    assert code == 0
    g = read_alist(out)
    assert g.n == 48 and g.m == 24
    code, stdout, _ = run(capsys, "lmax", str(out))
    assert code == 0
    assert stdout.startswith("L_max ")


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


def test_stopsets_respects_limit(capsys):
    code, _, err = run(capsys, "stopsets", "fixtures:cycle4", "--max-n", "3")
    assert code == 1
    assert "2^n" in err


def test_stopsets_rejects_limit_above_mask_width(tmp_path, capsys):
    path = tmp_path / "g34.alist"
    run(capsys, "gen", "--n", "34", "--m", "17", "--dv", "3", "--dc", "6",
        "--girth-floor", "4", "--out", str(path))
    code, out, err = run(capsys, "stopsets", str(path), "--max-n", "40")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "32" in err


def test_threshold_regular(capsys):
    code, out, _ = run(capsys, "threshold", "--regular", "3", "6", "--n", "2640")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p* 0.42943")
    assert lines[1] == "lmax_target 1133"


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


def test_threshold_rejects_bad_tolerance(capsys):
    for tol in ("nan", "0", "-1e-3"):
        code, out, err = run(capsys, "threshold", "--regular", "3", "6", f"--tol={tol}")
        assert code == 1
        assert out == ""
        assert "tolerance" in err


def test_threshold_needs_a_source(capsys):
    code, _, err = run(capsys, "threshold")
    assert code == 1
    assert "--regular" in err


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

    g = read_alist(src)
    optimized = read_alist(out_path)
    perm = parse_permutation(perm_path.read_text())
    assert optimized == g.apply_permutation(perm)

    report = report_path.read_text().splitlines()
    assert report[0] == "L,N_B,F_act,decode_calls,accepted,aborted_rounds"
    assert all(len(line.split(",")) == 6 for line in report[1:])
    assert all(line.split(",")[5].isdigit() for line in report[1:])
    assert "->" in err


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


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "lmax.txt"
    code, out, _ = run(capsys, "lmax", "fixtures:cycle4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "L_max 3\n"


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
