from __future__ import annotations

from pathlib import Path

import pytest

from qcnet.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compare_matches_published_two_chunk_table(capsys):
    code, out, _ = run_cli(capsys, "compare", str(DATA / "ex6.txt"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pattern\tuncoded\tcoded\tpct_delta"
    rows = {l.split("\t")[0]: l.split("\t")[1:] for l in lines[1:-1]}
    assert rows["single_unicast"] == ["0.0417", "0.0417", "0"]
    assert rows["multiple_unicast"] == ["0.1667", "0.25", "50"]
    assert rows["multiple_unicast_mpr"] == ["0.25", "0.6667", "167"]
    assert rows["broadcast"] == ["0", "0", "0"]
    assert rows["multicast_mpr"] == ["1", "2.6667", "167"]
    assert lines[-1].split("\t")[-1] == "54.8"


@pytest.mark.parametrize("flag", [("--pattern", "broadcast"), ("--coded",)])
def test_compare_rejects_flags_it_does_not_read(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(DATA / "ex6.txt"), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_props_reports_quasi_line_for_multiple_unicast(capsys):
    code, out, _ = run_cli(
        capsys, "props", str(DATA / "ex6.txt"), "--pattern", "multiple_unicast"
    )
    assert code == 0
    assert "claw_free\ttrue" in out
    assert "quasi_line\ttrue" in out


def test_region_reports_volume(capsys):
    code, out, _ = run_cli(
        capsys, "region", str(DATA / "ex1.txt"), "--pattern", "single_unicast"
    )
    assert code == 0
    assert "volume\t1/2\t0.5" in out


def test_region_on_malformed_config_fails(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("[system]\nusers = 2\n")
    code, out, err = run_cli(capsys, "region", str(bad))
    assert code == 1
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_region_volume_guard_trips_before_the_hull(tmp_path, capsys, monkeypatch):
    # 3 chunks x 3 users under multiple unicast: 9 flows, above the volume cap
    config = tmp_path / "nine_flows.txt"
    config.write_text(
        "[system]\nusers = 3\nchunks = 3\n"
        "[drive 1]\nstores = f1\n[drive 2]\nstores = f2\n[drive 3]\nstores = f3\n"
        "[traffic]\npattern = multiple_unicast\n"
    )

    def no_hull(points):
        raise AssertionError("the hull was built before the volume guard")

    monkeypatch.setattr("qcnet.region.exact_hull", no_hull)
    code, out, err = run_cli(capsys, "region", str(config))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "refused" in err


@pytest.mark.parametrize("command", ["schedule", "simulate"])
def test_zero_denominator_rate_is_one_error_line(capsys, command):
    code, out, err = run_cli(capsys, command, str(DATA / "ex1.txt"), "--rates", "1/0,0")
    assert code == 1
    assert out == ""
    assert err == "error: --rates value '1/0' has a zero denominator\n"


def test_graph_export_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "graph", str(DATA / "ex1.txt"))
    code2, out2, _ = run_cli(capsys, "graph", str(DATA / "ex1.txt"))
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("v_1_1_1:")


def test_schedule_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "schedule",
        str(DATA / "ex1.txt"),
        "--pattern",
        "single_unicast",
        "--rates",
        "1/2,1/2",
    )
    assert code == 0
    assert out == "0\t1\t1:1:1\n1\t2\t1:2:1\n"


def test_simulate_command_writes_summary(tmp_path, capsys):
    out_file = tmp_path / "trace.tsv"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        str(DATA / "ex1.txt"),
        "--rates",
        "0.3,0.3",
        "--horizon",
        "12000",
        "--seed",
        "3",
        "--out",
        str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert "# summary" in text
    assert text.strip().splitlines()[-1].startswith("stable\t")


def test_coded_region_requires_coding_section(capsys):
    code, _, err = run_cli(
        capsys, "region", str(DATA / "ex1.txt"), "--pattern", "multicast", "--coded"
    )
    assert code == 1
    assert "coding" in err


def test_compare_byte_identical_across_runs(capsys):
    _, out1, _ = run_cli(capsys, "compare", str(DATA / "ex6.txt"))
    _, out2, _ = run_cli(capsys, "compare", str(DATA / "ex6.txt"))
    assert out1 == out2


@pytest.mark.parametrize("example", ["ex6", "ex7"])
@pytest.mark.parametrize("command", ["graph", "props", "region"])
def test_coded_output_matches_golden(capsys, command, example):
    code, out, _ = run_cli(capsys, command, str(DATA / f"{example}.txt"), "--coded")
    assert code == 0
    assert out == (DATA / "golden" / f"{command}_{example}_coded.txt").read_text(encoding="utf-8")
