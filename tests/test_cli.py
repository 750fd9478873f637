"""Tests for the command-line front end.

The CLI is exercised in process through its ``main`` entry point, which
keeps the tests fast and lets them assert on exact byte-for-byte output
and on exit codes.
"""

import argparse
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import dcpoly
from dcpoly import brute, cli, layered, ratios, verify

SMALL_BFILE = "4 1\n6 2\n8 7\n10 28\n12 122\n"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_series_bfile_prefix(capsys):
    code, out = run_cli(capsys, "series", "--max-perimeter", "12", "--format", "bfile")
    assert code == 0
    assert out == SMALL_BFILE


def test_series_minimal_bound(capsys):
    code, out = run_cli(capsys, "series", "--max-perimeter", "4", "--format", "bfile")
    assert code == 0
    assert out == "4 1\n"


def test_series_rejects_odd_bound():
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--max-perimeter", "13"])
    assert exc.value.code == 2


def test_series_rejects_bfile_for_refined_keys():
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--by", "noses", "--format", "bfile"])
    assert exc.value.code == 2


@pytest.mark.parametrize("by", ["diagonals", "noses"])
def test_series_bfile_refusal_names_its_reason(capsys, by):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--by", by, "--max-perimeter", "8", "--format", "bfile"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bfile output needs plain perimeter keys" in captured.err


@pytest.mark.parametrize("by", ["diagonals", "noses"])
def test_series_tables_render_the_joint_table_projection(capsys, by):
    fields = cli.SERIES_FIELDS[by]
    projected = layered.joint_table(64).project(*fields)
    for fmt in ("table", "csv", "json"):
        code, out = run_cli(
            capsys, "series", "--by", by, "--max-perimeter", "64", "--format", fmt
        )
        assert code == 0
        assert (out, 0) == cli._emit_census(argparse.Namespace(format=fmt), projected, fields)


def _listed_keys(out, fmt):
    """The key cells of each row of a census or series table, in order."""
    if fmt == "table":
        return [tuple(line.split()[:-1]) for line in out.splitlines()[1:]]
    sep = "," if fmt == "csv" else " "
    rows = out.splitlines()[1:] if fmt == "csv" else out.splitlines()
    return [tuple(line.split(sep)[0].split("/")) for line in rows]


def _digit_parsing_order(key):
    # the order the front end once sorted its text keys by: numbers by
    # value, nose labels as text after them
    return tuple((0, int(part)) if part.isdigit() else (1, part) for part in key)


NOSE_LABELS = {"none", "one", "two", "zero"}


@pytest.mark.parametrize(
    "argv, formats, labels",
    [
        (("census", "--max-perimeter", "40", "--classify"), ("table", "csv"), NOSE_LABELS),
        (("census", "--max-perimeter", "40"), ("table", "csv", "bfile"), set()),
        (("series", "--by", "diagonals", "--max-perimeter", "64"), ("table", "csv"), set()),
        (("series", "--by", "noses", "--max-perimeter", "64"), ("table", "csv"), NOSE_LABELS),
        (("series", "--max-perimeter", "64"), ("table", "csv", "bfile"), set()),
    ],
    ids=("census-classified", "census", "series-diagonals", "series-noses", "series"),
)
def test_rows_come_in_sorted_key_order(capsys, argv, formats, labels):
    for fmt in formats:
        code, out = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        keys = _listed_keys(out, fmt)
        assert len(set(keys)) == len(keys) > 1
        assert {part for key in keys for part in key if not part.isdigit()} == labels
        assert keys == sorted(keys, key=_digit_parsing_order)


def test_series_json_nose_breakdown(capsys):
    code, out = run_cli(
        capsys, "series", "--max-perimeter", "8", "--by", "noses", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "4": {"none": 1},
        "6": {"one": 2},
        "8": {"one": 4, "two": 1, "zero": 2},
    }


def test_census_matches_series(capsys):
    code, out = run_cli(capsys, "census", "--max-perimeter", "12", "--format", "bfile")
    assert code == 0
    assert out == SMALL_BFILE


def test_census_classified_csv(capsys):
    code, out = run_cli(
        capsys, "census", "--max-perimeter", "14", "--classify", "--format", "csv"
    )
    assert code == 0
    assert out.startswith("key,count\n4/1/none/1,1\n")


def test_ratios_csv_rows(capsys):
    code, out = run_cli(capsys, "ratios", "--max-perimeter", "16", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "perimeter,column_convex,diagonally_convex,ratio"
    assert "14,558,556,1.0036" in lines
    assert lines[-1] == "16,2641,2618,1.0088"


def test_ratios_json_rows(capsys):
    code, out = run_cli(capsys, "ratios", "--max-perimeter", "16", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[-2:] == [
        {"perimeter": 14, "column_convex": 558, "diagonally_convex": 556, "ratio": "1.0036"},
        {"perimeter": 16, "column_convex": 2641, "diagonally_convex": 2618, "ratio": "1.0088"},
    ]


def test_census_json_counts(capsys):
    code, out = run_cli(capsys, "census", "--max-perimeter", "12", "--format", "json")
    assert code == 0
    assert out == json.dumps({"4": 1, "6": 2, "8": 7, "10": 28, "12": 122}, indent=2) + "\n"


def test_ratios_to_200_are_byte_identical(capsys):
    """The digest of the order-200 table as the dict-of-terms engine printed it."""
    code, out = run_cli(capsys, "ratios", "--max-perimeter", "200", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5b760cdb798d0a97c219946edae14add7145b43086644d0f605fbe061134b223"
    )


def test_ratios_rejects_small_bound():
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratios", "--max-perimeter", "12"])
    assert exc.value.code == 2


def test_verify_directed_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "directed")
    assert code == 0
    assert "PASS [directed] fixed point matches the binomial formula" in out
    assert out.rstrip().endswith("2 checks, 0 failed")


def test_verify_twonose_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "twonose", "--order", "20")
    assert code == 0
    assert "0 failed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "twonose", "--order", "6"),
        ("--order", "3"),
        ("--suite", "oracle", "--order", "3"),
        ("--suite", "kernel", "--order", "11"),
        ("--suite", "columnconvex", "--order", "3"),
        ("--suite", "directed", "--order", "0"),
    ],
)
def test_verify_rejects_order_below_suite_minimum(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv])
    assert exc.value.code == 2


def test_verify_twonose_suite_passes_at_its_minimum_order(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "twonose", "--order", "8")
    assert code == 0
    assert out.rstrip().endswith("2 checks, 0 failed")


def test_verify_kernel_suite_passes_at_its_minimum_order(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "kernel", "--order", "12")
    assert code == 0
    assert out.rstrip().endswith(" 0 failed")


def test_verify_columnconvex_suite_passes_at_its_minimum_order(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "columnconvex", "--order", "4")
    assert code == 0
    assert out.rstrip().endswith("6 checks, 0 failed")


def test_cli_suite_names_are_the_verify_suite_names():
    # the parser holds its own copy so that building it loads no engine
    assert cli.SUITE_NAMES == verify.SUITE_NAMES


def test_verify_default_d_samples_are_one_half_two_three(capsys):
    code, default = run_cli(capsys, "verify", "--suite", "kernel", "--order", "12")
    assert code == 0
    code, explicit = run_cli(
        capsys, "verify", "--suite", "kernel", "--order", "12", "--d-samples", "1,1/2,2,3"
    )
    assert code == 0
    assert default == explicit
    assert "(d=1/2)" in default and "(d=3)" in default


def test_verify_takes_a_leading_negative_fraction_after_an_equals_sign(capsys):
    # argparse alone reads "-1/2" or "-.5" after a space as an option; main
    # joins it to its flag, so the space form prints what the = form prints
    for samples, integer in (("-1/2,3", "3"), ("-.5,2", "2")):
        code, spaced = run_cli(
            capsys, "verify", "--suite", "kernel", "--order", "12", "--d-samples", samples
        )
        assert code == 0
        code, out = run_cli(
            capsys, "verify", "--suite", "kernel", "--order", "12", "--d-samples=" + samples
        )
        assert code == 0
        assert spaced == out
        lines = out.splitlines()
        # ten residual checks per sample, and the integer-coefficient check
        # at the integer sample
        labels = [line.rsplit("(", 1)[-1] for line in lines[:-1]]
        assert labels == ["d=-1/2)"] * 10 + ["d=%s)" % integer] * 11
        assert all(line.startswith("PASS [kernel] ") for line in lines[:-1])
        assert lines[-1] == "21 checks, 0 failed"


@pytest.mark.parametrize("flag", ["--d", "--d-sam"])
def test_verify_takes_a_leading_negative_fraction_after_an_abbreviated_flag(capsys, flag):
    # argparse accepts any unambiguous prefix of --d-samples, and main joins
    # "-1/2" to each of them as it does to the full flag
    code, spaced = run_cli(capsys, "verify", "--suite", "kernel", "--order", "12", flag, "-1/2")
    assert code == 0
    code, out = run_cli(capsys, "verify", "--suite", "kernel", "--order", "12", "--d-samples=-1/2")
    assert code == 0
    assert spaced == out
    assert out.splitlines()[-1] == "10 checks, 0 failed"


def test_verify_help_lists_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert "{%s}" % ",".join(verify.SUITE_NAMES + ("all",)) in capsys.readouterr().out


@pytest.mark.parametrize("samples", ["0", "1,0"])
def test_verify_rejects_a_zero_d_sample(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "kernel", "--order", "12", "--d-samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [captured.err.splitlines()[-1]]
    assert errors[0].endswith(
        "samples must be nonzero: at d=0 every series root of the kernel is z=1"
    )


@pytest.mark.parametrize("samples", ["-2", "1,-2"])
def test_verify_rejects_minus_two_as_a_d_sample(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "kernel", "--order", "12", "--d-samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [captured.err.splitlines()[-1]]
    assert "(d+2)^2" in errors[0]


@pytest.mark.parametrize("missing", [False, True])
def test_out_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, missing):
    # a missing directory fails before the temporary file exists; an
    # existing directory as target fails at the rename, after it
    target = tmp_path / "no" / "x" if missing else tmp_path / "taken"
    if not missing:
        target.mkdir()
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--max-perimeter", "8", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dcpoly series: error: cannot write %s: %s\n" % (
        target, "No such file or directory" if missing else "Is a directory")
    assert [p for p in tmp_path.iterdir() if p.name.startswith(".dcpoly")] == []


def test_out_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "series.bfile"
    code, out = run_cli(
        capsys,
        "series", "--max-perimeter", "12", "--format", "bfile",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == SMALL_BFILE
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".dcpoly")]
    assert leftovers == []


@pytest.mark.parametrize(
    "umask, existing, mode",
    [(0o022, None, 0o644), (0o002, None, 0o664), (0o022, 0o664, 0o664), (0o002, 0o600, 0o600)],
)
def test_out_file_gets_the_mode_open_would_give(tmp_path, capsys, umask, existing, mode):
    # a new file gets 0o666 less the umask; an existing one keeps its bits
    target = tmp_path / "series.bfile"
    if existing is not None:
        target.write_text("old\n")
        target.chmod(existing)
    previous = os.umask(umask)
    try:
        code, out = run_cli(
            capsys, "series", "--max-perimeter", "8", "--format", "bfile", "--out", str(target)
        )
    finally:
        os.umask(previous)
    assert (code, out) == (0, "")
    assert target.read_text() == "4 1\n6 2\n8 7\n"
    assert stat.S_IMODE(target.stat().st_mode) == mode


@pytest.mark.parametrize("existing", [True, False])
def test_out_through_a_symlink_writes_its_target(tmp_path, capsys, existing):
    # as ``> link`` does: the link stays a link, and its target, new or
    # not, gets the text
    real = tmp_path / "real"
    if existing:
        real.write_text("old\n")
    link = tmp_path / "link"
    link.symlink_to(real)
    code, out = run_cli(
        capsys, "series", "--max-perimeter", "4", "--format", "bfile", "--out", str(link)
    )
    assert (code, out) == (0, "")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == "4 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]


@pytest.mark.parametrize(
    "module, name, sub, error",
    [
        pytest.param(layered, "marginals", "series", ValueError, id="ValueError"),
        pytest.param(ratios, "ratio_table", "ratios", ArithmeticError, id="ArithmeticError"),
        pytest.param(brute, "generate", "census", layered.InvariantError, id="InvariantError"),
        pytest.param(verify, "run_suites", "verify", RuntimeError, id="RuntimeError"),
    ],
)
def test_an_engine_error_exits_2_with_one_line(monkeypatch, capsys, module, name, sub, error):
    def fail(*args):
        raise error("planted")

    monkeypatch.setattr(module, name, fail)
    with pytest.raises(SystemExit) as exc:
        cli.main([sub])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dcpoly %s: error: %s: planted\n" % (sub, error.__name__)


def test_verify_at_a_large_denominator_sample_finishes():
    # 4 + d^2 = m/q^2 with m near 4 * 10^18: its root is sqrt(m)/q, found
    # without factoring m
    env = dict(os.environ)
    src = str(Path(dcpoly.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "dcpoly.cli", "verify", "--suite", "kernel",
         "--order", "12", "--d-samples", "1/1000000007"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("\n10 checks, 0 failed\n")


def test_bfile_round_trip(capsys):
    code, out = run_cli(capsys, "census", "--max-perimeter", "24", "--format", "bfile")
    assert code == 0
    assert cli.parse_bfile(out) == brute.generate(24).by_perimeter()


def test_parse_bfile_rejects_malformed_lines():
    with pytest.raises(ValueError):
        cli.parse_bfile("4  1\n")
    with pytest.raises(ValueError):
        cli.parse_bfile("4\n")
