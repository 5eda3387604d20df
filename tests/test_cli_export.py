"""Tests for the CLI and data-export helpers."""

import csv

import pytest

from repro.analysis.export import write_csv
from repro.cli import build_parser, main


def test_write_csv_roundtrip(tmp_path):
    path = write_csv(tmp_path / "sub" / "fig.csv",
                     ["x", "y"], [[1, 2.5], [3, 4.5]])
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows == [["x", "y"], ["1", "2.5"], ["3", "4.5"]]


def test_parser_accepts_known_figures():
    parser = build_parser()
    args = parser.parse_args(["fig6"])
    assert args.figure == "fig6"
    assert args.pages == 5


def test_parser_rejects_unknown_figure():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig99"])


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig6" in out and "table1" in out and "joint" in out


def test_cli_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Pixel2" in out
    assert "Intex" in out


def test_cli_fig6_with_csv(tmp_path, capsys):
    assert main(["fig6", "--csv", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "throughput_mbps" in out
    written = tmp_path / "fig6.csv"
    assert written.exists()
    with written.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["clock_mhz", "throughput_mbps"]
    assert len(rows) == 13  # header + 12 ladder steps


def test_cli_fig3bcd_small(capsys):
    assert main(["fig3bcd", "--pages", "2"]) == 0
    out = capsys.readouterr().out
    assert "Fig 3b" in out and "Fig 3c" in out and "Fig 3d" in out
