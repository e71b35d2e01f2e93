"""docs/formats.md names the same row vocabulary as the scans, the same
columns as the golden payloads, and every option of the command line."""

import argparse
import re
from pathlib import Path

import pytest

from prational import abcaudit, cli, factorint, scans

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ROOT / "docs" / "formats.md"
GOLDEN = ROOT / "tests" / "golden"


def _section(section: str) -> str:
    """The body of one command's section."""
    return FORMATS.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]


def _reason_cell(section: str, column: str = "reason") -> str:
    """The meaning cell of a column (`reason` by default) in one command's table."""
    return re.search(rf"^\| `{column}` \| (.*) \|$", _section(section), re.MULTILINE).group(1)


def test_reason_cells_list_exactly_the_scans_reasons():
    reasons = {v for k, v in vars(scans).items() if k.startswith("REASON_")}
    documented = set()
    for section, status in (("scan-wieferich", scans.SKIPPED), ("scan-prational", scans.EXCLUDED)):
        cell = _reason_cell(section)
        assert cell.startswith(f"for `{status}`: ")
        documented |= set(re.findall(r"`([^`]+)`", cell.split(": ", 1)[1]))
    assert documented == reasons


def test_factor_status_cell_lists_the_scans_statuses():
    cell = _reason_cell("scan-wieferich", "factor_status")
    documented = set(re.findall(r"`([^`]+)`", cell)) - {scans.REASON_PHI}
    assert documented == {factorint.Status.COMPLETE.value, scans.SUFFICIENT, factorint.Status.PARTIAL.value}


# the record whose fields are a command's columns
RECORDS = {"scan-wieferich": scans.ScanRecord, "abc-quality": abcaudit.SquarefullRow}


@pytest.mark.parametrize("section", ["scan-wieferich", "scan-prational", "abc-quality"])
def test_column_table_lists_the_golden_header(section):
    documented = re.findall(r"^\| `([^`]+)` \|", _section(section), re.MULTILINE)
    headers = {
        path.read_text().split("\n", 1)[0]
        for path in GOLDEN.glob(f"{section}-*.csv")
        if not path.read_text().startswith("#")   # a payload without rows has no header
    }
    assert [header.split(",") for header in headers] == [documented]
    if section in RECORDS:
        assert tuple(documented) == RECORDS[section]._fields


def test_abc_factor_status_cell_lists_the_row_statuses():
    """A row's factorization is merged from searched pieces, so it is never
    TRIAL: its status is complete or partial."""
    cell = _reason_cell("abc-quality", "factor_status")
    documented = set(re.findall(r"`([^`]+)`", cell))
    assert documented == {factorint.Status.COMPLETE.value, factorint.Status.PARTIAL.value}


def test_every_cli_option_is_documented():
    """The option table of docs/formats.md has one column per subcommand, in
    the parser's order, and marks in it exactly the long options that the
    subcommand takes, --help aside."""
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    taken = {
        (option, command)
        for command, sub in commands.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    header, _, *rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in _section("Options").splitlines()
        if line.startswith("|")
    ]
    assert header[1:] == list(commands.choices)
    assert {cell for row in rows for cell in row[1:]} == {"yes", ""}
    documented = {
        (row[0].strip("`"), command) for row in rows for command, cell in zip(header[1:], row[1:]) if cell
    }
    assert sorted(documented ^ taken) == []
