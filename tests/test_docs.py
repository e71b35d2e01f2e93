"""docs/formats.md names the same row vocabulary as the scans."""

import re
from pathlib import Path

from prational import scans

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def _reason_cell(section: str, column: str = "reason") -> str:
    """The meaning cell of a column (`reason` by default) in one command's table."""
    body = FORMATS.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"^\| `{column}` \| (.*) \|$", body, re.MULTILINE).group(1)


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
    assert documented == {scans.COMPLETE, scans.SUFFICIENT, scans.PARTIAL}
