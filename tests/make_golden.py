"""Regenerate the golden inputs and reports.

Run from the repository root:  python tests/make_golden.py
Writes into tests/golden/ (or $GHFP_DATA_DIR when set).  The committed
copies are what test_golden.py diffs against.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from ghfp import Field, check_cocycle, elementary_abelian, multiplication_cocycle
from ghfp.cli import _jsonify, consolidated_report
from ghfp.fileio import write_cay, write_coc
from ghfp.ghmatrix import sylvester_power_cocycle
from ghfp.planar import planar_coboundary, table1

import paper_data


def golden_dir() -> Path:
    return Path(os.environ.get("GHFP_DATA_DIR",
                               Path(__file__).parent / "golden"))


def build_inputs(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    e41 = check_cocycle(paper_data.H_ORDER4, elementary_abelian(2, 2),
                        Field(2, 2))
    write_coc(out / "e41.coc", e41)
    write_coc(out / "e42.coc", sylvester_power_cocycle(Field(3, 1), 2))
    s8 = multiplication_cocycle(Field(2, 3), "primitive-power")
    write_cay(out / "e43_group.cay", s8.group)
    write_coc(out / "e43.coc", s8, group_path="e43_group.cay")
    write_coc(out / "e44.coc",
              planar_coboundary(4, 3, Field(3, 4, paper_data.POLY_81)))


def build_reports(out: Path) -> None:
    for name in ("e41", "e42", "e43", "e44"):
        report = consolidated_report(out / f"{name}.coc")
        (out / f"{name}.report.json").write_text(
            json.dumps(report, sort_keys=True, indent=1, default=_jsonify)
            + "\n")
    cells = table1(4, 6)
    for cell in cells:
        cell.pop("seconds", None)
    (out / "table1_a6.json").write_text(
        json.dumps(cells, sort_keys=True, indent=1, default=_jsonify) + "\n")


if __name__ == "__main__":
    target = golden_dir()
    build_inputs(target)
    build_reports(target)
    print(f"golden files written to {target}")
