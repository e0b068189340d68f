"""Output checks: published integers and reference values from the parent commit.

Every number in every output row is compared with the recorded reference:
integers exactly, floats to a relative tolerance of 1e-12 (a regrouped
compensated sum may move the last bits).  Text between the numbers must
match exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass

import workloads

REL_TOL = 1e-12
_NUMBER = re.compile(
    r"(?<![A-Za-z_])(?:nan|-?inf)(?![A-Za-z_])|[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
)


@dataclass
class Check:
    name: str
    attempted: int
    failed: int
    detail: str = ""


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Data header and rows of a gapsum CSV report, without the '#' lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header, *rows = list(csv.reader(lines))
    return header, rows


def _numbers_match(got: str, ref: str) -> bool:
    if ref.lstrip("+-").isdigit():
        return got == ref
    g, r = float(got), float(ref)
    if math.isnan(r):
        return math.isnan(g)
    return g == r or math.isclose(g, r, rel_tol=REL_TOL)


def cell_matches(got: str, ref: str) -> bool:
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", ref):
        return False
    return all(
        _numbers_match(g, r) for g, r in zip(_NUMBER.findall(got), _NUMBER.findall(ref))
    )


def _compare(tag: str, rows: list[list[str]], ref_rows: list[list[str]]) -> Check:
    bad = [
        i for i, (got, ref) in enumerate(zip(rows, ref_rows))
        if len(got) != len(ref) or not all(map(cell_matches, got, ref))
    ]
    detail = f"first mismatch at row {bad[0]}: {rows[bad[0]]} vs {ref_rows[bad[0]]}" if bad else ""
    return Check(f"{tag}.values", len(ref_rows), len(bad), detail)


def _equal(name: str, got, expected) -> Check:
    ok = got == expected
    return Check(name, 1, 0 if ok else 1, "" if ok else f"got {got}, expected {expected}")


def check_rep(workload: str, workdir: str, exit_codes: dict, reference: dict) -> list[Check]:
    """Every check on the outputs one repetition left in ``workdir``."""
    out = [
        Check(f"{tag}.exit", 1, int(code != 0), f"exit code {code}" if code else "")
        for tag, code in exit_codes.items()
    ]
    tables = {}
    for tag, ref in reference.items():
        path = os.path.join(workdir, f"{tag}.csv")
        if not os.path.exists(path):
            out.append(Check(f"{tag}.values", len(ref["rows"]), len(ref["rows"]), "no output file"))
            continue
        header, rows = read_rows(path)
        tables[tag] = rows
        out.append(_equal(f"{tag}.header", header, ref["header"]))
        if workload == "stream":
            # A resumed run writes only the snapshots past its restart
            # point, so rows are matched to the reference by limit.
            by_limit = {r[0]: r for r in ref["rows"]}
            out.append(_compare(tag, rows, [by_limit.get(r[0], []) for r in rows]))
        else:
            out.append(_equal(f"{tag}.row_count", len(rows), len(ref["rows"])))
            out.append(_compare(tag, rows, ref["rows"]))
    out.extend(_published(workload, tables, reference))
    return out


def _published(workload: str, tables: dict, reference: dict) -> list[Check]:
    """Checks against published values and the expected snapshot grid."""
    def pair_count(tag, d):
        for row in tables.get(tag, []):
            if row[0] == "conjecture1" and json.loads(row[1])["d"] == d:
                return int(float(row[2]))
        return None

    if workload == "count":
        sieve = tables.get("sieve-stats")
        return [
            _equal("pi(1e9)", int(sieve[0][2]) if sieve else None, workloads.PI[10**9]),
            _equal("pi2(1e9)", pair_count("conjecture1", 2), workloads.PI2[10**9]),
        ]
    if workload == "suite":
        hist = tables.get("gaps-histogram")
        gaps = sum(int(float(row[2])) for row in hist) if hist else None
        return [
            _equal("pi(1e8)", gaps + 1 if hist else None, workloads.PI[10**8]),
            _equal("pi2(1e8)", pair_count("conjecture1", 2), workloads.PI2[10**8]),
        ]
    # The uninterrupted run's snapshot limits: the default grid plus the limit.
    rows = tables.get("weighted-sum", [])
    expected = [r[0] for r in reference["weighted-sum"]["rows"]]
    got = [row[0] for row in rows]
    return [
        _equal("weighted-sum.terms", int(rows[-1][2]) if rows else None,
               workloads.PI[workloads.STREAM_LIMIT] - 1),
        Check("weighted-sum.snapshot_list", 1, int(got != expected),
              "" if got == expected else
              f"resumed report has {len(got)} snapshot rows, expected {len(expected)}"),
    ]
