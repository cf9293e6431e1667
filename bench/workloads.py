"""The benchmark's workloads and the correctness gate applied to their CSV rows.

Each workload is one ``definetti sweep`` whose amount of work does not depend
on the workload seed S: exact rules have fixed nodes and the Monte Carlo
sample count is fixed. S reaches the program only through the generated argv
(``random-sym:S`` and ``mc:4000:S``).

A row passes the gate when the sweep exited with code 0, its status is PASS,
``lhs_err`` is finite and nonnegative, and these invariants hold for any S:

* lhs - lhs_err <= chain_bound <= explicit_bound;
* explicit_bound equals 3 c(k,d) sqrt(c(n+k,d)) e^(-(r/6) min(k/n,1)),
  with c(m,d) = C(m+d-1, d-1) recomputed here;
* fallback_nodes == nodes at r = 0, and nodes is the rule's fixed count.

At the default seed the row must also match the pinned seed row in
``reference/<workload>.csv``: lhs, chain_bound, explicit_bound and g_max to
relative tolerance RTOL, fallback_nodes and nodes exactly. lhs_err is not
pinned because the error estimate is expected to change.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 7
# The CSV carries 12 significant digits (rounding <= 5e-12 relative); 1e-9
# leaves room for a different summation order and nothing more.
RTOL = 1e-9
# Slack on the printed inequalities, matching the certifier's own 1e-9.
SLACK = 1e-9
PINNED_FLOATS = ("lhs", "chain_bound", "explicit_bound", "g_max")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n: int
    k: int
    r: tuple
    rule: str
    nodes: int
    why: str

    def sweep_args(self, seed: int) -> list:
        return [
            "--d", str(self.d),
            "--n", str(self.n),
            "--k", str(self.k),
            "--r", ",".join(str(r) for r in self.r),
            "--state", self.state(seed),
            "--rule", self.rule.format(seed=seed),
        ]

    def state(self, seed: int) -> str:
        return f"random-sym:{seed}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qubit-rsweep", 2, 6, 2, (0, 1, 2, 3, 4, 5, 6), "exact:8", 162,
            "n=6 makes the 64x64 weight_family recurrence the largest layer; "
            "seven thresholds on one state and rule expose any reuse across r",
        ),
        Workload(
            "qubit-wide-k", 2, 2, 8, (1,), "exact:10", 242,
            "dense 1024x1024 rho: conditioning and Instance validation dominate "
            "and peak RSS is largest; a single r gains nothing from reuse across r",
        ),
        Workload(
            "qutrit-mc", 3, 2, 2, (1, 2), "mc:4000:{seed}", 4000,
            "the only d=3 and Monte Carlo path: 24000 tiny 9x9 node evaluations, "
            "so per-call overhead dominates; runs the MC standard-error branch",
        ),
    )
}


def closed_form_bound(n: int, k: int, d: int, r: int) -> float:
    """3 c(k,d) sqrt(c(n+k,d)) e^(-(r/6) min(k/n,1)), c(m,d) = C(m+d-1, d-1)."""
    c_k = math.comb(k + d - 1, d - 1)
    c_nk = math.comb(n + k + d - 1, d - 1)
    return 3.0 * c_k * math.sqrt(c_nk) * math.exp(-(r / 6.0) * min(k / n, 1.0))


def parse_rows(csv_text: str) -> dict:
    """CSV report text -> {r: row dict}."""
    return {int(row["r"]): row for row in csv.DictReader(io.StringIO(csv_text))}


def reference_rows(workload: Workload) -> dict:
    return parse_rows((REFERENCE_DIR / f"{workload.name}.csv").read_text(encoding="utf-8"))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def row_ok(workload: Workload, seed: int, r: int, row: dict, pinned: dict | None) -> bool:
    """Whether one CSV row passes the gate; `pinned` is the seed row or None."""
    try:
        lhs, err = float(row["lhs"]), float(row["lhs_err"])
        chain, explicit = float(row["chain_bound"]), float(row["explicit_bound"])
        fallback, nodes = int(row["fallback_nodes"]), int(row["nodes"])
        checks = [
            row["status"] == "PASS",
            row["state"] == workload.state(seed),
            row["seed"] == str(seed),
            (int(row["d"]), int(row["n"]), int(row["k"])) == (workload.d, workload.n, workload.k),
            math.isfinite(err) and err >= 0.0,
            lhs - err <= chain + SLACK * max(1.0, chain),
            chain <= explicit + SLACK * max(1.0, explicit),
            _close(explicit, closed_form_bound(workload.n, workload.k, workload.d, r)),
            nodes == workload.nodes,
            r != 0 or fallback == nodes,
        ]
        if pinned is not None:
            checks += [_close(float(row[key]), float(pinned[key])) for key in PINNED_FLOATS]
            checks += [row[key] == pinned[key] for key in ("fallback_nodes", "nodes")]
    except (KeyError, TypeError, ValueError):
        return False
    return all(checks)


def count_failed(workload: Workload, seed: int, exit_code, csv_text) -> int:
    """Rows of one sweep that fail the gate; a bad exit or missing rows fail all."""
    if exit_code != 0 or csv_text is None:
        return len(workload.r)
    try:
        rows = parse_rows(csv_text)
    except (KeyError, ValueError, csv.Error):
        return len(workload.r)
    if sorted(rows) != list(workload.r):
        return len(workload.r)
    pinned = reference_rows(workload) if seed == DEFAULT_SEED else None
    return sum(
        not row_ok(workload, seed, r, rows[r], None if pinned is None else pinned.get(r, {}))
        for r in workload.r
    )
