"""Batch front end: build instances, certify bounds, emit machine-readable reports.

Three subcommands:

``verify``
    Certify one state for one or more truncation thresholds and print report
    rows as CSV.

``sweep``
    Cartesian sweep over threshold (and optionally trailing-block size) lists,
    written to a report file.

``check-props``
    Run the standalone property suites (post-selection reconstruction, gentle
    measurement, tail decay, exponent comparison) on their default grids.

Exit codes: 0 all PASS, 1 any VIOLATION, 2 any INCONCLUSIVE (and none worse),
64 on a usage error, 70 on an internal error (a crash such as running out of
memory), so that no crash reads as a verdict.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import traceback

import numpy as np

from .certifier import (
    INCONCLUSIVE,
    VIOLATION,
    Instance,
    check_chernoff_claim,
    check_exponent_sandwich,
    check_gentle,
    check_post_selection,
    memory_floor,
    verify,
)
from .haar import exact_node_count, exact_qubit_rule, monte_carlo_rule
from .linalg import Operator
from .symmetric import dicke_state, ghz_state, random_symmetric_pure

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70

class UsageError(Exception):
    """Invalid flags or config, or a run too large for this machine; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclasses.dataclass(frozen=True)
class ReportRow:
    d: int
    n: int
    k: int
    r: int
    state: str
    lhs: float
    lhs_err: float
    chain_bound: float
    explicit_bound: float
    g_max: float
    fallback_nodes: int
    nodes: int
    seed: "int | None"
    status: str

    def __post_init__(self):
        for value in (self.lhs, self.lhs_err, self.chain_bound, self.explicit_bound, self.g_max):
            if not math.isfinite(value):
                raise ValueError(f"non-finite report field {value!r}")


CSV_HEADER = ",".join(field.name for field in dataclasses.fields(ReportRow))


def _csv_field(text: str) -> str:
    if "," in text:
        return '"' + text + '"'
    return text


def row_to_csv(row: ReportRow) -> str:
    fields = []
    for value in dataclasses.astuple(row):
        if isinstance(value, float):
            fields.append(f"{value:.12g}")
        else:
            fields.append("" if value is None else _csv_field(str(value)))
    return ",".join(fields)


def rows_to_csv_text(rows) -> str:
    return "\n".join([CSV_HEADER] + [row_to_csv(row) for row in rows]) + "\n"


def rows_to_json_text(rows) -> str:
    return json.dumps([dataclasses.asdict(row) for row in rows], indent=2) + "\n"


def _parse_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{name} expects an integer, got {text!r}") from None


def _parse_int_list(name: str, text: str) -> list:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise UsageError(f"{name} expects a comma-separated integer list, got {text!r}")
    return [_parse_int(name, part) for part in items]


def parse_state_spec(spec: str, d: int, sites: int):
    """Build the symmetric state named by SPEC on `sites` sites; returns (state, seed)."""
    name, _, arg = spec.partition(":")
    try:
        if name == "product":
            if arg:
                raise UsageError("state 'product' takes no argument")
            return dicke_state(sites, d, (sites,) + (0,) * (d - 1)), None
        if name == "ghz":
            if arg:
                raise UsageError("state 'ghz' takes no argument")
            return ghz_state(sites, d), None
        if name == "dicke":
            occupation = tuple(_parse_int("dicke occupation", part) for part in arg.split(","))
            return dicke_state(sites, d, occupation), None
        if name == "random-sym":
            seed = _parse_int("random-sym seed", arg)
            return random_symmetric_pure(sites, d, seed), seed
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"invalid state spec {spec!r}: {exc}") from None
    raise UsageError(
        f"unknown state spec {spec!r}; expected product, ghz, dicke:OCC, or random-sym:SEED"
    )


def _read_rule_spec(spec: str, d: int, sites: int):
    """Check SPEC for `sites` = n + max k without building it; returns (nodes, build, mc_seed).

    `exact:t` is exact through degree 2t+1, which must reach every n+k of the run.
    """
    name, _, arg = spec.partition(":")
    if name == "exact":
        if d != 2:
            raise UsageError("exact rules are available only for d=2")
        degree = _parse_int("exact rule degree", arg)
        if 2 * degree + 1 < sites:
            raise UsageError(
                f"exact:{degree} is exact through degree {2 * degree + 1}, below n+k={sites}; "
                "the certification integrands have that polynomial degree"
            )
        return exact_node_count(degree), functools.partial(exact_qubit_rule, degree), None
    if name == "mc":
        parts = arg.split(":")
        if len(parts) not in (1, 2) or not parts[0]:
            raise UsageError(f"invalid rule spec {spec!r}; expected mc:SAMPLES[:SEED]")
        samples = _parse_int("mc samples", parts[0])
        seed = _parse_int("mc seed", parts[1]) if len(parts) == 2 else 0
        if samples < 1:
            raise UsageError("mc samples must be positive")
        if seed < 0:
            raise UsageError(f"mc seed must be non-negative, got {seed}")
        return samples, functools.partial(monte_carlo_rule, d, samples, seed=seed), seed
    raise UsageError(f"unknown rule spec {spec!r}; expected exact:DEGREE or mc:SAMPLES[:SEED]")


def parse_rule_spec(spec: str, d: int, sites: int):
    """Build the quadrature rule named by SPEC for `sites` = n + max k; returns (rule, mc_seed)."""
    _, build, seed = _read_rule_spec(spec, d, sites)
    return build(), seed


def read_config_file(path: str, keys) -> dict:
    """Flat key = value file; each key names a long flag, whose destination is in `keys`."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
        key = key.strip()
        dest = key.replace("-", "_")
        if dest not in keys:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[dest] = value.strip()
    return values


def _merge_config(args) -> None:
    if not getattr(args, "config", None):
        return
    keys = set(vars(args)) - {"command", "config"}
    for dest, value in read_config_file(args.config, keys).items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _physical_memory():
    """Bytes of physical memory, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def build_rows(d, n, k_list, r_list, state_spec, rule_spec):
    """Certify every (k, r) pair with one rule, read for n + max k sites, and one `verify` per k.

    Every setting, and every k's `memory_floor` against physical memory, is checked before any
    state or rule is built, and every k's state and `Instance` before the rule is built.
    """
    thresholds, ks = sorted(set(r_list)), sorted(set(k_list))
    if d < 2:
        raise UsageError(f"d must be >= 2, got {d}")
    if ks[0] < 1:
        raise UsageError(f"k must be positive, got {ks[0]}")
    for r in thresholds:
        if not 0 <= r <= n:
            raise UsageError(f"r must lie in [0, n]; got r={r} with n={n}")
    nodes = _read_rule_spec(rule_spec, d, n + ks[-1])[0]
    memory = _physical_memory()
    for k in ks:
        need = memory_floor(d, n, k, len(thresholds), nodes)
        if memory is not None and need > memory:
            raise UsageError(
                f"verify would hold at least {need} bytes at n+k={n + k}, "
                f"more than this machine's {memory} bytes of memory"
            )
    instances = []
    for k in ks:
        state, state_seed = parse_state_spec(state_spec, d, n + k)
        try:
            instances.append((Instance(d=d, n=n, k=k, r=thresholds[0], rho=state), state_seed))
        except ValueError as exc:
            raise UsageError(f"cannot build instance: {exc}") from None
    rule, mc_seed = parse_rule_spec(rule_spec, d, n + ks[-1])
    rows = []
    for inst, state_seed in instances:
        reports = verify(inst, rule, thresholds=thresholds)
        for r, report in zip(thresholds, reports):
            rows.append(
                ReportRow(
                    d=d, n=n, k=inst.k, r=r, state=state_spec,
                    lhs=report.lhs,
                    lhs_err=report.lhs_integration_error,
                    chain_bound=report.chain_bound,
                    explicit_bound=report.explicit_bound,
                    g_max=report.g_max_value,
                    fallback_nodes=report.fallback_node_count,
                    nodes=rule.node_count,
                    seed=state_seed if state_seed is not None else mc_seed,
                    status=report.status,
                )
            )
    return rows


def _status_exit_code(rows) -> int:
    statuses = {row.status for row in rows}
    if VIOLATION in statuses:
        return EXIT_VIOLATION
    if INCONCLUSIVE in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _rows_from_args(args, required, k_list: bool) -> list:
    """Merge the config file, parse the settings and certify; `k_list` lets --k be a list."""
    _merge_config(args)
    names = ("d", "n", "k", "r", "state", "rule") + required
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        raise UsageError("missing required settings: " + ", ".join("--" + m for m in missing))
    d = _parse_int("--d", args.d)
    n = _parse_int("--n", args.n)
    ks = _parse_int_list("--k", args.k) if k_list else [_parse_int("--k", args.k)]
    r_list = _parse_int_list("--r", args.r)
    return build_rows(d, n, ks, r_list, args.state, args.rule)


def cmd_verify(args) -> int:
    rows = _rows_from_args(args, (), k_list=False)
    text = rows_to_csv_text(rows)
    sys.stdout.write(text)
    if args.output is not None:
        _write_text(args.output, text)
    if args.json is not None:
        _write_text(args.json, rows_to_json_text(rows))
    return _status_exit_code(rows)


def cmd_sweep(args) -> int:
    rows = _rows_from_args(args, ("output",), k_list=True)
    _write_text(args.output, rows_to_csv_text(rows))
    print(f"wrote {len(rows)} rows to {args.output}")
    if args.json is not None:
        _write_text(args.json, rows_to_json_text(rows))
        print(f"wrote json mirror to {args.json}")
    return _status_exit_code(rows)


def _gentle_suite(pairs: int, seed: int = 0):
    """Seeded random (state, effect) pairs; returns the worst slack rhs - lhs."""
    dims = (2, 3, 4, 8, 16)
    rng = np.random.default_rng(seed)
    worst = math.inf
    for index in range(pairs):
        side = dims[index % len(dims)]
        g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        h = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        h = h + h.conj().T
        eigs, vecs = np.linalg.eigh(h)
        eigs = (eigs - eigs.min()) / (eigs.max() - eigs.min())
        effect = (vecs * eigs) @ vecs.conj().T
        lhs, rhs = check_gentle(Operator(side, 1, rho), Operator(side, 1, effect))
        worst = min(worst, rhs - lhs)
    return worst


def cmd_check_props(args) -> int:
    del args
    failures = 0

    cases = [(exact_qubit_rule(n), 2, n, 1e-11, "1e-11") for n in range(1, 7)]
    cases.append((monte_carlo_rule(3, 100000, seed=0), 3, 2, 5e-3, "5e-3"))
    for rule, d, n, tol, tol_text in cases:
        err = check_post_selection(rule, n)
        ok = err <= tol
        failures += 0 if ok else 1
        print(
            f"post-selection d={d} n={n} {rule.describe()}: "
            f"max entrywise error {err:.3e} (tol {tol_text}) {'ok' if ok else 'FAIL'}"
        )

    slack = _gentle_suite(200)
    ok = slack >= -1e-10
    failures += 0 if ok else 1
    print(
        f"gentle measurement, 200 seeded pairs, dims 2..16: "
        f"min slack {slack:.6g} (needs >= -1e-10) {'ok' if ok else 'FAIL'}"
    )

    min_tail_slack = math.inf
    divergence_ok = True
    for n in range(1, 51):
        for r in range(1, n + 1):
            try:
                min_tail_slack = min(min_tail_slack, check_chernoff_claim(n, r))
            except ArithmeticError:
                divergence_ok = False
    ok = divergence_ok and min_tail_slack >= -1e-12
    failures += 0 if ok else 1
    print(
        f"tail decay claim, n <= 50, all r: min slack {min_tail_slack:.6g}, "
        f"divergence lower bound {'holds' if divergence_ok else 'FAILS'} "
        f"{'ok' if ok else 'FAIL'}"
    )

    pairs = [(n, k) for n in range(1, 51) for k in range(1, 51)]
    ok = check_exponent_sandwich(pairs)
    failures += 0 if ok else 1
    print(f"exponent sandwich, n,k <= 50: {'ok' if ok else 'FAIL'}")

    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def _add_common_flags(sub, k_help):
    sub.add_argument("--d", help="local site dimension")
    sub.add_argument("--n", help="number of retained sites")
    sub.add_argument("--k", help=k_help)
    sub.add_argument("--r", help="comma-separated truncation thresholds, each in [0, n]")
    sub.add_argument(
        "--state",
        help="state spec: product | ghz | dicke:OCC (comma-separated counts) | random-sym:SEED",
    )
    sub.add_argument("--rule", help="integration rule: exact:DEGREE (d=2) | mc:SAMPLES[:SEED]")
    sub.add_argument("--output", help="write report rows as CSV to this path")
    sub.add_argument("--json", help="write a structured mirror of the rows to this path")
    sub.add_argument("--config", help="flat key = value file; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="definetti", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)
    verify_cmd = commands.add_parser("verify", help="certify one state, one row per threshold")
    _add_common_flags(verify_cmd, "number of traced-out sites")
    sweep_cmd = commands.add_parser("sweep", help="cartesian sweep written to a report file")
    _add_common_flags(sweep_cmd, "comma-separated list of traced-out site counts")
    commands.add_parser("check-props", help="run the standalone property suites")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "check-props":
            return cmd_check_props(args)
        raise UsageError("expected a subcommand: verify, sweep, or check-props")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
