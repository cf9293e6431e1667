"""Batch front end: build instances, certify bounds, emit machine-readable reports.

usage: definetti verify|sweep|check-props [--FLAG VALUE | --FLAG=VALUE]...

  verify       certify one state for one or more truncation thresholds; prints
               the report rows as CSV
  sweep        the same over a comma-separated --k list too; writes the rows to
               --output
  check-props  run the standalone property checks that the verdicts rest on
               (post-selection reconstruction, and the Chernoff step: g_max below
               its ceiling e^(-(r/3) min(k/n, 1))) on their default grids; takes
               no flags

A flag takes its full name only, the last repeat of a flag wins, and a value
given as a separate token may not begin with "--". -h or --help prints this text.

Exit codes: 0 all PASS, 1 any VIOLATION, 2 any INCONCLUSIVE (and none worse),
64 on a usage error, 70 on an internal error (a crash such as running out of
memory), so that no crash reads as a verdict.
"""

import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import traceback

from .certifier import (
    INCONCLUSIVE,
    VIOLATION,
    Instance,
    check_post_selection,
    g_max,
    memory_floor,
    verify,
)
from .haar import exact_node_count, exact_qubit_rule, monte_carlo_rule
from .symmetric import dicke_state, ghz_state, random_symmetric_pure

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70

class UsageError(Exception):
    """Invalid flags or config, or a run too large for this machine; maps to exit code 64."""


# every flag of verify and sweep, in help order; each but config is also a config-file key
FLAGS = {
    "d": "local site dimension",
    "n": "number of retained sites",
    "k": "number of traced-out sites; sweep takes a comma-separated list",
    "r": "comma-separated truncation thresholds, each in [0, n]",
    "state": "state spec: product | ghz | dicke:OCC (comma-separated counts) | random-sym:SEED",
    "rule": "integration rule: exact:DEGREE (d=2) | mc:SAMPLES[:SEED]",
    "output": "write report rows as CSV to this path",
    "json": "write a structured mirror of the rows to this path",
    "config": "flat key = value file; flags override",
}


# the run's context (d, n, k, state, nodes, seed) and the VerificationReport fields but
# rule_description, each column under its field's name
CSV_HEADER = (
    "d,n,k,r,state,lhs,lhs_err,chain_bound,explicit_bound,g_max,fallback_nodes,nodes,seed,status"
)


def rows_to_csv_text(rows) -> str:
    """The header, then one line per row: floats to 12 significant digits, a None seed empty."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, CSV_HEADER.split(","), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: f"{v:.12g}" if isinstance(v, float) else v for c, v in row.items()})
    return buffer.getvalue()


def rows_to_json_text(rows) -> str:
    return json.dumps(rows, indent=2) + "\n"


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
    """Check SPEC for `sites` = n + max k without building it; returns (nodes, build).

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
        return exact_node_count(degree), functools.partial(exact_qubit_rule, degree)
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
        return samples, functools.partial(monte_carlo_rule, d, samples, seed=seed)
    raise UsageError(f"unknown rule spec {spec!r}; expected exact:DEGREE or mc:SAMPLES[:SEED]")


def parse_rule_spec(spec: str, d: int, sites: int):
    """Build the quadrature rule named by SPEC for `sites` = n + max k."""
    return _read_rule_spec(spec, d, sites)[1]()


def read_config_file(path: str, keys) -> dict:
    """Flat key = value file; each key is a flag name in `keys`."""
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
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _physical_memory():
    """Bytes of physical memory, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def build_rows(d, n, k_list, r_list, state_spec, rule_spec):
    """Certify every (k, r) pair with one rule, read for n + max k sites, and one `verify` per k.

    Every setting, `memory_floor` at n + max k against physical memory, and that the type
    multiplicities of n + max k sites fit a float (so does each `math.comb(n, i)` of `g_max`,
    though not their sum) are checked before any state or rule is built, and every k's state and
    `Instance` before the rule is built. Both checks only tighten as k grows, so checking
    n + max k once refuses every k that would fail.

    Returns one dict per row, keyed by the columns of CSV_HEADER in their order.
    """
    thresholds, ks = sorted(set(r_list)), sorted(set(k_list))
    for name, value, low in (("d", d, 2), ("n", n, 1), ("k", ks[0], 1)):
        if value < low:
            raise UsageError(f"{name} must be >= {low}, got {value}")
    for r in thresholds:
        if not 0 <= r <= n:
            raise UsageError(f"r must lie in [0, n]; got r={r} with n={n}")
    sites = n + ks[-1]
    nodes = _read_rule_spec(rule_spec, d, sites)[0]
    need, memory = memory_floor(d, n, ks[-1], len(thresholds), nodes), _physical_memory()
    if memory is not None and need > memory:
        raise UsageError(
            f"verify would hold at least {need} bytes at n+k={sites}, "
            f"more than this machine's {memory} bytes of memory"
        )
    # the most even type has the largest multiplicity. Built site by site, round-robin over the
    # levels, site p raises its level to ceil(p/d) sites and the exact value never decreases,
    # so the first value past the largest float refuses the run
    largest = 1
    for placed in range(1, sites + 1):
        largest = largest * placed // -(-placed // d)
        if largest > sys.float_info.max:
            raise UsageError(
                f"n+k={sites} is too large at d={d}: the multiplicity (n+k)!/prod t_i! of its "
                f"most even type t exceeds the largest float, {sys.float_info.max:.6g}"
            )
    instances = []
    for k in ks:
        state, state_seed = parse_state_spec(state_spec, d, n + k)
        try:
            instances.append((Instance(d=d, n=n, k=k, rho=state), state_seed))
        except ValueError as exc:
            raise UsageError(f"cannot build instance: {exc}") from None
    rule = parse_rule_spec(rule_spec, d, sites)
    rows = []
    for inst, state_seed in instances:
        context = dict(
            d=d, n=n, k=inst.k, state=state_spec, nodes=rule.node_count,
            seed=rule.seed if state_seed is None else state_seed,
        )
        for report in verify(inst, rule, thresholds):
            fields = {**context, **dataclasses.asdict(report)}
            rows.append({name: fields[name] for name in CSV_HEADER.split(",")})
    return rows


def _status_exit_code(rows) -> int:
    statuses = {row["status"] for row in rows}
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


def _rows_from_args(values, required, k_list: bool) -> list:
    """Fill unset flags from --config, parse and certify; `k_list` lets --k be a list."""
    if values.get("config"):
        for key, value in read_config_file(values["config"], FLAGS.keys() - {"config"}).items():
            values.setdefault(key, value)
    names = ("d", "n", "k", "r", "state", "rule") + required
    missing = [name for name in names if name not in values]
    if missing:
        raise UsageError("missing required settings: " + ", ".join("--" + m for m in missing))
    d = _parse_int("--d", values["d"])
    n = _parse_int("--n", values["n"])
    ks = _parse_int_list("--k", values["k"]) if k_list else [_parse_int("--k", values["k"])]
    r_list = _parse_int_list("--r", values["r"])
    return build_rows(d, n, ks, r_list, values["state"], values["rule"])


def cmd_verify(values) -> int:
    rows = _rows_from_args(values, (), k_list=False)
    text = rows_to_csv_text(rows)
    sys.stdout.write(text)
    if "output" in values:
        _write_text(values["output"], text)
    if "json" in values:
        _write_text(values["json"], rows_to_json_text(rows))
    return _status_exit_code(rows)


def cmd_sweep(values) -> int:
    rows = _rows_from_args(values, ("output",), k_list=True)
    _write_text(values["output"], rows_to_csv_text(rows))
    print(f"wrote {len(rows)} rows to {values['output']}")
    if "json" in values:
        _write_text(values["json"], rows_to_json_text(rows))
        print(f"wrote json mirror to {values['json']}")
    return _status_exit_code(rows)


def cmd_check_props(values) -> int:
    del values
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

    largest, ok = 0.0, True
    for n in range(1, 51):
        for k in (1, n, 2 * n):
            for r in range(1, n + 1):
                try:
                    largest = max(largest, g_max(n, k, r) / math.exp(-(r / 3) * min(k / n, 1)))
                except ArithmeticError:  # g_max above its ceiling
                    ok = False
    failures += 0 if ok else 1
    print(
        f"tail decay claim, n <= 50, all r, k in {{1, n, 2n}}: "
        f"max g_max / e^(-(r/3) min(k/n, 1)) {largest:.6g} {'ok' if ok else 'FAIL'}"
    )

    return EXIT_OK if failures == 0 else EXIT_VIOLATION


COMMANDS = {"verify": cmd_verify, "sweep": cmd_sweep, "check-props": cmd_check_props}


def _parse_args(argv):
    """(command, {flag: value}) from a subcommand, then --FLAG VALUE or --FLAG=VALUE pairs.

    Each FLAG is a full name from FLAGS, and the last repeat of a flag wins.
    """
    if not argv or argv[0] not in COMMANDS:
        got = repr(argv[0]) if argv else "nothing"
        raise UsageError(f"expected a subcommand: verify, sweep, or check-props; got {got}")
    command, tokens, values = argv[0], iter(argv[1:]), {}
    for token in tokens:
        if command == "check-props":
            raise UsageError(f"check-props takes no flags, got {token!r}")
        name, eq, value = token[2:].partition("=")
        if not token.startswith("--") or name not in FLAGS:
            raise UsageError(f"unknown argument {token!r}; the flags are --" + ", --".join(FLAGS))
        if not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise UsageError(f"--{name} expects a value")
        values[name] = value
    return command, values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            flags = "".join(f"\n  --{name:<8}{meaning}" for name, meaning in FLAGS.items())
            print(f"{__doc__.strip()}\n\nflags of verify and sweep:{flags}")
            return EXIT_OK
        command, values = _parse_args(argv)
        return COMMANDS[command](values)
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
