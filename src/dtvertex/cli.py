"""Command-line interface: enumeration, identity checks, cache maintenance.

Exit codes for `check`: 0 when the predicted identity is confirmed (for
remfail: when non-existence is certified), 1 when the check ran but the
identity fails, 2 on pipeline errors, with the offending partition in
the report, and on usage errors such as an unknown command, kind or
option, a missing or malformed value, an order below 1, a remfail order
other than 2, or a dimension or option that the KINDS table does not
give the kind.  main returns the code and raises no SystemExit.  The
argv is read against the COMMANDS table in one loop, which builds no
parser object and imports nothing, as every run is a fresh process.
Reports are deterministic for fixed flags and seed, including under
--jobs > 1.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from fractions import Fraction
from functools import partial
from itertools import repeat
from types import SimpleNamespace

from . import cache as cache_mod
from .errors import DTVertexError, naming
from .forms import compute_weight, cy_bundle_term, full_torus_ratio
from .kclass import check_key_conjecture
from .omega import check_exp_identity, omega_c
from .orientation import load_orientation, positive_omega_orientation, verify_uniqueness
from .partitions import canonical_representatives, enumerate_partitions
from .series import build_z_4k, build_z_odd, check_power_law, target_4k, target_odd


def _prepare_weights(d, order, jobs, cache_path):
    """Compute weights for all canonical partitions up to the order.

    Returns {serialized key: PartitionWeight}.  Weights the cache has no
    record of, or only a stale one, are computed in sorted key order, by
    a pool of min(jobs, pending) processes when that is more than one,
    and each is appended to the cache as it arrives, in that order and
    in this process only, through one handle flushed line by line, so a
    run that fails keeps the same records under any jobs.
    """
    store = cache_mod.WeightCache(cache_path)
    out = {}
    pending = []
    for n in range(1, order + 1):
        for rep, _ in canonical_representatives(d - 1, n):
            w = store.get_weight(rep, d)
            if w is None:
                pending.append(rep)
            else:
                out[rep.serialize()] = w
    pending.sort(key=lambda p: p.key())
    workers = min(jobs, len(pending))
    with contextlib.ExitStack() as stack:
        stack.callback(store.close)
        mapper = map
        if workers > 1:
            # imported here, so a serial run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for w in mapper(compute_weight, pending, repeat(d)):
            out[w.partition.serialize()] = w
            store.append(w)
    return out


def _rows(d, order):
    """(rep, row) for each canonical representative up to the order; the
    row holds its partition, size, corner_height and orbit_size, and
    each check adds its own fields."""
    for n in range(1, order + 1):
        for rep, orbit in canonical_representatives(d - 1, n):
            yield rep, {
                "partition": rep.serialize(),
                "size": n,
                "corner_height": rep.corner_height(),
                "orbit_size": orbit,
            }


def check_odd(d, order, args):
    z = build_z_odd(d, order)
    target = target_odd(d, order)
    return z == target, {"series": z.serialize(), "target": target.serialize()}


def _value(flag, parse, text):
    """parse(text), or a usage error naming the flag if it raises."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError("%s: invalid value %r" % (flag, text)) from None


def _parse_ell(text):
    """The --ell values: "symbolic" (the default), or those of an integer
    or of a non-empty range a..b; any other text is a ValueError."""
    if text in (None, "symbolic"):
        return "symbolic"
    lo, dots, hi = text.partition("..")
    values = list(range(int(lo), int(hi if dots else lo) + 1))
    if values:
        return values
    raise ValueError


def check_fourk(d, order, args):
    ell = _value("--ell", _parse_ell, args.ell)
    orient = load_orientation(args.orientation_file) if args.orientation_file else None
    weights = _prepare_weights(d, order, args.jobs, args.cache)
    if orient is None:
        orient = positive_omega_orientation(weights)
    z = build_z_4k(d, order, orient, weights)
    target = target_4k(d, order)
    checks = [{"ell": "symbolic", "equal": z == target}] if ell == "symbolic" else [
        {"ell": k, "equal": z.eval_ell(k) == target.eval_ell(k)} for k in ell]
    rows = []
    for _, row in _rows(d, order):
        w = weights[row["partition"]]
        row.update(verdict=w.verdict, omega=str(w.omega), sign=w.sign)
        rows.append(row)
    return all(c["equal"] for c in checks), {
        "series": z.serialize(),
        "target": target.serialize(),
        "checks": checks,
        "partitions": rows,
    }


def check_keyconj(d, order, args):
    rows = []
    all_ok = True
    for n in range(1, order + 1):
        for pi in enumerate_partitions(d - 1, n):
            with naming(pi):
                verdict = check_key_conjecture(pi, d)
            all_ok = all_ok and verdict == "ok"
            rows.append({"partition": pi.serialize(), "size": n, "verdict": verdict})
    return all_ok, {"partitions": rows}


def check_remfail(d, order, args):
    if order != 2:
        raise ValueError(
            "kind 'remfail' reads only the q^1 and q^2 terms: --order must be 2, got %d" % order
        )
    if d % 2:
        term = full_torus_ratio
        nvars, signed, mode = d, False, "full torus"
    else:
        u = (1,) + (0,) * (d - 1) if args.bundle is None else _value(
            "--bundle", lambda t: tuple(map(int, t.split(","))), args.bundle)
        term = partial(cy_bundle_term, u=u)
        nvars, signed, mode = d - 1, True, "calabi-yau torus, twist %r" % (u,)
    terms1, terms2 = ([term(pi, d) for pi in enumerate_partitions(d - 1, n)] for n in (1, 2))
    # p2, the reference's q^2 coefficient: one term per size-2 partition
    verdict, certificate = check_power_law(
        terms1, terms2, Fraction(len(terms2)), nvars, args.seed, signed=signed
    )
    return verdict == "no E exists", {
        "mode": mode, "certificate": certificate, "verdict": verdict,
    }


def check_omega(d, order, args):
    weights = _prepare_weights(d, order, args.jobs, args.cache)
    rows = []
    omegas = {}
    all_match = True
    for rep, row in _rows(d, order):
        w = weights[row["partition"]]
        with naming(rep):
            wc = omegas[rep.key()] = omega_c(rep)
        match = w.omega == wc
        all_match = all_match and match
        row.update(
            omega_abs=str(w.omega), omega_c=str(wc), verdict="match" if match else "mismatch"
        )
        rows.append(row)
    identity_ok, _, _ = check_exp_identity(d - 1, order, omegas)
    return all_match and identity_ok, {"partitions": rows, "exp_identity": identity_ok}


def check_uniqueness(d, order, args):
    weights = _prepare_weights(d, order, args.jobs, args.cache)
    result = verify_uniqueness(d, order, weights)
    return result["verdict"] == "unique", {"result": result, "verdict": result["verdict"]}


_FOUR = (lambda d: d >= 4 and d % 4 == 0, "a dimension divisible by 4")
# Each check kind: its check_*, the dimensions it takes as a rule
# (test, text), and the options that only it reads, each with the rule
# of the dimensions at which it reads that option.
KINDS = {
    "odd": (check_odd, (lambda d: d >= 3 and d % 2, "an odd dimension >= 3"), {}),
    "fourk": (check_fourk, _FOUR, {"--ell": _FOUR, "--orientation": _FOUR}),
    "keyconj": (check_keyconj, (lambda d: d >= 2, "a dimension >= 2"), {}),
    "remfail": (check_remfail, (lambda d: d >= 3 and d % 4 != 2,
                                "an odd dimension >= 3 or one divisible by 4"), {"--bundle": _FOUR}),
    "omega": (check_omega, _FOUR, {}),
    "uniqueness": (check_uniqueness, _FOUR, {}),
}


def _render(report, fmt, out):
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=1) + "\n")
        return
    if fmt == "csv":
        rows = report.get("partitions", [])
        if rows:
            headers = sorted(rows[0])
            out.write(",".join(headers) + "\n")
            for r in rows:
                out.write(",".join(str(r[h]) for h in headers) + "\n")
        out.write("verdict,%s\n" % report["verdict"])
        return
    out.write("kind: %s  dimension: %s  order: %s\n" % (
        report.get("kind"), report.get("dimension"), report.get("order")))
    if "series" in report:
        out.write("series coefficients:\n")
        for n, c in enumerate(report["series"]["coefficients"]):
            out.write("  q^%-2d %s\n" % (n, " ".join(c)))
    out.write("verdict: %s\n" % report["verdict"])


def cmd_enumerate(args, out):
    if args.canonical:
        rows = [
            (rep, orbit)
            for rep, orbit in canonical_representatives(args.arity, args.size)
        ]
    else:
        rows = [(pi, None) for pi in enumerate_partitions(args.arity, args.size)]
    if args.format == "csv":
        out.write("arity,entries%s\n" % (",orbit_size" if args.canonical else ""))
        for pi, orbit in rows:
            tail = ",%d" % orbit if orbit is not None else ""
            out.write('%d,"%s"%s\n' % (pi.arity, pi.serialize(), tail))
    elif args.format == "table":
        for pi, orbit in rows:
            tail = "  orbit %d" % orbit if orbit is not None else ""
            out.write("%s%s\n" % (pi.serialize(), tail))
    else:
        for pi, orbit in rows:
            obj = pi.to_json_obj()
            if orbit is not None:
                obj["orbit_size"] = orbit
            out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def cmd_check(args, out):
    """Check args against KINDS, run the kind's check_*, render its report.

    Each check_* takes (d, order, args), args.cache resolved, and returns
    (ok, fields).  The report is the envelope of kind, dimension and
    order with the fields and the seed, whose verdict, unless the fields
    name one, is confirmed or mismatch; ok exits 0 and not ok 1.  A
    DTVertexError exits 2 with the envelope, the error and the partition.
    """
    d, order, kind = args.dimension, args.order, args.kind
    check, (takes, rule), _ = KINDS[kind]
    if not takes(d):
        raise ValueError("kind '%s' needs %s" % (kind, rule))
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1, got %d" % args.jobs)
    if order < 1:
        raise ValueError("--order must be at least 1, got %d" % order)
    for name, (_, _, options) in KINDS.items():
        for flag, (reads, text) in options.items():
            if getattr(args, COMMANDS["check"][flag][0]) is not None and not (
                    name == kind and reads(d)):
                raise ValueError("%s is only read by kind '%s' with %s" % (flag, name, text))
    args.cache = args.cache or cache_mod.default_cache_path()
    report = {"kind": kind, "dimension": d, "order": order}
    try:
        ok, fields = check(d, order, args)
    except DTVertexError as exc:
        report.update(verdict="error", error=str(exc), partition=exc.partition)
        code = 2
    else:
        report.update(fields, seed=args.seed)
        report.setdefault("verdict", "confirmed" if ok else "mismatch")
        code = 0 if ok else 1
    _render(report, args.format, out)
    return code


def cmd_cache_compact(args, out):
    path = args.cache or cache_mod.default_cache_path()
    if not path:
        raise ValueError("no cache to compact: give --cache or set %s" % cache_mod.ENV_CACHE_DIR)
    n = cache_mod.WeightCache(path).compact()
    out.write("compacted %d records\n" % n)
    return 0


_FORMAT = ("format", ("json", "table", "csv"), "json")
# Each command's positionals (the names without a leading "-") in order
# and its options, as (dest, type or tuple of choices, default); a bool
# option is a flag and a default of ... must be given.  -d and -n spell
# --dimension and --order; -h or --help prints the usage on stdout.
COMMANDS = {
    "enumerate": {
        "arity": ("arity", int, ...),
        "size": ("size", int, ...),
        "--canonical": ("canonical", bool, False),
        "--format": _FORMAT,
    },
    "check": {
        "kind": ("kind", tuple(KINDS), ...),
        "--dimension": ("dimension", int, ...),
        "--order": ("order", int, ...),
        "--ell": ("ell", str, None),
        "--orientation": ("orientation_file", str, None),
        "--bundle": ("bundle", str, None),
        "--seed": ("seed", int, 1),
        "--jobs": ("jobs", int, 1),
        "--cache": ("cache", str, None),
        "--format": _FORMAT,
    },
    "cache-compact": {"--cache": ("cache", str, None)},
}
_TOP = {"command": ("command", tuple(COMMANDS), ...)}
_SHORT = {"-d": "--dimension", "-n": "--order", "-h": "--help"}


def _usage(command):
    """The usage line of a command, or of the top level for None."""
    words = ["usage: dtvertex"] + ([command] if command else [])
    for name, (dest, kind, default) in (COMMANDS[command] if command else _TOP).items():
        word = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else dest.upper()
        if name[0] == "-":
            flag = "/".join([s for s, long in _SHORT.items() if long == name] + [name])
            word = flag if kind is bool else flag + " " + word
        words.append(word if default is ... else "[%s]" % word)
    return " ".join(words) + " [-h/--help]\n"


def _option(tok, names):
    """(name, explicit value or None) when tok is an option among names:
    exact, an unambiguous prefix of a long one, -d8 or -d=8; None when
    tok is a value: not led by "-", "-" itself, a negative number or a
    token holding a space."""
    if tok[:2] == "--":
        name, eq, value = tok.partition("=")
        found = [o for o in names if o == name]
        found = found or [o for o in names if name[2:] and o.startswith(name)]
        value = value if eq else None
    else:
        found = [o for o in names if o == _SHORT.get(tok[:2])]
        value = tok[3:] if tok[2:3] == "=" else tok[2:] or None
    if len(found) > 1:
        raise ValueError("ambiguous option %s could match %s" % (tok, ", ".join(found)))
    if found:
        return found[0], value
    if tok[:1] == "-" and " " not in tok and not re.fullmatch(r"-(\d*\.?\d+)?", tok):
        raise ValueError("unknown option %s" % tok)
    return None


def parse_args(argv, out):
    """The namespace of argv read left to right against COMMANDS, or None
    once -h/--help has written the usage to out.  The last occurrence of
    an option wins; every usage error is a ValueError."""
    command, table, args, positionals = None, _TOP, {"command": ...}, ["command"]
    tokens = iter(argv)
    for tok in tokens:
        names = [*table, "--help"]
        found = _option(tok, names)
        if found is None and not positionals:
            raise ValueError("unrecognized argument %s" % tok)
        name, value = found or (positionals.pop(0), tok)
        dest, kind, _ = table.get(name, ("help", bool, False))
        if kind is bool:
            if value is not None:
                raise ValueError("%s takes no value" % name)
            if name == "--help":
                out.write(_usage(command))
                return None
            value = True
        elif value is None:
            value = next(tokens, None)
            if value is None or _option(value, names):
                raise ValueError("%s needs a value" % name)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError("%s: invalid int value %r" % (name, value)) from None
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError("%s: %r is not one of %s" % (name, value, ", ".join(kind)))
        args[dest] = value
        if table is _TOP:
            command, table = value, COMMANDS[value]
            positionals = [n for n in table if n[0] != "-"]
            args.update((d, default) for d, _, default in table.values())
    missing = [n for n, (d, _, _) in table.items() if args[d] is ...]
    if missing:
        raise ValueError("the following arguments are required: %s" % ", ".join(missing))
    return SimpleNamespace(**args)


def main(argv=None):
    out = sys.stdout
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv, out)
        if args is None:
            return 0
        if args.command == "enumerate":
            return cmd_enumerate(args, out)
        if args.command == "check":
            return cmd_check(args, out)
        return cmd_cache_compact(args, out)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
