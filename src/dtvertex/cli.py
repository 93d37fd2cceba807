"""Command-line interface: enumeration, identity checks, cache maintenance.

Exit codes for `check`: 0 when the predicted identity is confirmed (for
remfail: when non-existence is certified), 1 when the check ran but the
identity fails, 2 on pipeline errors, with the offending partition in
the report, and on usage errors such as an order below 1 or an option
the kind does not read (--ell and --orientation belong to fourk,
--bundle to remfail with d = 0 mod 4).  Reports are deterministic for
fixed flags and seed, including under --jobs > 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from itertools import repeat

from . import cache as cache_mod
from .errors import DTVertexError
from .forms import compute_weight, cy_bundle_term, full_torus_ratio
from .kclass import check_key_conjecture
from .omega import check_exp_identity, omega_c
from .orientation import OrientationAssignment, positive_omega_orientation, verify_uniqueness
from .partitions import canonical_representatives, enumerate_partitions
from .series import build_z_4k, build_z_odd, check_power_law, target_4k, target_odd


def _prepare_weights(d, order, jobs, cache_path):
    """Compute weights for all canonical partitions up to the order.

    Returns {serialized key: PartitionWeight}.  Missing weights are
    computed in sorted key order, by a pool of min(jobs, pending)
    processes when that is more than one, and stored and appended to
    the disk cache in that order, in this process only.
    """
    reps = []
    for n in range(1, order + 1):
        reps.extend(canonical_representatives(d - 1, n))
    store = cache_mod.WeightCache(cache_path)
    out = {}
    pending = []
    for rep, _ in reps:
        key = rep.serialize()
        if (d, key) in store.records:
            out[key] = store.get_weight(rep, d)
        else:
            pending.append(rep)
    pending.sort(key=lambda p: p.key())
    workers = min(jobs, len(pending))
    if workers > 1:
        # imported here, so a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(compute_weight, pending, repeat(d)))
    else:
        # lazy, so each record is appended before the next weight starts
        computed = map(compute_weight, pending, repeat(d))
    for w in computed:
        out[w.partition.serialize()] = w
        store.append(cache_mod.record_from_weight(w))
    return out


def _partition_rows(d, order, weights):
    rows = []
    for n in range(1, order + 1):
        for rep, orbit in canonical_representatives(d - 1, n):
            w = weights[rep.serialize()]
            rows.append(
                {
                    "partition": rep.serialize(),
                    "size": n,
                    "corner_height": rep.corner_height(),
                    "orbit_size": orbit,
                    "verdict": w.verdict,
                    "omega": str(w.omega),
                    "sign": w.sign,
                }
            )
    return rows


def check_odd(d, order):
    z = build_z_odd(d, order)
    target = target_odd(d, order)
    return z == target, {"series": z.serialize(), "target": target.serialize()}


def _parse_ell(text):
    if text is None or text == "symbolic":
        return "symbolic"
    if ".." in text:
        lo, hi = text.split("..")
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError("empty ell range %s" % text)
        return values
    return [int(text)]


def check_fourk(d, order, ell, orientation_path, jobs, cache_path):
    orient = OrientationAssignment.load(orientation_path) if orientation_path else None
    weights = _prepare_weights(d, order, jobs, cache_path)
    if orient is None:
        orient = positive_omega_orientation(d, weights)
    z = build_z_4k(d, order, orient, weights)
    target = target_4k(d, order)
    checks = []
    if ell == "symbolic":
        checks.append({"ell": "symbolic", "equal": z == target})
    else:
        for k in ell:
            checks.append({"ell": k, "equal": z.eval_ell(k) == target.eval_ell(k)})
    return all(c["equal"] for c in checks), {
        "series": z.serialize(),
        "target": target.serialize(),
        "checks": checks,
        "partitions": _partition_rows(d, order, weights),
    }


def check_keyconj(d, order):
    rows = []
    all_ok = True
    for n in range(1, order + 1):
        for pi in enumerate_partitions(d - 1, n):
            try:
                verdict = check_key_conjecture(pi, d)
            except DTVertexError as exc:
                if exc.partition is None:
                    exc.partition = pi.serialize()
                raise
            all_ok = all_ok and verdict == "ok"
            rows.append({"partition": pi.serialize(), "size": n, "verdict": verdict})
    return all_ok, {"partitions": rows}


def check_remfail(d, order, seed, bundle):
    if order < 2:
        raise ValueError("the failure check needs order >= 2")
    if d % 2:
        term = full_torus_ratio
        nvars, signed, mode = d, False, "full torus"
    elif d % 4 == 0:
        u = bundle if bundle is not None else (1,) + (0,) * (d - 1)
        term = partial(cy_bundle_term, u=u)
        nvars, signed, mode = d - 1, True, "calabi-yau torus, twist %r" % (u,)
    else:
        raise ValueError("dimension must be odd or divisible by 4")
    terms1, terms2 = ([term(pi, d) for pi in enumerate_partitions(d - 1, n)] for n in (1, 2))
    # one term per size-2 partition
    p2 = Fraction(len(terms2))
    verdict, certificate = check_power_law(
        terms1, terms2, p2, nvars, seed, signed=signed
    )
    return verdict == "no E exists", {
        "mode": mode, "certificate": certificate, "verdict": verdict,
    }


def check_omega(d, order, jobs, cache_path):
    weights = _prepare_weights(d, order, jobs, cache_path)
    rows = []
    omegas = {}
    all_match = True
    for n in range(1, order + 1):
        for rep, orbit in canonical_representatives(d - 1, n):
            w = weights[rep.serialize()]
            wc = omegas[rep.key()] = omega_c(rep)
            match = w.omega == wc
            all_match = all_match and match
            rows.append(
                {
                    "partition": rep.serialize(),
                    "size": n,
                    "corner_height": rep.corner_height(),
                    "orbit_size": orbit,
                    "omega_abs": str(w.omega),
                    "omega_c": str(wc),
                    "verdict": "match" if match else "mismatch",
                }
            )
    identity_ok, _, _ = check_exp_identity(d - 1, order, omegas)
    return all_match and identity_ok, {"partitions": rows, "exp_identity": identity_ok}


def check_uniqueness(d, order, jobs, cache_path):
    weights = _prepare_weights(d, order, jobs, cache_path)
    result = verify_uniqueness(d, order, weights)
    return result.verdict == "unique", {
        "result": result.to_json_obj(), "verdict": result.verdict,
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
    """Run one check_* and render its report; returns the exit code.

    Each check_* returns (ok, fields).  The report is the envelope of
    kind, dimension and order with the fields and the seed, whose
    verdict, unless the fields name one, is confirmed or mismatch; ok
    exits 0 and not ok 1.  A DTVertexError exits 2 with the envelope,
    the error and the partition.
    """
    d = args.dimension
    order = args.order
    kind = args.kind
    if kind == "odd" and (d < 3 or d % 2 == 0):
        raise ValueError("kind 'odd' needs an odd dimension >= 3")
    if kind in ("fourk", "omega", "uniqueness") and (d < 4 or d % 4):
        raise ValueError("kind '%s' needs a dimension divisible by 4" % kind)
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1, got %d" % args.jobs)
    if order < 1:
        raise ValueError("--order must be at least 1, got %d" % order)
    if kind != "fourk":
        for flag, value in (("--ell", args.ell), ("--orientation", args.orientation_file)):
            if value is not None:
                raise ValueError("%s is only read by kind 'fourk'" % flag)
    if args.bundle is not None and (kind != "remfail" or d % 4):
        raise ValueError(
            "--bundle is only read by kind 'remfail' with a dimension divisible by 4"
        )
    cache_path = args.cache or cache_mod.default_cache_path()
    report = {"kind": kind, "dimension": d, "order": order}
    try:
        if kind == "odd":
            ok, fields = check_odd(d, order)
        elif kind == "fourk":
            ok, fields = check_fourk(
                d, order, _parse_ell(args.ell), args.orientation_file, args.jobs, cache_path
            )
        elif kind == "keyconj":
            ok, fields = check_keyconj(d, order)
        elif kind == "remfail":
            bundle = None if args.bundle is None else tuple(int(x) for x in args.bundle.split(","))
            ok, fields = check_remfail(d, order, args.seed, bundle)
        elif kind == "omega":
            ok, fields = check_omega(d, order, args.jobs, cache_path)
        elif kind == "uniqueness":
            ok, fields = check_uniqueness(d, order, args.jobs, cache_path)
        else:
            raise ValueError("unknown kind %r" % kind)
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
    store = cache_mod.WeightCache(args.cache or cache_mod.default_cache_path())
    n = store.compact()
    out.write("compacted %d records\n" % n)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dtvertex",
        description="Exact vertex computations for zero-dimensional counts on affine space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list partitions of a given arity and size")
    p_enum.add_argument("arity", type=int)
    p_enum.add_argument("size", type=int)
    p_enum.add_argument("--canonical", action="store_true",
                        help="one representative per axis-permutation orbit")
    p_enum.add_argument("--format", choices=["json", "table", "csv"], default="json")

    p_check = sub.add_parser("check", help="run one of the identity checks")
    p_check.add_argument(
        "kind", choices=["odd", "fourk", "keyconj", "remfail", "omega", "uniqueness"]
    )
    p_check.add_argument("--dimension", "-d", type=int, required=True)
    p_check.add_argument("--order", "-n", type=int, required=True)
    p_check.add_argument("--ell", default=None,
                         help="fourk: integer, range a..b, or 'symbolic' (the default)")
    p_check.add_argument("--orientation", dest="orientation_file", default=None,
                         help="fourk: JSON file of signs; default positive-omega")
    p_check.add_argument("--bundle", default=None,
                         help="remfail with d = 0 mod 4: comma-separated twist "
                              "(default 1,0,...,0)")
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--jobs", type=int, default=1)
    p_check.add_argument("--cache", default=None)
    p_check.add_argument("--format", choices=["json", "table", "csv"], default="json")

    p_compact = sub.add_parser("cache-compact", help="rewrite the cache keeping last records")
    p_compact.add_argument("--cache", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "enumerate":
            return cmd_enumerate(args, out)
        if args.command == "check":
            return cmd_check(args, out)
        if args.command == "cache-compact":
            return cmd_cache_compact(args, out)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
