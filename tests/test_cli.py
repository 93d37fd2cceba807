"""Command line interface: output formats, exit codes, cache, determinism."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtvertex
from dtvertex import (
    KClass,
    MultiPartition,
    QPoly,
    ShapeMismatch,
    canonical_representatives,
    compute_weight,
    vertex,
)
from dtvertex.cache import WeightCache
from dtvertex.cli import main

from conftest import single_box
from oracles import class_vertex_half, expanded_fingerprint, repr_fingerprint, times_raw_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate(capsys):
    code, out = run_cli(capsys, "enumerate", "1", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["arity"] == 1 for line in lines)


def test_enumerate_empty(capsys):
    code, out = run_cli(capsys, "enumerate", "3", "0")
    assert code == 0
    assert out.strip().splitlines() == ['{"arity":3,"entries":[]}']
    code, out = run_cli(capsys, "enumerate", "3", "0", "--canonical")
    assert code == 0
    assert out.splitlines() == ['{"arity":3,"entries":[],"orbit_size":1}']


def test_enumerate_canonical_orbits(capsys):
    code, out = run_cli(capsys, "enumerate", "7", "6", "--canonical")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert sum(r["orbit_size"] for r in rows) == 2024


_BAD_ENUMERATE = [("3", "-1", "size must be >= 0"), ("0", "2", "arity must be >= 1")]


@pytest.mark.parametrize(
    "arity,size,error,flags",
    [pytest.param(*bad, ["--canonical"], id="-".join(bad)) for bad in _BAD_ENUMERATE]
    + [pytest.param(*bad, [], id="plain-" + "-".join(bad)) for bad in _BAD_ENUMERATE],
)
def test_enumerate_canonical_rejects_bad_input(capsys, arity, size, error, flags):
    # both forms take their input checks from canonical_representatives
    assert main(["enumerate", arity, size, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and error in captured.err


def test_check_odd(capsys):
    code, out = run_cli(capsys, "check", "odd", "-d", "3", "-n", "5")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "confirmed"
    assert [c[0] for c in report["series"]["coefficients"]] == [
        "1", "-1", "3", "-6", "13", "-24",
    ]


def test_check_keyconj(capsys):
    code, out = run_cli(capsys, "check", "keyconj", "-d", "4", "-n", "3")
    assert code == 0
    report = json.loads(out)
    assert all(r["verdict"] == "ok" for r in report["partitions"])


def test_check_fourk_symbolic_and_integer(capsys):
    code, out = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "confirmed"
    code, out = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "3", "--ell", "1")
    assert code == 0
    code, out = run_cli(
        capsys, "check", "fourk", "-d", "4", "-n", "2", "--ell=-1..2"
    )
    assert code == 0
    assert len(json.loads(out)["checks"]) == 4


def test_check_remfail_exit_codes(capsys):
    code, out = run_cli(capsys, "check", "remfail", "-d", "5", "-n", "2", "--seed", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "no E exists"
    # dimension 3 does admit an exponent, so non-existence is not certified
    code, out = run_cli(capsys, "check", "remfail", "-d", "3", "-n", "2", "--seed", "1")
    assert code == 1
    assert json.loads(out)["verdict"] == "fits"


def test_check_omega(capsys):
    code, out = run_cli(capsys, "check", "omega", "-d", "4", "-n", "3")
    assert code == 0
    report = json.loads(out)
    assert report["exp_identity"] is True
    assert all(r["verdict"] == "match" for r in report["partitions"])


def test_check_uniqueness(capsys):
    code, out = run_cli(capsys, "check", "uniqueness", "-d", "4", "-n", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "unique"


def test_kind_dimension_compatibility(capsys):
    assert main(["check", "odd", "-d", "4", "-n", "2"]) == 2
    assert main(["check", "fourk", "-d", "6", "-n", "2"]) == 2
    assert main(["enumerate", "0", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_csv_and_table_formats(capsys):
    code, out = run_cli(
        capsys, "check", "omega", "-d", "4", "-n", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("corner_height,")
    code, out = run_cli(
        capsys, "check", "odd", "-d", "3", "-n", "3", "--format", "table"
    )
    assert code == 0
    assert "verdict: confirmed" in out


def test_reports_deterministic(capsys):
    _, first = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "3", "--seed", "7")
    _, second = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "3", "--seed", "7")
    assert first == second


def test_jobs_do_not_change_report(tmp_path, capsys):
    serial_cache = tmp_path / "serial.jsonl"
    parallel_cache = tmp_path / "parallel.jsonl"
    _, serial = run_cli(
        capsys, "check", "fourk", "-d", "4", "-n", "3", "--cache", str(serial_cache)
    )
    _, parallel = run_cli(
        capsys, "check", "fourk", "-d", "4", "-n", "3", "--jobs", "2",
        "--cache", str(parallel_cache),
    )
    assert serial == parallel
    assert serial_cache.read_bytes() == parallel_cache.read_bytes()


def test_cache_roundtrip(tmp_path, capsys):
    cache = str(tmp_path / "weights.jsonl")
    _, cold = run_cli(
        capsys, "check", "fourk", "-d", "4", "-n", "3", "--cache", cache
    )
    _, warm = run_cli(
        capsys, "check", "fourk", "-d", "4", "-n", "3", "--cache", cache
    )
    assert cold == warm
    _, plain = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "3")
    assert plain == cold


def test_cache_detects_stale_fingerprint(tmp_path, capsys):
    cache = tmp_path / "weights.jsonl"
    _, cold = run_cli(
        capsys, "check", "fourk", "-d", "4", "-n", "2", "--cache", str(cache)
    )
    lines = [json.loads(line) for line in cache.read_text().splitlines()]
    for rec in lines:
        rec["fingerprint"] = "stale"
        rec["omega"] = "99"
    cache.write_text(
        "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in lines)
        + "\n"
    )
    _, warm = run_cli(
        capsys, "check", "fourk", "-d", "4", "-n", "2", "--cache", str(cache)
    )
    assert warm == cold


def test_negative_cached_omega_is_pipeline_error(tmp_path, capsys):
    cache = tmp_path / "weights.jsonl"
    argv = ["check", "uniqueness", "-d", "4", "-n", "2", "--cache", str(cache)]
    run_cli(capsys, *argv)
    cold = cache.read_text()
    for field, value in (("omega", "-1"), ("sign", 5), ("verdict", "violated")):
        lines = [json.loads(line) for line in cold.splitlines()]
        lines[-1][field] = value
        cache.write_text("".join(json.dumps(r) + "\n" for r in lines))
        code, out = run_cli(capsys, *argv)
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] == "error"
        assert report["partition"] == lines[-1]["partition"]


def test_malformed_cache_record_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "weights.jsonl"
    argv = ["check", "fourk", "-d", "4", "-n", "2", "--cache", str(cache)]
    _, cold = run_cli(capsys, *argv)
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    for edit in (lambda rec: rec.pop("omega"), lambda rec: rec.update(omega="abc")):
        lines = [dict(rec) for rec in records]
        edit(lines[-1])
        cache.write_text("".join(json.dumps(r) + "\n" for r in lines))
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out == cold
        assert json.loads(cache.read_text().splitlines()[-1]) == records[-1]


def test_cache_line_that_is_not_utf8_is_skipped(tmp_path, capsys):
    cold, text = _cold_fourk_d4_cache()
    for junk in (b"\xff\xfe garbage\n", b'{"schema":4,"d":4,\x80}\n'):
        cache = tmp_path / "weights.jsonl"
        cache.write_bytes(junk)
        code, out = run_cli(
            capsys, "check", "fourk", "-d", "4", "-n", "2", "--cache", str(cache)
        )
        # the line is skipped and every weight computed and appended after it
        assert code == 0 and out == cold
        assert cache.read_bytes() == junk + text.encode()


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _retyped(key, old, new):
    """Whether new has another JSON type than old, or is an omega that is no rational."""
    if type(new) is not type(old):
        return True
    if key != "omega":
        return False
    try:
        Fraction(new)
    except (ValueError, ZeroDivisionError):
        return True
    return False


@functools.cache
def _cold_fourk_d4_cache():
    """(report, cache text) of a cold `check fourk -d 4 -n 2` run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.jsonl")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["check", "fourk", "-d", "4", "-n", "2", "--cache", path]) == 0
        with open(path) as fh:
            return out.getvalue(), fh.read()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzz_malformed_cache_records(tmp_path_factory, data):
    cold, text = _cold_fourk_d4_cache()
    records = [json.loads(line) for line in text.splitlines()]
    for i in data.draw(st.sets(st.sampled_from(range(len(records))), min_size=1)):
        key = data.draw(st.sampled_from(sorted(records[i])))
        if data.draw(st.booleans()):
            del records[i][key]
        else:
            old = records[i][key]
            records[i][key] = data.draw(_JSON_VALUES.filter(lambda v: _retyped(key, old, v)))
    cache = tmp_path_factory.mktemp("cache") / "weights.jsonl"
    cache.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", "fourk", "-d", "4", "-n", "2", "--cache", str(cache)])
    # every edited line is skipped and its weight recomputed
    assert code == 0 and out.getvalue() == cold


def test_cache_line_of_another_schema_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "weights.jsonl"
    argv = ["check", "fourk", "-d", "4", "-n", "3", "--cache", str(cache)]
    _, cold = run_cli(capsys, *argv)
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    # schema 2 fingerprinted the JSON of the full vertex's decoded terms,
    # schema 3 the repr of the half vertex's sorted (code, coefficient)
    # pairs, schema 4 its sorted codes as packed bytes, schema 5 its
    # flat-axis orbits
    pi = MultiPartition.from_entries(3, json.loads(records[1]["partition"]))
    key = (4, records[1]["partition"])
    v = vertex(pi, 4).serialize()
    old = hashlib.sha256(json.dumps(v, separators=(",", ":")).encode()).hexdigest()
    schema3 = repr_fingerprint(class_vertex_half(pi, 4))
    schema4 = expanded_fingerprint(class_vertex_half(pi, 4))
    for edit, stale in (
        (lambda rec: rec.pop("schema"), False),
        (lambda rec: rec.update(schema=1), False),
        (lambda rec: rec.update(schema=2, fingerprint=old), False),
        (lambda rec: rec.update(schema=3, fingerprint=schema3), False),
        (lambda rec: rec.update(schema=4, fingerprint=schema4), False),
        (lambda rec: rec.update(schema=5), False),
        # a record of this schema that carries the schema-4 digest is
        # read, fails the fingerprint check and is recomputed
        (lambda rec: rec.update(fingerprint=schema4), True),
    ):
        lines = [dict(rec) for rec in records]
        edit(lines[1])
        cache.write_text("".join(json.dumps(r) + "\n" for r in lines))
        assert (key in WeightCache(str(cache)).records) == stale
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out == cold
        appended = json.loads(cache.read_text().splitlines()[-1])
        assert appended == records[1] and appended["schema"] == 6
        run_cli(capsys, "cache-compact", "--cache", str(cache))
        compacted = [json.loads(line) for line in cache.read_text().splitlines()]
        assert sorted(compacted, key=json.dumps) == sorted(records, key=json.dumps)


def test_warm_omega_never_expands_the_half_vertex(tmp_path, monkeypatch, capsys):
    # a hit is verified from the blocks of -v alone: with the flat-axis
    # doubling and the Euler class refused at every import site the warm
    # run repeats the cold report
    path = tmp_path / "weights.jsonl"
    cache = str(path)
    argv = ["check", "omega", "-d", "8", "-n", "4", "--cache", cache]
    code, cold = run_cli(capsys, *argv)
    assert code == 0 and json.loads(cold)["verdict"] == "confirmed"

    def refuse(*args, **kwargs):
        raise AssertionError("the half vertex was expanded")

    for home, attr in ((dtvertex.kclass, "_double_flat"), (dtvertex.forms, "euler_class")):
        real = getattr(home, attr)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "dtvertex" and getattr(mod, attr, None) is real:
                monkeypatch.setattr(mod, attr, refuse)
    assert dtvertex.kclass._double_flat is refuse and dtvertex.euler_class is refuse
    records = len(WeightCache(cache).records)
    assert run_cli(capsys, *argv) == (0, cold)
    assert len(WeightCache(cache).records) == records > 0
    assert len(path.read_text().splitlines()) == records


def test_cache_compact(tmp_path, capsys):
    cache = tmp_path / "weights.jsonl"
    run_cli(capsys, "check", "fourk", "-d", "4", "-n", "2", "--cache", str(cache))
    run_cli(capsys, "check", "fourk", "-d", "4", "-n", "2", "--cache", str(cache))
    # a stale copy of the first record, which the next run re-appends
    first = json.loads(cache.read_text().splitlines()[0])
    with open(cache, "a") as fh:
        fh.write(json.dumps(dict(first, fingerprint="0" * 64)) + "\n")
    run_cli(capsys, "check", "fourk", "-d", "4", "-n", "3", "--cache", str(cache))
    written = cache.read_bytes().splitlines(keepends=True)
    last = {}
    for line in written:
        rec = json.loads(line)
        last[rec["d"], rec["partition"]] = line
    assert len(last) < len(written)
    code, out = run_cli(capsys, "cache-compact", "--cache", str(cache))
    assert code == 0
    # the rewrite is byte for byte the lines append wrote, last per key, sorted
    assert cache.read_bytes() == b"".join(last[k] for k in sorted(last))
    assert "compacted %d records" % len(last) in out


def test_cache_compact_without_a_cache_is_usage_error(tmp_path, monkeypatch, capsys):
    # with neither --cache nor DTVERTEX_CACHE_DIR there is nothing to
    # compact: an error line names both, and no file is written
    monkeypatch.delenv("DTVERTEX_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["cache-compact"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "--cache" in captured.err and "DTVERTEX_CACHE_DIR" in captured.err
    assert list(tmp_path.iterdir()) == []
    # the environment variable alone names a cache
    monkeypatch.setenv("DTVERTEX_CACHE_DIR", str(tmp_path))
    run_cli(capsys, "check", "fourk", "-d", "4", "-n", "2")
    records = (tmp_path / "weights.jsonl").read_text().splitlines()
    code, out = run_cli(capsys, "cache-compact")
    assert records and code == 0 and out == "compacted %d records\n" % len(records)


def test_pipeline_error_exit_code(monkeypatch, capsys):
    import dtvertex.cli as cli_mod

    def explode(pi, d):
        raise ShapeMismatch("synthetic failure", partition=pi.serialize())

    monkeypatch.setattr(cli_mod, "compute_weight", explode)
    code, out = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "2")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error"
    assert report["partition"] is not None


@pytest.mark.parametrize("kind,d", [("keyconj", 32768), ("odd", 32769)])
def test_radix_overflow_names_the_partition(capsys, kind, d):
    # at size 1 the first box product already needs exponents past the
    # radix and raises before any term is built; size 2 at this arity
    # would need gigabytes
    code, out = run_cli(capsys, "check", kind, "-d", str(d), "-n", "1")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error"
    assert "do not fit the radix" in report["error"]
    # the single box: d - 1 indices and the height, all 1 (built by hand,
    # since validating a MultiPartition is quadratic in the arity)
    assert report["partition"] == "[[%s]]" % ",".join(["1"] * d)


@pytest.mark.parametrize(
    "coeffs,error",
    [
        # one more critical form in the denominator: a pole on the locus
        ((1, 1, 1), "diagnostic pole instead of a polynomial"),
        # a non-critical form that nothing cancels
        ((1, 0, 0), "diagnostic not_constant instead of a polynomial"),
    ],
    ids=["pole", "not_constant"],
)
def test_specialization_diagnostic_is_pipeline_error(monkeypatch, capsys, coeffs, error):
    import dtvertex.forms as forms_mod

    real = forms_mod.taut_factor
    exponent = -1 if error.startswith("diagnostic pole") else 1

    def broken(pi, d, u=None, ell_units=0):
        return times_raw_form(real(pi, d, u=u, ell_units=ell_units), coeffs, 0, exponent)

    monkeypatch.setattr(forms_mod, "taut_factor", broken)
    code, out = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "1")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error"
    assert report["error"] == error
    assert report["partition"] == single_box(3).serialize()


def test_weights_before_a_pipeline_error_stay_cached(tmp_path, monkeypatch, capsys):
    import dtvertex.cli as cli_mod

    done = []

    def fail_second(pi, d):
        if done:
            raise ShapeMismatch("synthetic failure", partition=pi.serialize())
        done.append(pi)
        return compute_weight(pi, d)

    monkeypatch.setattr(cli_mod, "compute_weight", fail_second)
    cache = tmp_path / "weights.jsonl"
    code, _ = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "2", "--cache", str(cache))
    assert code == 2
    [record] = [json.loads(line) for line in cache.read_text().splitlines()]
    assert record["partition"] == done[0].serialize()


def test_orientation_file_flag(tmp_path, capsys):
    from dtvertex import positive_omega_orientation, weight_table

    path = tmp_path / "orient.json"
    positive_omega_orientation(4, weight_table(4, 2)).save(path)
    code, out = run_cli(
        capsys, "check", "fourk", "-d", "4", "-n", "2", "--orientation", str(path)
    )
    assert code == 0


def assert_usage_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["keyconj", "-d", "4", "-n", "2", "--ell", "5"],
        ["keyconj", "-d", "4", "-n", "2", "--bundle", "x,y"],
        ["keyconj", "-d", "4", "-n", "2", "--orientation", "/nonexistent"],
        ["omega", "-d", "4", "-n", "2", "--ell", "symbolic"],
        ["uniqueness", "-d", "4", "-n", "2", "--orientation", "signs.json"],
        ["odd", "-d", "3", "-n", "2", "--bundle", "1,0,0"],
        ["remfail", "-d", "8", "-n", "2", "--ell", "1"],
        ["remfail", "-d", "7", "-n", "2", "--bundle", "1,2"],
        ["fourk", "-d", "4", "-n", "2", "--bundle", "1,0,0,0"],
    ],
)
def test_option_the_kind_does_not_read_is_usage_error(capsys, argv):
    assert_usage_error(capsys, "check", *argv)


def test_empty_ell_range_is_usage_error(capsys):
    assert_usage_error(capsys, "check", "fourk", "-d", "4", "-n", "2", "--ell", "3..1")


def test_empty_bundle_is_usage_error(capsys):
    assert_usage_error(capsys, "check", "remfail", "-d", "8", "-n", "2", "--bundle=")


def test_missing_or_malformed_orientation_file_is_usage_error(tmp_path, capsys):
    no_signs = tmp_path / "no_signs.json"
    no_signs.write_text("{}")
    bad_sign = tmp_path / "bad_sign.json"
    bad_sign.write_text('{"signs": {"[]": 1, "[[1,1,1]]": "x"}}')
    for path in (tmp_path / "missing.json", no_signs, bad_sign):
        assert_usage_error(
            capsys, "check", "fourk", "-d", "4", "-n", "2", "--orientation", str(path)
        )


def test_non_integer_orientation_sign_is_usage_error(tmp_path, capsys):
    # JSON 1.0 and true compare equal to 1 but are not integer signs
    for text in ("1.0", "true"):
        path = tmp_path / "orient.json"
        path.write_text('{"signs": {"[[1,1,1,1]]": %s}}' % text)
        assert_usage_error(
            capsys, "check", "fourk", "-d", "4", "-n", "1", "--orientation", str(path)
        )


@pytest.mark.parametrize(
    "kind,d", [("odd", "3"), ("fourk", "4"), ("keyconj", "4"), ("omega", "4"),
               ("uniqueness", "4")]
)
def test_order_below_one_is_usage_error(capsys, kind, d):
    for order in ("0", "-1"):
        assert_usage_error(capsys, "check", kind, "-d", d, "-n", order)


def _optional(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag + "=" + v]))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["odd", "fourk", "keyconj", "remfail", "omega", "uniqueness"]),
    d=st.integers(min_value=-1, max_value=8),
    n=st.integers(min_value=-2, max_value=2),
    options=st.tuples(
        _optional("--ell", ["symbolic", "1", "-1..2", "3..1", "x"]),
        _optional("--bundle", ["1,0,0,0", "1", "a", "0,0,0,0,0,0,0,1"]),
        _optional("--jobs", ["-1", "0", "1", "2"]),
        _optional("--format", ["json", "table", "csv", "xml"]),
    ),
)
def test_fuzz_check_exit_codes(kind, d, n, options):
    argv = ["check", kind, "-d", str(d), "-n", str(n)] + sum(options, [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2)
    ell, bundle = options[0], options[1]
    if (ell and kind != "fourk") or (bundle and (kind != "remfail" or d % 4)):
        assert code == 2
    if n < 1:
        assert "confirmed" not in out.getvalue() and "unique" not in out.getvalue()


def test_pool_has_no_more_workers_than_pending_weights(tmp_path, monkeypatch, capsys):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    # cli imports the pool class only when it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    cache = str(tmp_path / "weights.jsonl")
    # n <= 1 leaves 1 weight pending (serial), n <= 3 then 6 more, and a
    # warm rerun none
    for n, pending in (("1", 1), ("3", 6), ("3", 0)):
        before = len(pools)
        code, _ = run_cli(
            capsys, "check", "fourk", "-d", "4", "-n", n, "--jobs", "64", "--cache", cache
        )
        assert code == 0
        assert all(w <= pending for w in pools[before:])
        assert len(pools) - before == (1 if pending > 1 else 0)


def test_serial_cli_does_not_import_the_process_pool():
    src = os.path.dirname(os.path.dirname(dtvertex.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe = (
        "import sys, dtvertex.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_order_8_facts_at_d8(order_8_reports):
    # A: the 2x2x2 cube on three base axes without its far corner, corner
    # column of height 2 (orbit 35); its |omega| is 1/2 against omega_c 1,
    # and at q^8 no orientation reaches the target.  The two runs share
    # one cache and are pinned byte for byte in test_reports
    code, out = order_8_reports["check fourk -d 8 -n 8"]
    assert code == 1
    report = json.loads(out)
    series, target = (
        QPoly([Fraction(c) for c in report[k]["coefficients"][8]])
        for k in ("series", "target")
    )
    assert series - target == QPoly([0, Fraction(35, 2), Fraction(-35, 2)])
    code, out = order_8_reports["check omega -d 8 -n 8"]
    assert code == 1
    report = json.loads(out)
    assert report["exp_identity"] is True
    rows = [r for r in report["partitions"] if r["verdict"] == "mismatch"]
    got = [(r["orbit_size"], r["omega_abs"], r["omega_c"], r["partition"]) for r in rows]
    assert got == [
        (
            35,
            "1/2",
            "1",
            "[[1,1,1,1,1,1,1,2],[1,1,2,1,1,1,1,1],[1,2,1,1,1,1,1,1],[1,2,2,1,1,1,1,1],"
            "[2,1,1,1,1,1,1,1],[2,1,2,1,1,1,1,1],[2,2,1,1,1,1,1,1]]",
        )
    ]


def test_euler_class_runs_once_per_representative(tmp_path, monkeypatch, capsys):
    # tier-1 guard for the benchmark's call-count gate (perfbench/selftest.py);
    # the weights are read from the packed half vertex, so specialize, the
    # oracle of that read, never runs
    import dtvertex.forms as forms_mod

    calls = []
    real = forms_mod.euler_class

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def oracle_called(p):
        raise AssertionError("compute_weight fell back to specialize")

    monkeypatch.setattr(forms_mod, "euler_class", counted)
    monkeypatch.setattr(forms_mod, "specialize", oracle_called)
    cache = str(tmp_path / "weights.jsonl")
    code, _ = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "2", "--cache", cache)
    assert code == 0 and len(calls) == 3
    code, _ = run_cli(capsys, "check", "keyconj", "-d", "4", "-n", "2")
    assert code == 0 and len(calls) == 3


def test_full_vertex_runs_once_per_keyconj_row_and_never_for_odd(monkeypatch, capsys):
    # tier-1 guard for the benchmark's kclass.vertex.calls gate
    # (perfbench/selftest.py); check odd takes its signs from the half vertex
    import dtvertex.forms as forms_mod
    import dtvertex.kclass as kclass_mod
    import dtvertex.series as series_mod

    calls = []
    real = kclass_mod.vertex

    def counted(pi, d):
        calls.append(pi.key())
        return real(pi, d)

    monkeypatch.setattr(kclass_mod, "vertex", counted)
    monkeypatch.setattr(forms_mod, "vertex", counted)
    code, out = run_cli(capsys, "check", "keyconj", "-d", "4", "-n", "3")
    assert code == 0 and len(calls) == len(json.loads(out)["partitions"]) > 0
    del calls[:]
    code, out = run_cli(capsys, "check", "odd", "-d", "5", "-n", "3")
    assert code == 0 and json.loads(out)["verdict"] == "confirmed"
    assert calls == []

    # confirmed rests on the computed c0: one more fixed weight in the
    # single box's half vertex flips its sign and the series misses
    real_blocks = series_mod.half_vertex_blocks

    def perturbed(pi, d):
        nv = real_blocks(pi, d)
        if pi.size > 1:
            return nv
        origin = next(iter(KClass.one(d).terms))
        return nv._replace(tail={**nv.tail, origin: nv.tail.get(origin, 0) - 1})

    monkeypatch.setattr(series_mod, "half_vertex_blocks", perturbed)
    code, out = run_cli(capsys, "check", "odd", "-d", "5", "-n", "2")
    assert code == 1 and json.loads(out)["verdict"] == "mismatch"


def test_omega_c_runs_once_per_representative(tmp_path, monkeypatch, capsys):
    # the rows and the exp identity share one omega_c per representative
    import dtvertex.cli as cli_mod
    import dtvertex.omega as omega_mod

    calls = []
    real = omega_mod.omega_c

    def counted(pi):
        calls.append(pi.key())
        return real(pi)

    monkeypatch.setattr(omega_mod, "omega_c", counted)
    monkeypatch.setattr(cli_mod, "omega_c", counted)
    cache = str(tmp_path / "weights.jsonl")
    code, _ = run_cli(capsys, "check", "omega", "-d", "4", "-n", "3", "--cache", cache)
    reps = [rep.key() for n in range(1, 4) for rep, _ in canonical_representatives(3, n)]
    assert code == 0 and calls == reps


def test_nonpositive_jobs_is_usage_error(capsys):
    for jobs in ("0", "-3"):
        assert_usage_error(capsys, "check", "fourk", "-d", "4", "-n", "2", "--jobs", jobs)


def test_cache_torn_tail_is_recomputed(tmp_path, monkeypatch, capsys):
    import dtvertex.cli as cli_mod

    cache = tmp_path / "weights.jsonl"
    argv = ["check", "fourk", "-d", "4", "-n", "3", "--cache", str(cache)]
    _, cold = run_cli(capsys, *argv)
    data = cache.read_bytes()
    # tear the last record: keep the first half of its line, no newline
    cache.write_bytes(data[: len(data) - len(data.splitlines()[-1]) // 2 - 1])
    code, torn = run_cli(capsys, *argv)
    assert code == 0 and torn == cold

    def explode(pi, d):
        raise AssertionError("weight of %s recomputed" % pi.serialize())

    # every record, the re-appended one included, is now found on disk
    monkeypatch.setattr(cli_mod, "compute_weight", explode)
    code, warm = run_cli(capsys, *argv)
    assert code == 0 and warm == cold


def test_cache_compact_failure_keeps_file(tmp_path, capsys):
    from dtvertex.cache import WeightCache

    cache = tmp_path / "weights.jsonl"
    run_cli(capsys, "check", "fourk", "-d", "4", "-n", "2", "--cache", str(cache))
    before = cache.read_bytes()
    store = WeightCache(str(cache))
    # sorts after every real record, so the rewrite fails midway
    store.records[(99, "unserializable")] = {"value": object()}
    with pytest.raises(TypeError):
        store.compact()
    assert cache.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["weights.jsonl"]
