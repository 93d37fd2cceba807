"""Command line interface: output formats, exit codes, cache, determinism."""

import ast
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

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
from dtvertex.cache import WeightCache, seal
from dtvertex.cli import main, parse_args
from dtvertex.errors import naming
from dtvertex.forms import vertex_fingerprint
from dtvertex.kclass import half_vertex_blocks

from conftest import single_box
from oracles import (
    build_parser,
    class_vertex_half,
    expanded_fingerprint,
    repr_fingerprint,
    validate_check_args,
)


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
    # at order 8 the weight of the 2x2x2 cube does not factor through the
    # corner column (exit 2): the 6 weights before it in key order stay
    # cached under any jobs
    for order, code, records in (("3", 0, 7), ("8", 2, 6)):
        serial_cache = tmp_path / ("serial%s.jsonl" % order)
        parallel_cache = tmp_path / ("parallel%s.jsonl" % order)
        serial = run_cli(
            capsys, "check", "fourk", "-d", "4", "-n", order, "--cache", str(serial_cache)
        )
        parallel = run_cli(
            capsys, "check", "fourk", "-d", "4", "-n", order, "--jobs", "2",
            "--cache", str(parallel_cache),
        )
        assert serial == parallel and serial[0] == code
        assert serial_cache.read_bytes() == parallel_cache.read_bytes()
        assert len(serial_cache.read_text().splitlines()) == records


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
    # the last record is "ok" with omega > 0: an omega of 0 or the verdict
    # "euler_vanishes" disagrees with it as much as a negative omega does
    for field, value in (
        ("omega", "-1"), ("sign", 5), ("verdict", "violated"),
        ("verdict", "euler_vanishes"), ("omega", "0"),
    ):
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
    # flat-axis orbits, schema 6 the blocks of -v
    pi = MultiPartition.from_entries(3, json.loads(records[1]["partition"]))
    key = (4, records[1]["partition"])
    v = vertex(pi, 4).serialize()
    old = hashlib.sha256(json.dumps(v, separators=(",", ":")).encode()).hexdigest()
    schema3 = repr_fingerprint(class_vertex_half(pi, 4))
    schema4 = expanded_fingerprint(class_vertex_half(pi, 4))
    schema6 = vertex_fingerprint(half_vertex_blocks(pi, 4))
    for edit, stale in (
        (lambda rec: rec.pop("schema"), False),
        (lambda rec: rec.update(schema=1), False),
        (lambda rec: rec.update(schema=2, fingerprint=old), False),
        (lambda rec: rec.update(schema=3, fingerprint=schema3), False),
        (lambda rec: rec.update(schema=4, fingerprint=schema4), False),
        (lambda rec: rec.update(schema=5), False),
        (lambda rec: rec.update(schema=6, fingerprint=schema6), False),
        # a record of this schema that carries an older digest is read,
        # fails the seal and is recomputed
        (lambda rec: rec.update(fingerprint=schema4), True),
        (lambda rec: rec.update(fingerprint=schema6), True),
    ):
        lines = [dict(rec) for rec in records]
        edit(lines[1])
        cache.write_text("".join(json.dumps(r) + "\n" for r in lines))
        assert (key in WeightCache(str(cache)).records) == stale
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out == cold
        appended = json.loads(cache.read_text().splitlines()[-1])
        assert appended == records[1] and appended["schema"] == 7
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


def test_cache_compact_of_a_missing_file_writes_nothing(tmp_path, capsys):
    # a cache path with no file behind it has no records: nothing is created
    code, out = run_cli(capsys, "cache-compact", "--cache", str(tmp_path / "none.jsonl"))
    assert (code, out) == (0, "compacted 0 records\n")
    assert list(tmp_path.iterdir()) == []


def test_pipeline_error_exit_code(monkeypatch, capsys):
    import dtvertex.cli as cli_mod

    def explode(pi, d):
        with naming(pi):
            raise ShapeMismatch("synthetic failure")

    monkeypatch.setattr(cli_mod, "compute_weight", explode)
    code, out = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "2")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error"
    assert report["partition"] is not None


@pytest.mark.parametrize(
    "kind,d",
    [
        ("keyconj", 32768), ("odd", 32769), ("fourk", 32768),
        ("remfail", 32769), ("remfail", 32768),
    ],
)
def test_radix_overflow_names_the_partition(capsys, kind, d):
    # at size 1 the first box product already needs exponents past the
    # radix and raises before any term is built; size 2 at this arity
    # would need gigabytes, and remfail, which reads order 2, raises on
    # its size-1 terms before it enumerates size 2
    order = "2" if kind == "remfail" else "1"
    code, out = run_cli(capsys, "check", kind, "-d", str(d), "-n", order)
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
    # the weight goes into the blocks that compute_weight restricts to the
    # locus, after e(-v) has ruled: the insertion is not built
    import dtvertex.forms as forms_mod

    real = forms_mod.locus_fold
    exponent = -1 if error.startswith("diagnostic pole") else 1

    def broken(nv):
        extra = KClass.monomial(nv.dim, (*coeffs, 0), exponent).terms
        assert not extra.keys() & nv.tail.keys()
        return real(nv._replace(tail={**nv.tail, **extra}))

    monkeypatch.setattr(forms_mod, "locus_fold", broken)
    code, out = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "1")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error"
    assert report["error"] == error
    assert report["partition"] == single_box(3).serialize()


def test_weights_before_a_pipeline_error_stay_cached(tmp_path, monkeypatch, capsys):
    # a run whose k-th compute_weight raises leaves the file as it was plus
    # the first k - 1 lines of a full run, the first after a fresh newline
    # when the file ended torn; each line is on disk before the next
    # weight starts
    import dtvertex.cli as cli_mod

    argv = ["check", "fourk", "-d", "4", "-n", "4", "--cache"]
    full = tmp_path / "full.jsonl"
    run_cli(capsys, *argv, str(full))
    lines = full.read_bytes().splitlines(keepends=True)
    assert len(lines) > 5
    case = {}

    def expected(n):
        torn, head = case["torn"], b"".join(lines[:n])
        return torn + b"\n" + head if torn and n else torn + head

    def fail_kth(pi, d):
        cache, done = case["cache"], case["done"]
        assert (cache.read_bytes() if cache.exists() else b"") == expected(len(done))
        if len(done) == case["k"] - 1:
            with naming(pi):
                raise ShapeMismatch("synthetic failure")
        done.append(pi)
        return compute_weight(pi, d)

    monkeypatch.setattr(cli_mod, "compute_weight", fail_kth)
    for k in (1, 2, 5):
        for torn in (b"", b'{"schema":7,"d":4'):
            cache = tmp_path / ("weights-%d-%d.jsonl" % (k, len(torn)))
            if torn:
                cache.write_bytes(torn)
            case.update(k=k, torn=torn, cache=cache, done=[])
            code, _ = run_cli(capsys, *argv, str(cache))
            assert code == 2 and len(case["done"]) == k - 1
            assert cache.exists() == bool(torn or k > 1)
            if cache.exists():
                assert cache.read_bytes() == expected(k - 1)
            if k == 2 and not torn:
                [record] = [json.loads(line) for line in cache.read_text().splitlines()]
                assert record["partition"] == case["done"][0].serialize()


def test_failed_omega_reverification_is_pipeline_error(monkeypatch, capsys):
    import dtvertex.omega as omega_mod

    real = omega_mod._cell_sums

    def one_too_many(parts):
        (xi, m), *rest = parts
        return real([(xi, m + 1)] + rest)

    monkeypatch.setattr(omega_mod, "_cell_sums", one_too_many)
    code, out = run_cli(capsys, "check", "omega", "-d", "4", "-n", "3")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "error"
    assert report["error"].startswith("decomposition failed re-verification")
    # the single box, the first row, is the first omega_c computed
    assert report["partition"] == single_box(3).serialize()


def test_orientation_file_flag(tmp_path, capsys):
    from dtvertex import positive_omega_orientation, weight_table

    # the positive signs in a file as the earlier assignment class saved
    # them, with its "convention" key and the empty partition's sign,
    # give the default report
    signs = positive_omega_orientation(weight_table(4, 2))
    path = tmp_path / "orient.json"
    obj = {"convention": "positive_omega", "signs": {"[]": 1, **signs}}
    path.write_text(json.dumps(obj, sort_keys=True, indent=1))
    argv = ["check", "fourk", "-d", "4", "-n", "2"]
    _, default = run_cli(capsys, *argv)
    code, out = run_cli(capsys, *argv, "--orientation", str(path))
    assert code == 0 and out == default


def assert_usage_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    return captured.err


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


def test_empty_ell_range_is_usage_error(capsys, monkeypatch):
    # a malformed value names the option, before any weight is computed
    monkeypatch.setattr(dtvertex.cli, "_prepare_weights", None)
    for value in ("3..1", "x", "1..2..3"):
        argv = ["check", "fourk", "-d", "4", "-n", "2", "--ell", value]
        assert "--ell" in assert_usage_error(capsys, *argv)


def test_empty_bundle_is_usage_error(capsys):
    for value in ("", "a"):
        argv = ["check", "remfail", "-d", "8", "-n", "2", "--bundle=" + value]
        assert "--bundle" in assert_usage_error(capsys, *argv)


def test_kind_table_rejects_what_the_validation_chain_rejects(capsys, monkeypatch):
    # each check stubbed, so only the validation of cmd_check runs; remfail's
    # order rule lies in its check and is not met here
    for kind, entry in dtvertex.cli.KINDS.items():
        stub = (lambda d, order, args: (True, {}),) + entry[1:]
        monkeypatch.setitem(dtvertex.cli.KINDS, kind, stub)
    options = [("--ell", "1"), ("--orientation", "signs.json"), ("--bundle", "1,0,0,0")]
    for kind, d, order, jobs, given in itertools.product(
        dtvertex.cli.KINDS, range(-4, 21), range(4), range(2),
        itertools.product((False, True), repeat=3),
    ):
        values = [value if g else None for (_, value), g in zip(options, given)]
        try:
            validate_check_args(kind, d, order, jobs, *values)
            want = 0
        except ValueError:
            want = 2
        argv = ["check", kind, "-d", str(d), "-n", str(order), "--jobs", str(jobs)]
        argv += [word for (flag, _), v in zip(options, values) if v for word in (flag, v)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == want, argv
        assert captured.err.startswith("error:") == (want == 2) == (captured.out == ""), argv


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


_MALFORMED = {
    "unknown option": lambda argv: argv + ["--nope"],
    "option with no value": lambda argv: argv + ["--seed"],
    "non-integer dimension": lambda argv: argv + ["-d", "x"],
    "unknown kind": lambda argv: argv[:1] + ["bogus"] + argv[2:],
    "unknown command": lambda argv: ["chek"] + argv[1:],
}


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
    malformed=st.one_of(st.none(), st.sampled_from(sorted(_MALFORMED))),
)
def test_fuzz_check_exit_codes(kind, d, n, options, malformed):
    argv = ["check", kind, "-d", str(d), "-n", str(n)] + sum(options, [])
    if malformed:
        argv = _MALFORMED[malformed](argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    ell, bundle = options[0], options[1]
    if malformed or (ell and kind != "fourk") or (bundle and (kind != "remfail" or d % 4)):
        assert code == 2
    if malformed:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
    if n < 1:
        assert "confirmed" not in out.getvalue() and "unique" not in out.getvalue()


# Each command's positional values and its options, every option under
# its full name and an unambiguous prefix (and -d, -n), with good values,
# some led by "-".  A broken argv may also draw the bad values, repeat or
# drop any option and hold one stray token.
_SPELLINGS = {
    "enumerate": ([["3", "0", "-1"], ["2", "-2", " 1"]], {
        ("--canonical", "--can"): None,
        ("--format", "--form"): ["json", "table", "csv"],
    }),
    "check": ([["odd", "fourk", "keyconj", "remfail", "omega", "uniqueness"]], {
        ("--dimension", "--dim", "-d"): ["8", "12", "-1", " 4"],
        ("--order", "--ord", "-n"): ["3", "-1"],
        ("--ell", "--el"): ["symbolic", "-1", "3"],
        ("--orientation", "--orient"): ["signs.json", "-"],
        ("--bundle", "--bun"): ["1,0,0,0", ""],
        ("--seed", "--se"): ["1", "-3"],
        ("--jobs", "--jo"): ["1", "-1", "2"],
        ("--cache", "--ca"): ["w.jsonl", "-"],
        ("--format", "--fo"): ["json", "csv", "table"],
    }),
    "cache-compact": ([], {("--cache", "--c"): ["w.jsonl", "-", ""]}),
}
_BAD = ["x", "", "-1..2", "-.5", "xml", "-x", "bogus"]
_STRAY = ["--nope", "-x", "--o", "extra", "-5", "--canonical=1", "--help=x"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SPELLINGS)))
    broken = draw(st.booleans())
    positionals, options = _SPELLINGS[command]
    bad = _BAD if broken else []
    chunks = [[draw(st.sampled_from(values + bad))] for values in positionals
              if not broken or draw(st.integers(0, 9))]
    for names, values in options.items():
        counts = [0, 1, 2] if broken else [1] if names[-1] in ("-d", "-n") else [0, 1]
        for _ in range(draw(st.sampled_from(counts))):
            name = draw(st.sampled_from(names))
            if values is None:
                chunks.append([name])
                continue
            value = draw(st.sampled_from(values + bad))
            glue = draw(st.sampled_from([None, "="] + ([""] if name[1] != "-" else [])))
            chunks.append([name, value] if glue is None else [name + glue + value])
    if broken:
        chunks += draw(st.lists(st.sampled_from(_STRAY).map(lambda tok: [tok]), max_size=1))
    return [command] + sum(draw(st.permutations(chunks)), [])


@settings(max_examples=400, deadline=None)
@given(argv=_argv())
def test_parse_args_agrees_with_argparse(argv):
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            expected = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2
        expected = None
    if expected is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
    else:
        assert vars(parse_args(argv, io.StringIO())) == expected


@pytest.mark.parametrize("command", [None, "enumerate", "check", "cache-compact"])
def test_help_names_every_option(capsys, command):
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a.choices, dict)]
    if command is None:
        words = list(sub.choices)
    else:
        words = [o for a in sub.choices[command]._actions for o in a.option_strings]
        words += [c for a in sub.choices[command]._actions for c in a.choices or ()]
    for flag in ("-h", "--help"):
        code, out = run_cli(capsys, *([command] if command else []), flag)
        assert code == 0 and out.startswith("usage: dtvertex")
        assert all(w in out for w in words), (words, out)


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
    cache = tmp_path / "weights.jsonl"
    cache.touch()
    # n <= 1 leaves 1 weight pending (serial), n <= 3 then 6 more, a warm
    # rerun none, and under another source digest all 7 records are stale
    for n, pending in (("1", 1), ("3", 6), ("3", 0), ("3", 7)):
        if pending == 7:
            monkeypatch.setattr("dtvertex.cache.source_digest", lambda: "f" * 64)
        before, lines = len(pools), len(cache.read_text().splitlines())
        code, _ = run_cli(
            capsys, "check", "fourk", "-d", "4", "-n", n, "--jobs", "64", "--cache", str(cache)
        )
        assert code == 0 and len(cache.read_text().splitlines()) - lines == pending
        assert all(w <= pending for w in pools[before:])
        assert len(pools) - before == (1 if pending > 1 else 0)


def _fresh_interpreter(probe):
    """The stripped stdout of a probe run by a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(dtvertex.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


def test_serial_cli_does_not_import_the_process_pool():
    probe = (
        "import sys, dtvertex.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    assert _fresh_interpreter(probe) == "[]"


def _miss_and_omega_rows(reports, order):
    """Per power of q up to order: the fourk miss Z - target, and the sum
    over the omega report's mismatching rows of that size of
    orbit * (-1)^size * (|omega| - omega_c) * ell (ell - 1) .. (ell - h + 1).
    Also the mismatching rows, and both exit codes."""
    fourk_code, out = reports["check fourk -d 8 -n %d" % order]
    report = json.loads(out)
    series, target = (
        [QPoly([Fraction(c) for c in coeffs]) for coeffs in report[k]["coefficients"]]
        for k in ("series", "target")
    )
    omega_code, out = reports["check omega -d 8 -n %d" % order]
    report = json.loads(out)
    assert report["exp_identity"] is True
    rows = [r for r in report["partitions"] if r["verdict"] == "mismatch"]
    by_size = [QPoly.zero() for _ in range(order + 1)]
    for r in rows:
        falling = QPoly.one()
        for j in range(r["corner_height"]):
            falling = falling * QPoly([-j, 1])
        diff = Fraction(r["omega_abs"]) - Fraction(r["omega_c"])
        by_size[r["size"]] += falling * (r["orbit_size"] * (-1) ** r["size"] * diff)
    misses = [z - t for z, t in zip(series, target)]
    return misses, by_size, rows, (fourk_code, omega_code)


def test_order_8_facts_at_d8(order_8_reports):
    # A: the 2x2x2 cube on three base axes without its far corner, corner
    # column of height 2 (orbit 35); its |omega| is 1/2 against omega_c 1,
    # and at q^8 no orientation reaches the target.  The two runs share
    # one cache and are pinned byte for byte in test_reports
    misses, by_size, rows, codes = _miss_and_omega_rows(order_8_reports, 8)
    assert codes == (1, 1)
    assert misses[8] == QPoly([0, Fraction(35, 2), Fraction(-35, 2)])
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
    # the fourk miss is the sum over the mismatching rows
    assert misses == by_size


def test_order_9_miss_is_the_omega_rows_at_d8(order_9_reports):
    # at q^9 the fourk miss is again the sum over the mismatching omega
    # rows of size 9, as at every lower power; the runs share one cache
    misses, by_size, rows, codes = _miss_and_omega_rows(order_9_reports, 9)
    assert codes == (1, 1)
    assert [r["size"] for r in rows] == [8, 9, 9, 9]
    assert misses[9] == by_size[9] != QPoly.zero()
    assert misses == by_size


def test_euler_class_runs_once_per_representative(tmp_path, monkeypatch, capsys):
    # tier-1 guard for the benchmark's call-count gate (perfbench/selftest.py);
    # the weights are read from the packed half vertex, so specialize, the
    # oracle of that read, never runs, nor taut_factor, whose forms cancel
    # the tail of -v on the locus; the character of each box stack is
    # built once
    import dtvertex.forms as forms_mod
    import dtvertex.kclass as kclass_mod

    calls, characters = [], []
    real, real_character = forms_mod.euler_class, kclass_mod.character

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def counted_character(pi, d):
        characters.append(pi.key())
        return real_character(pi, d)

    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError("compute_weight called %s" % name)

        return call

    monkeypatch.setattr(forms_mod, "euler_class", counted)
    monkeypatch.setattr(forms_mod, "specialize", refused("specialize"))
    monkeypatch.setattr(forms_mod, "taut_factor", refused("taut_factor"))
    monkeypatch.setattr(kclass_mod, "character", counted_character)
    cache = str(tmp_path / "weights.jsonl")
    code, _ = run_cli(capsys, "check", "fourk", "-d", "4", "-n", "2", "--cache", cache)
    assert code == 0 and len(calls) == 3
    assert len(characters) == len(set(characters)) == 3
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


def test_keyconj_never_expands_the_vertex(monkeypatch, capsys):
    # each verdict reads the diagonal of V from the ordered pairs of boxes,
    # so no vertex is expanded: with the flat-axis doubling refused the
    # report is unchanged
    argv = ("check", "keyconj", "-d", "12", "-n", "2")
    code, report = run_cli(capsys, *argv)
    assert code == 0 and len(json.loads(report)["partitions"]) == 13

    def refuse(*args, **kwargs):
        raise AssertionError("the vertex was expanded")

    monkeypatch.setattr(dtvertex.kclass, "_double_flat", refuse)
    assert run_cli(capsys, *argv) == (0, report)


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


def test_remfail_order_other_than_two_is_usage_error(capsys):
    # remfail reads only the q^1 and q^2 terms
    for order in ("1", "3", "6"):
        assert_usage_error(capsys, "check", "remfail", "-d", "5", "-n", order)


def _names_in_source(module):
    """Every name, attribute and imported name in a module of the package."""
    source = Path(__file__).resolve().parent.parent / "src" / "dtvertex" / module
    names = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_cli_does_not_read_a_cache_record():
    # the record format stays inside cache.py: cli hands the cache weights
    # and gets weights back
    assert not _names_in_source("cli.py") & {"records", "record_from_weight", "FIELDS", "SCHEMA"}


def test_cache_computes_no_weight():
    # the cache only stores and reads: cli computes every missing or stale
    # weight, on the one route that --jobs covers
    assert "compute_weight" not in _names_in_source("cache.py")


def _partition_writers(module):
    """Lines of a module of the package that assign the attribute partition
    of anything but self (PartitionWeight stores its own), or pass
    partition= to an exception class."""
    errors = {name for name, obj in vars(dtvertex.errors).items() if isinstance(obj, type)}
    lines = []
    for node in ast.walk(ast.parse((Path(dtvertex.__file__).parent / module).read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "partition":
            if isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) != "self":
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in errors and any(k.arg == "partition" for k in node.keywords):
                lines.append(node.lineno)
    return lines


def test_only_naming_sets_the_partition_of_an_error():
    # errors.naming is the one writer: every per-partition entry point
    # enters it instead of attaching the partition by hand
    modules = [p.name for p in Path(dtvertex.__file__).parent.glob("*.py")]
    writers = {m: _partition_writers(m) for m in modules if m != "errors.py"}
    assert "cli.py" in writers and not any(writers.values()), writers
    # the scan does see the write in naming
    assert _partition_writers("errors.py")


def test_naming_keeps_the_innermost_partition():
    outer, inner = single_box(3), single_box(7)
    with pytest.raises(ShapeMismatch) as info:
        with naming(outer):
            with naming(inner):
                raise ShapeMismatch("inner")
    assert info.value.partition == inner.serialize()


def _recomputed_by_the_cache(monkeypatch):
    """The serialized partitions whose weight the command line computes,
    as a list that fills as it runs: those the cache holds no record of
    and those whose record is stale."""
    import dtvertex.cli as cli_mod

    recomputed = []

    def counted(pi, d):
        recomputed.append(pi.serialize())
        return compute_weight(pi, d)

    monkeypatch.setattr(cli_mod, "compute_weight", counted)
    return recomputed


def test_stale_record_is_recomputed_by_the_cache_and_appended_once(
    tmp_path, monkeypatch, capsys
):
    cache = tmp_path / "weights.jsonl"
    argv = ["check", "fourk", "-d", "4", "-n", "3", "--cache", str(cache)]
    _, cold = run_cli(capsys, *argv)
    lines = cache.read_text().splitlines(keepends=True)
    stale = json.loads(lines[1])
    # a fingerprint that is not the seal of its key
    edited = list(lines)
    edited[1] = lines[1].replace(stale["fingerprint"], "0" * 64)
    cache.write_text("".join(edited))

    recomputed = _recomputed_by_the_cache(monkeypatch)
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out == cold
    assert recomputed == [stale["partition"]]
    assert cache.read_text().splitlines(keepends=True) == edited + [lines[1]]


def test_changed_source_digest_makes_every_record_stale(tmp_path, monkeypatch, capsys):
    # an edit to any module of the package changes the digest: every hit is
    # then stale, recomputed and appended once in key order, its line that
    # of the cold run with the fingerprint sealed under the new digest; a
    # second run finds them all
    import dtvertex.cache as cache_mod

    cache = tmp_path / "weights.jsonl"
    argv = ["check", "omega", "-d", "8", "-n", "4", "--cache", str(cache)]
    _, cold = run_cli(capsys, *argv)
    lines = cache.read_text().splitlines(keepends=True)

    monkeypatch.setattr(cache_mod, "source_digest", lambda: "f" * 64)
    recomputed = _recomputed_by_the_cache(monkeypatch)
    resealed = []
    for line in lines:
        rec = json.loads(line)
        assert rec["fingerprint"] != seal(rec["d"], rec["partition"])
        resealed.append(line.replace(rec["fingerprint"], seal(rec["d"], rec["partition"])))
    for _ in range(2):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out == cold
        assert recomputed == [json.loads(line)["partition"] for line in lines]
        assert cache.read_text().splitlines(keepends=True) == lines + resealed


def test_edited_partition_key_is_recomputed(tmp_path, monkeypatch, capsys):
    # a record moved by hand to another partition of the same size keeps
    # the seal of its old key, so the weight of the new key is recomputed
    # instead of serving the old one's, and so is that of the old key,
    # which now has no record
    cache = tmp_path / "weights.jsonl"
    argv = ["check", "fourk", "-d", "4", "-n", "3", "--cache", str(cache)]
    _, cold = run_cli(capsys, *argv)
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    size3 = [rec for rec in records if sum(e[-1] for e in json.loads(rec["partition"])) == 3]
    moved, target = next(
        (a, b) for a in size3 for b in size3 if (a["omega"], a["sign"]) != (b["omega"], b["sign"])
    )
    edited = [rec for rec in records if rec is not target]
    edited[edited.index(moved)] = dict(moved, partition=target["partition"])
    cache.write_text("".join(json.dumps(r) + "\n" for r in edited))

    recomputed = _recomputed_by_the_cache(monkeypatch)
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out == cold
    assert sorted(recomputed) == sorted([target["partition"], moved["partition"]])


def test_warm_hit_builds_no_half_vertex(tmp_path, monkeypatch, capsys):
    # a hit compares the stored fingerprint with the seal of its key: with
    # the box character and the box product refused at every import site,
    # a warm run repeats the cold report
    cache = str(tmp_path / "weights.jsonl")
    argv = ["check", "omega", "-d", "8", "-n", "5", "--cache", cache]
    code, cold = run_cli(capsys, *argv)
    assert code == 0 and json.loads(cold)["verdict"] == "confirmed"

    def refuse(*args, **kwargs):
        raise AssertionError("a half vertex was built")

    for attr in ("character", "_active_fold"):
        real = getattr(dtvertex.kclass, attr)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "dtvertex" and getattr(mod, attr, None) is real:
                monkeypatch.setattr(mod, attr, refuse)
    assert dtvertex.kclass.character is refuse and dtvertex.kclass._active_fold is refuse
    assert run_cli(capsys, *argv) == (0, cold)


def test_source_digest_is_not_read_at_import():
    # the digest is read on the first lookup or append, so importing the
    # command line reads no source file
    probe = "import dtvertex.cli, dtvertex.cache as c; print(c.source_digest.cache_info().misses)"
    assert _fresh_interpreter(probe) == "0"


def test_cli_run_imports_no_argparse():
    probe = (
        "import contextlib, io, sys, dtvertex.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = dtvertex.cli.main(['check', 'keyconj', '-d', '4', '-n', '2'])\n"
        "print(code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])"
    )
    assert _fresh_interpreter(probe) == "0 []"


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
