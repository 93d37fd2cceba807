"""Golden reports: the CLI's stdout and cold cache file stay byte-identical.

Each digest is the sha256 of the stdout of `main(argv)`.  A refactor
that changes any byte of a report, or of the cache records, fails here;
a change that is meant to alter a report updates the digest in the same
commit and says why.
"""

import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction
from math import comb

import pytest

from dtvertex import QPoly
from dtvertex.cache import ENV_CACHE_DIR, seal
from dtvertex.cli import main

from conftest import raised_cube_without_corner

GOLDEN = [
    ("check fourk -d 4 -n 3 --ell=-1..2",
     "18db1f9b07fb5096aacadff39d93153575fc3f09e7bad8658c6d4314fda03d6e"),
    ("check fourk -d 8 -n 3",
     "7256674db55382be758aa49e8296bb6b9b2eb02f399a5cbf74348e7110c8ac01"),
    ("check fourk -d 4 -n 3 --format table",
     "45f340af45177511e99ba8c8d7124fb41e732e5dcdbdf81522ce74a2b522613d"),
    ("check odd -d 5 -n 3",
     "62813dded49e29a0569a31a45702fa11296b2ba18944302f7bf333e3c75a9b53"),
    ("check odd -d 7 -n 3",
     "882c3276770bb1864d01782067d6cb1363f9a8e7eac6f35a688a2027fdaa92e2"),
    ("check keyconj -d 8 -n 3",
     "393c7fe0c475b65dc1e69cdff910d7a360f217d565e4c4b47f3d3f3115abccc8"),
    ("check omega -d 4 -n 4 --format csv",
     "e9ce8ef538538dac6ad42757fe6eb5d70ff6bb5a75c5b5e7d09762e81f5451d9"),
    ("check omega -d 8 -n 4",
     "ec60a7cc2a8b37f2b9eefe55dc915713f5c7091d1b982e8e500d84f30a05bf0d"),
    ("check uniqueness -d 4 -n 4",
     "db1b22b812db1048aba1a995b93a84043736246902a1954ad455e96df8e33571"),
    ("check remfail -d 8 -n 2",
     "4cf906510b64884b5174c54d9604ce2979170d50621142bc9fa46b58f2417c0d"),
    ("check remfail -d 7 -n 2",
     "a08a68265bcc431ac4ed8282756e081ccba691ebd42606cc392e5a938d7ff3f4"),
    ("enumerate 4 5 --canonical",
     "fb5fdacd90ce383bde1d0a2a6dc79897a3bdfd4c40aef79fd4ce442e566a816d"),
    # arity above size - 1: representatives padded from a lower arity
    ("enumerate 7 6 --canonical",
     "750fda68a6b712c26349b792fee2b5a5b0954dd7ea879681b7c903c22eb60d77"),
    ("enumerate 11 4 --canonical --format csv",
     "43983e13ee777c35d1c53c1baec23d938f18bdd1813db5aa1074e2b24c6234e5"),
    ("enumerate 15 3 --canonical --format table",
     "e1137b2b05a83c96b97543ad42bda5eefbe7c1e2b92ce1768d65e69e8ec4e203"),
    ("check odd -d 9 -n 4",
     "a5a72d77ac57b8c90d64e4280659f44d952ca28e6b23b3c4e2ae876ab2a8ef19"),
    # odd signs from the half vertex; the full vertex built from it
    ("check odd -d 11 -n 4",
     "ed834ff669b51590b571a13aae345f3f10bb2e2ce381affc89a64668aaff7ae0"),
    ("check keyconj -d 5 -n 4",
     "0937826175bccd3078b2dcd3a5ee2daca9e6251c8433eaf7fac8762550a8142c"),
    ("check keyconj -d 12 -n 2",
     "a85fb3a698f3e184863d30b6f346b168b84710b0f77994391d59eb6f46081e84"),
    ("check remfail -d 5 -n 2",
     "680567799051b59d7c401c26523d13cd85304ea57b6cca6821ee66121d3bd25e"),
    # plain enumeration: every partition of the size, not orbit representatives
    ("enumerate 3 5",
     "387ce3c24781d57ff500b655a35530851559f4d66460fb6a879b1a8e871cf3f5"),
    ("enumerate 11 3 --format csv",
     "5300b58b6ba24388db97a29d5a5395b1bcbb66a88df3e08b65feff4650a5ec33"),
    ("enumerate 1 12 --format table",
     "c79ceab41bc6238f511cb617edc468893f2ac1e0177b49b11c5612d67c2c1fad"),
    # d = 0 mod 4 past d = 12: the d = 16 and d = 20 digests come from the
    # route that expanded every interior code of e(-v), the deeper ones
    # from the route that never does
    ("check fourk -d 16 -n 3",
     "0b651cde90ca4b6cf7c6c3af808c087f032bc29875ef7ddf3bbe18d97425cb9b"),
    ("check fourk -d 20 -n 2",
     "607472007a1ad3b2814719efac83999d16ec8d7711499dd9e1eef564d7530111"),
    ("check fourk -d 24 -n 2",
     "0b8b70c86e373bf0c12119493adf5fc73544ed6b58ef7f71e732ba8cd461f3d4"),
    ("check fourk -d 32 -n 2",
     "b667c5ecb466b8b2fd6c153fdab7a0912ca59dd3b1329e12e51b814c50722037"),
    ("check fourk -d 24 -n 3",
     "7cfd087c8375126c70743c9883f7aa5b8a19f27d939f64f1b398f8eb51bcab34"),
    # deeper odd series: their c0 came from the flat-axis orbits of the
    # half vertex when these digests were taken
    ("check odd -d 9 -n 6",
     "5627278942d914a149c0f72e8c2883a75a735d5a600623bf273c47050417b005"),
    ("check odd -d 5 -n 7",
     "cc99a5be5b7a451520dbda65a5d133c05b46cc44787fef0496fadcb539681826"),
    ("check odd -d 13 -n 3",
     "02ec5c9beda56941a8cc2c9cf06f92b137c43943c632f37366025d3ef33f72e6"),
    # keyconj past d = 12, each verdict read from the blocks of V: the
    # d = 13 and d = 16 digests come from the route that expanded every
    # V, the d = 20 and d = 32 ones, which that route cannot finish, from
    # the blocks, with test_kclass's fixed(V) = (1 + (-1)^d) c0 identity
    # through d = 32 as their oracle
    ("check keyconj -d 13 -n 3",
     "c77568301bdeab265daf95b880f510cd5883edcb0a2ceff35a197d000dbfef01"),
    ("check keyconj -d 16 -n 3",
     "8ae53443c1ef39fe98ed24b2ae36c9b944c286d074071448ed0165abbce1d467"),
    ("check keyconj -d 20 -n 3",
     "ec22f546e14b50a7d8f45ea458a3cf0fc2d8602a1f1e79cc56b2aa0fe99d849f"),
    ("check keyconj -d 32 -n 3",
     "3ac5c5d658a9a0237346b1c8040b43e538f5cb7f26e0b0835a7d2b5ef9b24276"),
]

# the file written by a cold `check fourk -d 4 -n 3 --cache F`, schema 7
# records with every fingerprint value masked as 64 zeros: a fingerprint
# seals the key with the package source (cache.seal), so it moves with
# every source edit, and is checked against the seal of its own key
COLD_CACHE = "c7b44044c00c0850b96e5214f54f5171d7ca2281ecdc96b3ca3f743a55edb0c7"
_FINGERPRINT = re.compile(rb'"fingerprint":"[0-9a-f]{64}"')


# order 8 at d = 8: both checks exit 1 (test_cli.test_order_8_facts_at_d8
# reads the facts); the reports carry the value 1/2 ell (ell - 1) of the
# raised cube without its far corner.  The runs come from the shared
# order_8_reports fixture, on one cache that fourk fills for omega
ORDER_8_GOLDEN = {
    "check fourk -d 8 -n 8": "e18b99c27198db130c8a83c44d11761ff57e67435e3fde4241d37c87876fd08b",
    "check omega -d 8 -n 8": "5c9c23c2797efdf9d0695fcc200028a69dfcc60ca2ed3160a29ea20742c141a2",
}

# order 8 at d = 16 and d = 20: both checks exit 1, and the miss at q^8
# is -C(d - 1, 3) / 2 * ell (ell - 1), as test_cli.test_order_8_facts_at_d8
# reads it at d = 8 (-35/2)
ORDER_8_LARGE_D = {
    "check fourk -d 16 -n 8": "78005d9b9bbeb2885f7176bccbb30bf41c5a08ad4359a73978c24d696114fcb5",
    "check fourk -d 20 -n 8": "87c317a507d1825dcbb6d153a84f15e955a9cb04ee3fe38117153d5758dcc70a",
}

# order 8 of omega at d = 16 and d = 20: both exit 1, and the one
# mismatching row is A, |omega| 1/2 against omega_c 1 as at d = 8, on an
# orbit of C(d - 1, 3)
ORDER_8_OMEGA_LARGE_D = {
    "check omega -d 16 -n 8": "00082ad5e472be86e6a05717b4bf995457d9634d5714c2a1afa3bf9fbb35a3c1",
    "check omega -d 20 -n 8": "e9055c5089f24a01b067fcf1af5c91c97bef75b3ce9d742cd7f23b4bb69b4dc5",
}


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_report_is_byte_identical(monkeypatch, command, digest):
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    code, out = _stdout(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cold_cache_file_is_byte_identical(tmp_path):
    cache = tmp_path / "weights.jsonl"
    code, _ = _stdout(["check", "fourk", "-d", "4", "-n", "3", "--cache", str(cache)])
    assert code == 0
    lines = cache.read_bytes().splitlines(keepends=True)
    for line in lines:
        rec = json.loads(line)
        assert rec["fingerprint"] == seal(rec["d"], rec["partition"])
    masked, count = _FINGERPRINT.subn(b'"fingerprint":"' + b"0" * 64 + b'"', b"".join(lines))
    assert count == len(lines) == 7
    assert hashlib.sha256(masked).hexdigest() == COLD_CACHE


@pytest.mark.parametrize("command", list(ORDER_8_GOLDEN))
def test_order_8_report_is_byte_identical(order_8_reports, command):
    code, out = order_8_reports[command]
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == ORDER_8_GOLDEN[command]


@pytest.mark.parametrize("command", list(ORDER_8_LARGE_D))
def test_order_8_miss_at_d16_and_d20_is_pinned(monkeypatch, command):
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    code, out = _stdout(command.split())
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == ORDER_8_LARGE_D[command]
    report = json.loads(out)
    series, target = (
        [QPoly([Fraction(c) for c in coeffs]) for coeffs in report[k]["coefficients"]]
        for k in ("series", "target")
    )
    misses = [z - t for z, t in zip(series, target)]
    c = Fraction(comb(report["dimension"] - 1, 3), 2)
    assert misses == [QPoly.zero()] * 8 + [QPoly([0, c, -c])]


@pytest.mark.parametrize("command", list(ORDER_8_OMEGA_LARGE_D))
def test_order_8_omega_mismatch_at_d16_and_d20_is_pinned(monkeypatch, command):
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    code, out = _stdout(command.split())
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == ORDER_8_OMEGA_LARGE_D[command]
    report = json.loads(out)
    d = report["dimension"]
    assert report["exp_identity"] is True
    rows = [r for r in report["partitions"] if r["verdict"] == "mismatch"]
    assert [(r["partition"], r["omega_abs"], r["omega_c"], r["orbit_size"]) for r in rows] == [
        (raised_cube_without_corner(d - 1).serialize(), "1/2", "1", comb(d - 1, 3))
    ]
