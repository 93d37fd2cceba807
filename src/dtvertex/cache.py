"""Append-only JSON-lines cache of per-partition weight records.

One record per line, keyed by (dimension, canonical partition), holding
schema, d, partition, fingerprint, verdict, omega and sign; records
carry SCHEMA 7.  Only this module reads or builds a record: callers hand
WeightCache.append a PartitionWeight and get one back from
WeightCache.get_weight, or None when the cache holds no record of the
partition.  The fingerprint seals the key with the source of the
program that computed the weight: it is the sha256 of source_digest(),
d and the partition (seal).  A hit is trusted only when its fingerprint
equals the seal of its key in this process, one short hash that builds
no half vertex.  An edit to any module of the package changes the
digest, so every record written before it is stale, and so is a record
whose d or partition was edited by hand.  Stale lines are recomputed
and re-appended, and compaction rewrites the file keeping the last
record per key.  A line that is not a well-formed record of this SCHEMA
(a write torn by a crash, bytes that are not UTF-8, a record of another
format, a missing or extra key, a value of the wrong type, an omega
that is not a rational) is skipped, so its partition is recomputed and
appended on a fresh line.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from fractions import Fraction

from .forms import PartitionWeight, compute_weight

ENV_CACHE_DIR = "DTVERTEX_CACHE_DIR"
# Version of the record format; records of any other version are skipped.
SCHEMA = 7
# The keys of a record and the JSON type of each value.
FIELDS = {
    "schema": int, "d": int, "partition": str, "fingerprint": str,
    "verdict": str, "omega": str, "sign": int,
}


def default_cache_path():
    base = os.environ.get(ENV_CACHE_DIR)
    return os.path.join(base, "weights.jsonl") if base else None


@functools.cache
def source_digest():
    """sha256, as hex, of the package's own *.py files in name order: for
    each its name, its byte count and its bytes.  Read once per process,
    on the first lookup or append, never at import."""
    here = os.path.dirname(__file__)
    h = hashlib.sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                data = fh.read()
            h.update(b"%s:%d:" % (name.encode(), len(data)) + data)
    return h.hexdigest()


def seal(d, partition):
    """The fingerprint of the record of a serialized partition in dimension
    d: sha256, as hex, of b"digest:d:partition", digest source_digest()."""
    key = "%s:%d:%s" % (source_digest(), d, partition)
    return hashlib.sha256(key.encode()).hexdigest()


def record_from_weight(w):
    partition = w.partition.serialize()
    return {
        "schema": SCHEMA,
        "d": w.d,
        "partition": partition,
        "fingerprint": seal(w.d, partition),
        "verdict": w.verdict,
        "omega": str(w.omega),
        "sign": w.sign,
    }


def _line(rec):
    """A record as one JSON line: sorted keys, no spaces, a newline."""
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


def _well_formed(rec):
    """Whether a parsed line is a record of this SCHEMA with exactly FIELDS.

    Values must have the listed JSON types (a bool is not an int) and
    omega must parse as a Fraction.  Its sign, the sign field and the
    verdict are checked later, by PartitionWeight, so an impossible
    weight still fails loudly.
    """
    if not isinstance(rec, dict) or rec.keys() != FIELDS.keys():
        return False
    if any(type(rec[k]) is not t for k, t in FIELDS.items()) or rec["schema"] != SCHEMA:
        return False
    try:
        Fraction(rec["omega"])
    except (ValueError, ZeroDivisionError):
        return False
    return True


def weight_from_record(rec, pi):
    return PartitionWeight(pi, rec["d"], rec["verdict"], Fraction(rec["omega"]), rec["sign"])


class WeightCache:
    """JSONL-backed store; in-memory index of the last record per key."""

    def __init__(self, path):
        self.path = path
        self.records = {}
        # True when the file's last line has no newline (a torn write);
        # the next append then starts a fresh line.
        self._torn_tail = False
        if path and os.path.exists(path):
            # bytes, so a line that is not UTF-8 fails json.loads like any
            # other malformed line instead of aborting the read
            with open(path, "rb") as fh:
                for line in fh:
                    self._torn_tail = not line.endswith(b"\n")
                    try:
                        rec = json.loads(line)
                    except ValueError:
                        continue
                    if _well_formed(rec):
                        self.records[(rec["d"], rec["partition"])] = rec

    def append(self, w):
        """Store the record of a PartitionWeight and append it to the file."""
        rec = record_from_weight(w)
        self.records[(rec["d"], rec["partition"])] = rec
        if self.path:
            line = _line(rec)
            with open(self.path, "a") as fh:
                fh.write("\n" + line if self._torn_tail else line)
            self._torn_tail = False

    def compact(self):
        """Rewrite the file with one line per key, sorted.

        The records go to a sibling temporary file that replaces the
        original only once it is complete and flushed to disk; on any
        failure the original is left untouched.
        """
        if not self.path:
            return 0
        keys = sorted(self.records)
        tmp = self.path + ".compact.tmp"
        try:
            with open(tmp, "w") as fh:
                for k in keys:
                    fh.write(_line(self.records[k]))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        self._torn_tail = False
        return len(keys)

    def get_weight(self, pi, d):
        """The weight of a partition's record, or None if there is none.

        A record whose fingerprint is not the seal of its key is stale:
        its weight is recomputed, appended and returned.
        """
        partition = pi.serialize()
        rec = self.records.get((d, partition))
        if rec is None:
            return None
        if rec["fingerprint"] == seal(d, partition):
            return weight_from_record(rec, pi)
        w = compute_weight(pi, d)
        self.append(w)
        return w
