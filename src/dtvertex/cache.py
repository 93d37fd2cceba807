"""Append-only JSON-lines cache of per-partition weight records.

One record per line, keyed by (dimension, canonical partition), holding
exactly what a PartitionWeight keeps: schema, d, partition, fingerprint,
verdict, omega and sign; records carry SCHEMA 6.  Only this module reads
or builds a record: callers hand WeightCache.append a PartitionWeight
and get one back from WeightCache.get_weight, or None when the cache
holds no record of the partition.  The fingerprint is
forms.vertex_fingerprint of -v in blocks (kclass.half_vertex_blocks),
v the half vertex that the weight and the verdict come from.  A hit is
trusted only once the fingerprint is recomputed and matches, which never
expands the half vertex.  It checks only the half vertex, so a change
to a later stage of the weight pipeline must bump SCHEMA.  Stale lines
are recomputed and re-appended, and compaction rewrites the file
keeping the last record per key.  A line that is not a well-formed
record of this SCHEMA (a write torn by a crash, bytes that are not
UTF-8, a record of another format, a missing or extra key, a value of
the wrong type, an omega that is not a rational) is skipped, so its
partition is recomputed and appended on a fresh line.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .forms import PartitionWeight, compute_weight, vertex_fingerprint
from .kclass import half_vertex_blocks

ENV_CACHE_DIR = "DTVERTEX_CACHE_DIR"
# Version of the record format; records of any other version are skipped.
SCHEMA = 6
# The keys of a record and the JSON type of each value.
FIELDS = {
    "schema": int, "d": int, "partition": str, "fingerprint": str,
    "verdict": str, "omega": str, "sign": int,
}


def default_cache_path():
    base = os.environ.get(ENV_CACHE_DIR)
    return os.path.join(base, "weights.jsonl") if base else None


def record_from_weight(w):
    return {
        "schema": SCHEMA,
        "d": w.d,
        "partition": w.partition.serialize(),
        "fingerprint": w.fingerprint,
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
    return PartitionWeight(
        pi, rec["d"], rec["verdict"], rec["fingerprint"], Fraction(rec["omega"]), rec["sign"]
    )


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

        A record whose half-vertex fingerprint no longer matches is stale:
        its weight is recomputed, appended and returned.
        """
        rec = self.records.get((d, pi.serialize()))
        if rec is None:
            return None
        if rec["fingerprint"] == vertex_fingerprint(half_vertex_blocks(pi, d)):
            return weight_from_record(rec, pi)
        w = compute_weight(pi, d)
        self.append(w)
        return w
