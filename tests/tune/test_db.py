"""TuningDB: keys, validation, persistence, staleness."""

import json

import pytest

from repro.core.launch import WORK_GROUP_REDUCE
from repro.exceptions import TuningDBError, TuningError
from repro.sycl.device import pvc_stack_device
from repro.tune.db import SCHEMA_VERSION, TuningDB, TuningKey, TuningRecord, bucket_rows
from repro.tune.space import SLM_PAPER, TuneCandidate, space_signature

DEVICE = pvc_stack_device(1)


def make_record(
    device=DEVICE.name,
    solver="cg",
    rows=32,
    signature=None,
    candidate=None,
    modeled=1e-4,
    default=2e-4,
):
    return TuningRecord(
        key=TuningKey.for_problem(device, solver, "jacobi", rows, "double"),
        candidate=candidate
        if candidate is not None
        else TuneCandidate(32, 32, WORK_GROUP_REDUCE, SLM_PAPER),
        modeled_seconds=modeled,
        default_seconds=default,
        strategy="grid",
        evaluations=10,
        seed=0,
        space_signature=signature
        if signature is not None
        else space_signature(DEVICE),
    )


class TestKeys:
    def test_bucket_rounds_up_to_power_of_two(self):
        assert bucket_rows(1) == 4
        assert bucket_rows(5) == 8
        assert bucket_rows(32) == 32
        assert bucket_rows(33) == 64

    def test_bucket_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bucket_rows(0)

    def test_key_string_roundtrip(self):
        key = TuningKey.for_problem("dev", "cg", "jacobi", 60, "double")
        assert key.rows_bucket == 64
        assert TuningKey.from_str(key.as_str()) == key

    def test_malformed_key_raises(self):
        with pytest.raises(TuningDBError):
            TuningKey.from_str("too|few|parts")
        with pytest.raises(TuningDBError):
            TuningKey.from_str("a|b|c|not-int|e")


class TestRecordValidation:
    def test_record_json_roundtrip(self):
        record = make_record()
        rebuilt = TuningRecord.from_json(record.key, record.as_json())
        assert rebuilt == record

    def test_missing_fields_raise(self):
        record = make_record()
        payload = record.as_json()
        del payload["parameters"]
        with pytest.raises(TuningDBError, match="missing"):
            TuningRecord.from_json(record.key, payload)

    def test_non_positive_times_raise(self):
        record = make_record()
        payload = record.as_json()
        payload["modeled_seconds"] = 0.0
        with pytest.raises(TuningDBError):
            TuningRecord.from_json(record.key, payload)

    def test_tuning_db_error_is_tuning_error_and_value_error(self):
        assert issubclass(TuningDBError, TuningError)
        assert issubclass(TuningDBError, ValueError)

    def test_speedup(self):
        assert make_record(modeled=1e-4, default=2e-4).speedup == pytest.approx(2.0)


class TestPersistence:
    def test_put_and_reload(self, tmp_path):
        path = tmp_path / "db.json"
        db = TuningDB(path)
        record = make_record()
        db.put(record)
        reloaded = TuningDB(path)
        assert reloaded.records() == [record]

    def test_file_is_versioned_json(self, tmp_path):
        path = tmp_path / "db.json"
        TuningDB(path).put(make_record())
        raw = json.loads(path.read_text())
        assert raw["version"] == SCHEMA_VERSION
        assert len(raw["entries"]) == 1

    def test_file_with_a_generation_key_still_loads(self, tmp_path):
        # files written while the database kept a mutation counter carry
        # a top-level "generation" key; the loader ignores it
        path = tmp_path / "db.json"
        TuningDB(path).put(make_record())
        raw = json.loads(path.read_text())
        raw["generation"] = 7
        path.write_text(json.dumps(raw))
        assert TuningDB(path).records() == [make_record()]

    def test_schema_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"version": SCHEMA_VERSION + 1, "entries": {}}))
        with pytest.raises(TuningDBError, match="schema version"):
            TuningDB(path)

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{not json")
        with pytest.raises(TuningDBError):
            TuningDB(path)
        path.write_text(json.dumps({"version": SCHEMA_VERSION}))
        with pytest.raises(TuningDBError, match="entries"):
            TuningDB(path)

    def test_memory_only_db_never_writes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        db = TuningDB()
        db.put(make_record())
        assert list(tmp_path.iterdir()) == []


class TestLookup:
    def test_exact_hit(self):
        db = TuningDB()
        record = make_record()
        db.put(record)
        assert db.lookup(record.key) == record
        assert db.metrics.counter("tune.db.hits").value == 1

    def test_stale_signature_misses(self):
        db = TuningDB()
        db.put(make_record(signature="stale-sig"))
        assert db.lookup(make_record().key, signature="live-sig") is None
        assert db.metrics.counter("tune.db.stale").value == 1
        assert db.metrics.counter("tune.db.misses").value == 1


class TestMutation:
    def test_clear_filters(self):
        db = TuningDB()
        db.put(make_record(device="a"))
        db.put(make_record(device="b"))
        db.put(make_record(device="b", solver="bicgstab"))
        assert db.clear(device="b", solver="bicgstab") == 1
        assert db.clear(device="a") == 1
        assert len(db) == 1
