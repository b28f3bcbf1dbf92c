"""Write-ahead journal: record integrity, tail tolerance, replay."""

import json

import pytest

from repro.errors import ReproError
from repro.recovery import (
    JournaledSharedCache,
    PlanJournal,
    decode_record,
    encode_record,
    journal_replans,
    read_journal,
    replay_into_cache,
)
from repro.serve.protocol import plan_digest
from repro.serve.shared_cache import SharedCache, request_key, wire_key

KEY = (("model", "fp"), ("board", "fp"), ("space", "fp"), ("percent", 30.0))


def make_payload(value: float = 1.0) -> dict:
    core = {"model": "tiny", "qos": {"percent": value}, "plan": [value]}
    core["digest"] = plan_digest(core)
    return core


class TestRecordCodec:
    def test_round_trip(self):
        line = encode_record("publish", {"key": "k", "payload": {"a": 1}})
        record = decode_record(line)
        assert record.kind == "publish"
        assert record.data == {"key": "k", "payload": {"a": 1}}

    def test_digest_covers_the_body(self):
        line = encode_record("publish", {"key": "k"})
        tampered = line.replace('"k"', '"x"')
        with pytest.raises(ReproError):
            decode_record(tampered)

    def test_truncated_line_rejected(self):
        line = encode_record("publish", {"key": "k"})
        with pytest.raises(ReproError):
            decode_record(line[: len(line) // 2])

    def test_non_object_rejected(self):
        with pytest.raises(ReproError):
            decode_record("[1, 2, 3]")

    def test_missing_fields_rejected(self):
        with pytest.raises(ReproError):
            decode_record(json.dumps({"kind": "publish"}))


class TestReadJournal:
    def test_missing_file_reads_empty(self, tmp_path):
        records, stats = read_journal(str(tmp_path / "absent.jsonl"))
        assert records == []
        assert stats == {"read": 0, "dropped_tail": 0, "bytes": 0}

    def test_appends_read_back_in_order(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = PlanJournal(path)
        journal.append("publish", {"key": "a"})
        journal.append("request", {"key": "b", "digest": "d"})
        journal.close()
        records, stats = read_journal(path)
        assert [r.kind for r in records] == ["publish", "request"]
        assert stats["read"] == 2
        assert stats["dropped_tail"] == 0

    def test_truncated_tail_is_tolerated(self, tmp_path):
        """The crash signature: a torn final record drops, the rest
        survives."""
        path = str(tmp_path / "j.jsonl")
        journal = PlanJournal(path)
        journal.append("publish", {"key": "a"})
        journal.append("publish", {"key": "b"})
        journal.close()
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[:-10])  # tear the tail record
        records, stats = read_journal(path)
        assert [r.data["key"] for r in records] == ["a"]
        assert stats["read"] == 1
        assert stats["dropped_tail"] == 1

    def test_scan_stops_at_first_bad_record(self, tmp_path):
        """Nothing after a torn write can be trusted to be complete."""
        path = str(tmp_path / "j.jsonl")
        good = encode_record("publish", {"key": "a"})
        bad = "{'not json'}"
        tail = encode_record("publish", {"key": "b"})
        with open(path, "w") as handle:
            handle.write(f"{good}\n{bad}\n{tail}\n")
        records, stats = read_journal(path)
        assert [r.data["key"] for r in records] == ["a"]
        assert stats["dropped_tail"] == 2

    def test_journal_handle_pickles_by_path(self, tmp_path):
        import pickle

        path = str(tmp_path / "j.jsonl")
        journal = PlanJournal(path)
        journal.append("publish", {"key": "a"})
        clone = pickle.loads(pickle.dumps(journal))
        clone.append("publish", {"key": "b"})
        journal.close()
        clone.close()
        records, _ = read_journal(path)
        assert [r.data["key"] for r in records] == ["a", "b"]

    def test_empty_path_rejected(self):
        with pytest.raises(ReproError):
            PlanJournal("")


class TestReplay:
    def test_rebuilds_publishes_and_request_index(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        source = JournaledSharedCache(SharedCache(), PlanJournal(path))
        payload = make_payload()
        source.publish(KEY, payload)
        rk = request_key("tiny", ("percent", 30.0))
        source.register_request(rk, payload["digest"])
        source.journal.close()

        rebuilt = SharedCache()
        stats = replay_into_cache(path, rebuilt)
        assert stats["replayed"] == 1
        assert stats["requests"] == 1
        assert stats["skipped"] == 0
        assert rebuilt.lookup(KEY) == payload
        assert rebuilt.lookup_request(rk) == payload
        assert rebuilt.stats()["replayed"] == 1

    def test_replay_is_idempotent(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        source = JournaledSharedCache(SharedCache(), PlanJournal(path))
        payload = make_payload()
        source.publish(KEY, payload)
        source.journal.close()

        rebuilt = SharedCache()
        replay_into_cache(path, rebuilt)
        replay_into_cache(path, rebuilt)  # duplicate pass
        assert rebuilt.lookup(KEY) == payload
        assert rebuilt.stats()["size"] == 1

    def test_tampered_payload_is_skipped_not_served(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        payload = make_payload()
        record = encode_record(
            "publish",
            {"key": wire_key(KEY), "payload": {**payload, "plan": [9.0]}},
        )
        with open(path, "w") as handle:
            handle.write(record + "\n")
        rebuilt = SharedCache()
        stats = replay_into_cache(path, rebuilt)
        assert stats["skipped"] == 1
        assert stats["replayed"] == 0
        assert rebuilt.lookup(KEY) is None

    def test_unknown_kinds_are_skipped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = PlanJournal(path)
        journal.append("future-kind", {"anything": True})
        journal.close()
        stats = replay_into_cache(path, SharedCache())
        assert stats["skipped"] == 1


class TestJournaledSharedCache:
    def test_write_ahead_ordering(self, tmp_path):
        """The record hits the journal even if the tier rejects it."""
        path = str(tmp_path / "j.jsonl")
        tier = JournaledSharedCache(
            SharedCache(capacity=1), PlanJournal(path)
        )
        tier.publish(KEY, make_payload(1.0))
        other = (("model", "fp"), ("percent", 50.0))
        tier.publish(other, make_payload(2.0))  # over capacity: rejected
        tier.journal.close()
        records, _ = read_journal(path)
        assert len(records) == 2  # both appended before the verdict
        assert tier.stats()["rejected"] == 1

    def test_lookups_pass_through_unjournaled(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        tier = JournaledSharedCache(SharedCache(), PlanJournal(path))
        payload = make_payload()
        tier.publish(KEY, payload)
        assert tier.lookup(KEY) == payload
        tier.journal.close()
        records, _ = read_journal(path)
        assert len(records) == 1  # the publish only

    def test_stats_name_the_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        tier = JournaledSharedCache(SharedCache(), PlanJournal(path))
        assert tier.stats()["journal"] == path


class TestJournalReplans:
    def test_appends_each_decision(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = PlanJournal(path)
        count = journal_replans(
            journal,
            [
                {"device": 0, "epoch": 3, "verdict": "applied"},
                {"device": 1, "epoch": 3, "verdict": "declined"},
            ],
        )
        journal.close()
        assert count == 2
        records, _ = read_journal(path)
        assert [r.kind for r in records] == ["replan", "replan"]

    def test_none_journal_is_a_noop(self):
        assert journal_replans(None, [{"device": 0}]) == 0
