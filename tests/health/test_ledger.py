"""The hash-chained transition ledger and its verification CLI."""

from __future__ import annotations

import json

from repro.health.bands import Band, Transition
from repro.health.evidence import HealthEvidence
from repro.health.ledger import GENESIS, HealthLedger, canonical, record_hash
from repro.health.verify import main, verify_file


def evidence(time: float, sheds: int = 0) -> HealthEvidence:
    return HealthEvidence(
        time=time,
        window=40.0,
        shed_rate=sheds / 40.0,
        retry_denied_rate=0.0,
        loss_backlog=1,
        under_replicated=0,
        queue_depth=3,
        queue_depth_p90=2,
        shed_metrics=sheds,
        shed_faultlog=sheds,
        shed_wire=sheds,
        retry_denied_total=0,
        faults_lost=1,
        faults_recovered=0,
    )


def degrade(time: float, from_band: Band) -> Transition:
    return Transition(
        time=time,
        from_band=from_band,
        to_band=Band(from_band + 1),
        direction="degrade",
        reason="shed_rate",
        severity=Band(from_band + 1),
    )


def chain(n: int = 3) -> HealthLedger:
    ledger = HealthLedger()
    for i in range(n):
        ledger.append(degrade(10.0 * (i + 1), Band(i)), evidence(10.0 * (i + 1), i))
    return ledger


class TestChain:
    def test_records_chain_from_genesis(self):
        ledger = chain(3)
        assert len(ledger) == 3
        assert ledger.records[0].prev_hash == GENESIS
        for prev, record in zip(ledger.records, ledger.records[1:], strict=False):
            assert record.prev_hash == prev.hash
            assert record.seq == prev.seq + 1
        assert ledger.head == ledger.records[-1].hash

    def test_hash_covers_the_canonical_body(self):
        ledger = chain(1)
        record = ledger.records[0]
        assert record.hash == record_hash(record.body())
        assert "hash" not in record.body()

    def test_verify_passes_intact_chain(self):
        assert HealthLedger.verify_records(chain(4).to_json()) is None
        # Empty is trivially intact.
        assert HealthLedger.verify_records(HealthLedger().to_json()) is None

    def test_serialization_is_deterministic(self):
        lines_a = [canonical(r) for r in chain(4).to_json()]
        lines_b = [canonical(r) for r in chain(4).to_json()]
        assert lines_a == lines_b
        for line in lines_a:
            assert json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            ) == line


class TestTamperEvidence:
    def test_edited_field_is_detected(self):
        for field, value in [
            ("time", 999.0),
            ("to_band", "failed"),
            ("direction", "recover"),
            ("reason", "calm"),
            ("severity", "stable"),
        ]:
            records = chain(3).to_json()
            records[1][field] = value
            error = HealthLedger.verify_records(records)
            assert error is not None and "record 1" in error

    def test_edited_evidence_is_detected(self):
        records = chain(3).to_json()
        records[2]["evidence"]["shed_metrics"] = 0
        error = HealthLedger.verify_records(records)
        assert error is not None and "record 2" in error

    def test_dropped_record_breaks_the_chain(self):
        records = chain(3).to_json()
        del records[1]
        assert HealthLedger.verify_records(records) is not None

    def test_reordered_records_break_the_chain(self):
        records = chain(3).to_json()
        records[0], records[1] = records[1], records[0]
        assert HealthLedger.verify_records(records) is not None

    def test_truncated_head_is_detected(self):
        # Dropping the oldest records re-anchors nothing: seq 1 at index 0.
        records = chain(3).to_json()[1:]
        error = HealthLedger.verify_records(records)
        assert error is not None and "seq" in error

    def test_rewritten_hash_still_fails_downstream(self):
        # Recomputing record 1's hash after an edit makes record 1 look
        # self-consistent -- but record 2's prev_hash now disagrees.
        records = chain(3).to_json()
        records[1]["reason"] = "edited"
        body = {k: v for k, v in records[1].items() if k != "hash"}
        records[1]["hash"] = record_hash(body)
        error = HealthLedger.verify_records(records)
        assert error is not None and "record 2" in error


class TestFileRoundTrip:
    def test_write_load_verify(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = chain(4)
        HealthLedger.write_records(ledger.to_json(), path)
        records = HealthLedger.load_records(path)
        assert records == ledger.to_json()
        assert HealthLedger.verify_records(records) is None
        assert verify_file(str(path)) is None

    def test_cli_ok_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        HealthLedger.write_records(chain(4).to_json(), path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "4 records" in out

    def test_cli_tampered_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        HealthLedger.write_records(chain(3).to_json(), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["reason"] = "edited"
        lines[1] = canonical(record)
        path.write_text("\n".join(lines) + "\n")
        assert main([str(path)]) == 1
        assert "TAMPERED" in capsys.readouterr().out

    def test_cli_unreadable_file_exit_nonzero(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.jsonl")]) == 1
        assert "unreadable" in capsys.readouterr().out

    def test_cli_no_args_exit_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
