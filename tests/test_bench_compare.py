"""Tests for the benchmark regression gate (`repro bench compare`).

Exercises the payload diff (:mod:`repro.observability.benchdiff`) and
the CLI's exit-code contract — 0 clean, 1 on regressions beyond
tolerance, 2 on unreadable input — which CI's ``bench-smoke`` job
depends on (see ``.github/workflows/ci.yml``).
"""

import json

import pytest

from repro.__main__ import main
from repro.observability.benchdiff import (
    collect_speedups,
    compare_payloads,
    render_comparison,
)


def payload(**speedups):
    """Minimal BENCH_*.json-shaped payload (benchmarks/conftest.py)."""
    return {"machine": {}, "records": {}, "speedups": speedups}


def kernel_payload(record, aggregate, **kernels):
    """Nested per-kernel payload: a record scalar plus a per-kernel
    speedup map."""
    return {
        "machine": {},
        "records": {record: {
            "speedup": aggregate,
            "turbo_fragment_seconds": 1.0,
            "macro_fragment_seconds": 1.0 / aggregate,
            "kernels": {name: {"speedup": value,
                               "turbo_seconds": 1.0,
                               "macro_seconds": 1.0 / value}
                        for name, value in kernels.items()},
        }},
        "speedups": {record: aggregate},
    }


class TestComparePayloads:
    def test_self_comparison_is_clean(self):
        p = payload(engine=2.5, turbo=2.2)
        cmp = compare_payloads(p, p)
        assert cmp.ok
        assert [d.status for d in cmp.deltas] == ["ok", "ok"]

    def test_slowdown_beyond_tolerance_regresses(self):
        cmp = compare_payloads(payload(engine=3.0),
                               payload(engine=2.3),  # -23%
                               tolerance=0.20)
        assert not cmp.ok
        assert cmp.deltas[0].status == "regression"

    def test_slowdown_within_tolerance_passes(self):
        cmp = compare_payloads(payload(engine=3.0), payload(engine=2.8),
                               tolerance=0.10)
        assert cmp.ok and cmp.deltas[0].status == "ok"

    def test_improvement_is_flagged_but_ok(self):
        cmp = compare_payloads(payload(engine=2.0), payload(engine=3.0))
        assert cmp.ok and cmp.deltas[0].status == "improved"

    def test_missing_record_is_a_regression(self):
        cmp = compare_payloads(payload(engine=2.0, turbo=2.0),
                               payload(engine=2.0))
        assert not cmp.ok
        assert [d.name for d in cmp.regressions] == ["turbo"]

    def test_added_record_is_informational(self):
        cmp = compare_payloads(payload(engine=2.0),
                               payload(engine=2.0, macro=2.2))
        assert cmp.ok
        assert {d.status for d in cmp.deltas} == {"ok", "added"}

    def test_rejects_malformed_payloads(self):
        with pytest.raises(ValueError, match="speedups"):
            compare_payloads({"records": {}}, payload(engine=1.0))
        with pytest.raises(ValueError, match="not numeric"):
            compare_payloads(payload(engine=1.0),
                             {"speedups": {"engine": "fast"}})
        with pytest.raises(ValueError, match="tolerance"):
            compare_payloads(payload(), payload(), tolerance=-1)

    def test_nested_kernel_speedups_are_collected(self):
        p = kernel_payload("macro_speedup", 2.2, FIR=3.1, LU=1.8)
        flat = collect_speedups(p)
        assert flat == {"macro_speedup": 2.2,
                        "macro_speedup/FIR": 3.1,
                        "macro_speedup/LU": 1.8}

    def test_nested_kernel_regression_is_caught(self):
        # The aggregate holds steady while one kernel tanks — the
        # failure mode a flat-speedups-only gate waves through.
        old = kernel_payload("macro_speedup", 2.2, FIR=3.1, LU=1.8)
        new = kernel_payload("macro_speedup", 2.2, FIR=3.1, LU=1.0)
        cmp = compare_payloads(old, new, tolerance=0.10)
        assert not cmp.ok
        assert [d.name for d in cmp.regressions] == ["macro_speedup/LU"]

    def test_removed_kernel_is_reported_not_skipped(self):
        old = kernel_payload("macro_speedup", 2.2, FIR=3.1, LU=1.8)
        new = kernel_payload("macro_speedup", 2.2, FIR=3.1)
        cmp = compare_payloads(old, new)
        assert not cmp.ok
        assert [(d.name, d.status) for d in cmp.regressions] == \
            [("macro_speedup/LU", "missing")]

    def test_added_kernel_is_informational(self):
        old = kernel_payload("macro_speedup", 2.2, FIR=3.1)
        new = kernel_payload("macro_speedup", 2.2, FIR=3.1, FFT=1.9)
        cmp = compare_payloads(old, new)
        assert cmp.ok
        added = [d for d in cmp.deltas if d.status == "added"]
        assert [d.name for d in added] == ["macro_speedup/FFT"]

    def test_records_without_speedups_map_still_compare(self):
        # BENCH payloads whose only speedups live inside records.
        p = kernel_payload("macro_speedup", 2.2, FIR=3.1)
        del p["speedups"]
        assert compare_payloads(p, p).ok

    def test_render_mentions_verdict_and_records(self):
        good = render_comparison(compare_payloads(payload(engine=2.0),
                                                  payload(engine=2.0)))
        assert "OK" in good and "engine" in good
        bad = render_comparison(compare_payloads(payload(engine=2.0),
                                                 payload(engine=1.0)))
        assert "FAIL" in bad and "engine" in bad


class TestCli:
    """`repro bench compare` exit codes, the CI gate's contract."""

    def _write(self, tmp_path, name, **speedups):
        path = tmp_path / name
        path.write_text(json.dumps(payload(**speedups)), encoding="utf-8")
        return str(path)

    def test_self_comparison_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "old.json", engine=2.48)
        assert main(["bench", "compare", base, base]) == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_slowdown_exits_nonzero(self, tmp_path, capsys):
        # The acceptance scenario: a synthetic >= 20% slowdown must fail
        # the gate even at a loose tolerance.
        base = self._write(tmp_path, "old.json", engine=2.50)
        slow = self._write(tmp_path, "new.json", engine=2.50 * 0.78)
        assert main(["bench", "compare", base, slow,
                     "--tolerance", "20"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_flag_loosens_the_gate(self, tmp_path):
        base = self._write(tmp_path, "old.json", engine=2.50)
        slow = self._write(tmp_path, "new.json", engine=2.00)  # -20%
        assert main(["bench", "compare", base, slow,
                     "--tolerance", "30"]) == 0
        assert main(["bench", "compare", base, slow,
                     "--tolerance", "10"]) == 1

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        base = self._write(tmp_path, "old.json", engine=2.0)
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "compare", base, missing]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json", encoding="utf-8")
        assert main(["bench", "compare", base, str(garbage)]) == 2
        capsys.readouterr()

    def test_json_output_round_trips(self, tmp_path, capsys):
        base = self._write(tmp_path, "old.json", engine=2.0, turbo=2.5)
        assert main(["bench", "compare", base, base, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert {r["name"] for r in report["records"]} == {"engine", "turbo"}
