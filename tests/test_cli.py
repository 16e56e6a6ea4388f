import dataclasses
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from pandora_hedge.cli import main
from pandora_hedge.instance import Instance
from pandora_hedge.verify import run_checks

from helpers import golden_pair

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = str(CORPUS / "golden_two_item.json")
MATROID = str(CORPUS / "matroid_rank2.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", GOLDEN)
        assert code == 0
        assert "5/13" in out and "15/13" in out and "yes" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", GOLDEN, "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["items"][1]["p_hedge"] == "5/13"
        assert doc["items"][0]["never_inspect"] is True

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "version": "1",
            "items": [{"cost": 1, "dist": [{"value": 0, "prob": 0.4}, {"value": 1, "prob": 0.5}]}],
        }))
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert "items[0]" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2 and "nope.json" in err


class TestBounds:
    def test_single_item_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", GOLDEN, "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["bounds"]["E[min W^NOI]"] == "9/2"
        assert doc["bounds"]["E[min W^LH]"] == "125/26"
        assert doc["ratio"]["ok"] is True

    def test_combinatorial_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", MATROID, "--json")
        doc = json.loads(out)
        assert code == 0
        assert set(doc["bounds"]) == {"E[Z^OI]", "E[Z^NOI]", "E[Z^LH]"}

    def test_budget_exceeded_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "bounds", MATROID, "--budget", "2")
        assert code == 3 and "Monte Carlo" in err

    def test_budget_mc_fallback(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", MATROID, "--budget", "2", "--mc", "--trials", "4000", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert "E[Z^OI] stderr" in doc["bounds"]


class TestSimulate:
    def test_exact_golden(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", GOLDEN, "--policy", "local-hedging", "--exact", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["policy"]["exact_value"] == "125/26"

    def test_unknown_policy_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", GOLDEN, "--policy", "simplex")
        assert code == 2 and "unknown policy" in err

    def test_comb_policy_on_single_file_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", GOLDEN, "--policy", "frugal-oi")
        assert code == 2

    def test_mc_byte_identical(self, capsys):
        args = ("simulate", GOLDEN, "--policy", "local-hedging", "--trials", "2000", "--seed", "9", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_traces_printed(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", MATROID, "--policy", "frugal-oi", "--trials", "10", "--seed", "1", "--trace", "2"
        )
        assert code == 0 and "trace[1]" in out

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PANDORA_BUDGET", "1")
        code, _, err = run_cli(capsys, "simulate", GOLDEN, "--policy", "weitzman", "--exact")
        assert code == 3
        monkeypatch.setenv("PANDORA_BUDGET", "1000000")
        code, out, _ = run_cli(capsys, "simulate", GOLDEN, "--policy", "weitzman", "--exact")
        assert code == 0


class TestVerify:
    def test_corpus_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--corpus", str(CORPUS))
        assert code == 0 and "0 failure(s)" in out

    def test_single_file(self, capsys):
        code, out, _ = run_cli(capsys, "verify", GOLDEN, "--json")
        doc = json.loads(out)
        assert code == 0 and all(row["passed"] for row in doc["checks"])

    def test_random_instances(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--random", "6", "--seed", "3")
        assert code == 0

    def test_no_source_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2 and "needs a path" in err

    def test_empty_corpus_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--corpus", str(tmp_path))
        assert code == 2

    def test_budget_skips_are_not_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", GOLDEN, "--budget", "0")
        lines = out.splitlines()
        skipped = {line[12:56].strip() for line in lines if line.split()[0] == "skip"}
        assert code == 0 and lines[-1] == "1 instance(s), 9 checks, 0 failure(s), 4 skipped (budget)"
        assert skipped == {
            "obligatory-inspection equalities",
            "hedged policy equality and ratio bound",
            "nonobligatory sandwich",
            "selection argmin consistency",
        }
        code, out, _ = run_cli(capsys, "verify", GOLDEN)
        assert code == 0 and "skip" not in out and out.endswith("0 failure(s)\n")



class TestArgumentValidation:
    @pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
    def test_bad_budget_flag_exit_2(self, capsys, value):
        code, _, err = run_cli(capsys, "verify", GOLDEN, "--budget", value)
        assert code == 2 and "budget must be a nonnegative integer" in err and repr(value) in err

    @pytest.mark.parametrize("value", ["-1", "abc", "1e7"])
    def test_bad_env_budget_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PANDORA_BUDGET", value)
        code, out, err = run_cli(capsys, "verify", GOLDEN)
        assert code == 2 and out == ""
        assert "PANDORA_BUDGET" in err and repr(value) in err

    @pytest.mark.parametrize(
        "command", [("bounds", GOLDEN), ("simulate", GOLDEN, "--policy", "weitzman"), ("verify", GOLDEN)]
    )
    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70 + 5), "seven"])
    def test_seed_out_of_range_exit_2(self, capsys, command, seed):
        code, out, err = run_cli(capsys, *command, "--seed", seed)
        assert code == 2 and out == ""
        assert "seed must be an integer in [0, 2^64)" in err and repr(seed) in err

    @pytest.mark.parametrize(
        "command, flag",
        [(("simulate", GOLDEN, "--policy", "weitzman"), "--trace"), (("verify", GOLDEN), "--random")],
    )
    @pytest.mark.parametrize("value", ["-2", "abc", "1.5"])
    def test_bad_count_exit_2(self, capsys, command, flag, value):
        code, out, err = run_cli(capsys, *command, flag, value)
        assert code == 2 and out == ""
        assert f"{flag[2:]} must be a nonnegative integer" in err and repr(value) in err

    @pytest.mark.parametrize("command", [("bounds", GOLDEN, "--mc"), ("simulate", GOLDEN, "--policy", "weitzman")])
    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_bad_trials_exit_2(self, capsys, command, value):
        code, out, err = run_cli(capsys, *command, "--trials", value)
        assert code == 2 and out == ""
        assert "--trials: trials must be a positive integer" in err and repr(value) in err

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", GOLDEN, "--policy", "weitzman", "--trials", "50", "--seed", str(2**64 - 1), "--json"
        )
        assert code == 0 and json.loads(out)["policy"]["seed"] == 2**64 - 1


class TestFaultInjection:
    def test_corrupted_alpha_fails_named_checks(self):
        clean = golden_pair()
        corrupt = dataclasses.replace(clean.indices[1], alpha_local=F(101, 100), p_hedge=F(99, 100))
        instance = Instance(clean.items, [clean.indices[0], corrupt])
        results = run_checks(instance)
        failed = {r.name for r in results if not r.passed}
        assert "local approximation sweep" in failed or "hedging ratio bounds and optimality" in failed
        assert any(r.max_violation > 0 for r in results if not r.passed)

    def test_clean_instance_passes(self):
        results = run_checks(golden_pair())
        assert all(r.passed for r in results)
