import dataclasses
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from pandora_hedge import DiscreteDist, Item, alpha_of_p
from pandora_hedge.cli import main
from pandora_hedge.instance import Instance
from pandora_hedge.report import Report, ratio_block
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



def test_ratio_fail_line_closes_ratio_block():
    text = Report(bounds={"lower_bound": 1.0}, ratio=ratio_block(2.0, 1.0, 1.5)).to_text()
    assert text.splitlines()[-5:] == [
        "ratio:",
        "  certified_ceiling        1.5",
        "  lh_over_lower_bound      2",
        "  ok                       False",
        "  FAIL: ratio exceeds its certified ceiling",
    ]


class TestFloatRange:
    """A float instance whose totals would leave the float range is refused
    by name with exit 2, before any command runs: not a traceback, and not
    ``Infinity`` in a JSON report."""

    COSTLY = {"cost": 1e307, "dist": [{"value": 0.0, "prob": 0.5}, {"value": 1.7e308, "prob": 0.5}]}
    HIGH = {"cost": 0.5, "dist": [{"value": 1.6e308, "prob": 0.5}, {"value": 1.7e308, "prob": 0.5}]}
    REFUSED = "instance: the largest total (costs, largest values, distances) leaves the float range"

    def write(self, tmp_path, doc):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"version": "1", **doc}))
        return str(path)

    def test_matroid_bounds(self, capsys, tmp_path):
        doc = {"items": [self.COSTLY, self.HIGH, self.HIGH], "model": {"family": {"kind": "uniform_matroid", "k": 2}}}
        code, out, err = run_cli(capsys, "bounds", self.write(tmp_path, doc), "--json")
        assert code == 2 and out == "" and self.REFUSED in err

    def test_weitzman_monte_carlo(self, capsys, tmp_path):
        path = self.write(tmp_path, {"items": [self.COSTLY, self.HIGH]})
        code, out, err = run_cli(capsys, "simulate", path, "--policy", "weitzman", "--trials", "50", "--json")
        assert code == 2 and out == "" and self.REFUSED in err


class TestMonteCarloOverflow:
    """A float instance that parses but whose Monte Carlo mean or variance
    overflows in float64 still reports finite JSON numbers."""

    WIDE = {"cost": 1.0, "dist": [{"value": 0.0, "prob": 0.5}, {"value": 1e200, "prob": 0.5}]}
    HIGH = {"cost": 1.0, "dist": [{"value": 1e307, "prob": 0.5}, {"value": 1.5e307, "prob": 0.5}]}

    def simulate(self, capsys, tmp_path, item):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"version": "1", "items": [item]}))
        code, out, _ = run_cli(capsys, "simulate", str(path), "--policy", "weitzman", "--trials", "50", "--json")
        assert code == 0
        return json.loads(out, parse_constant=self.reject)["policy"]

    @staticmethod
    def reject(constant):
        raise AssertionError(f"non-finite {constant} in JSON output")

    def test_variance_overflow(self, capsys, tmp_path):
        policy = self.simulate(capsys, tmp_path, self.WIDE)
        assert 0 < policy["mean"] < 1e200 and 0 < policy["stderr"] < 1e200

    def test_mean_overflow(self, capsys, tmp_path):
        policy = self.simulate(capsys, tmp_path, self.HIGH)
        assert 1e307 <= policy["mean"] <= 1.5e307 + 1 and 0 < policy["stderr"] < 1e307


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

    @staticmethod
    def ratio_check(instance):
        (result,) = [r for r in run_checks(instance) if r.name == "hedging ratio bounds and optimality"]
        return result

    def test_hedge_off_the_crossing_fails_ratio_check(self):
        # alpha_local is the true ratio at the moved p, so only the argmin is wrong;
        # a sweep over p in steps of 1/100 passes it
        clean = golden_pair()
        p = clean.indices[1].p_hedge + F(1, 10**6)
        moved = dataclasses.replace(clean.indices[1], p_hedge=p, alpha_local=alpha_of_p(clean.items[1], p))
        result = self.ratio_check(Instance(clean.items, [clean.indices[0], moved]))
        # A falls at slope 1/4 and B rises at 2/5, so they part by 13/20 of the step
        assert not result.passed and result.max_violation == float(F(13, 20) / 10**6)

    def test_hedged_never_inspect_item_reports_violation(self):
        clean = golden_pair()
        hedged = dataclasses.replace(clean.indices[0], p_hedge=F(1, 10))
        result = self.ratio_check(Instance(clean.items, [hedged, clean.indices[1]]))
        assert not result.passed and result.max_violation == 0.1

    def test_zero_reservation_price_off_one_fails_without_raising(self):
        item = Item(0, F(0), DiscreteDist(((F(0), F(1, 2)), (F(10), F(1, 2)))))
        assert item.indices.u_rsv == 0 and item.indices.p_hedge == 1
        corrupt = dataclasses.replace(item.indices, p_hedge=F(1, 2))
        result = self.ratio_check(Instance([item], [corrupt]))
        assert not result.passed and result.max_violation == 0.5

    def test_record_calling_a_never_inspect_item_hedged_fails_ratio_check(self):
        # the check and hedging_losses read the one record: it must fail the check, not raise
        clean = golden_pair()
        hedged = dataclasses.replace(clean.indices[0], u_bkp=F(6), never_inspect=False)
        assert clean.items[0].indices.never_inspect
        result = self.ratio_check(Instance(clean.items, [hedged, clean.indices[1]]))
        assert not result.passed

    def test_clean_instance_passes(self):
        results = run_checks(golden_pair())
        assert all(r.passed for r in results)
