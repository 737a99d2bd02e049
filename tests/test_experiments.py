"""Tests for the experiment drivers (smoke scale) and shared infrastructure."""

import math

import numpy as np
import pytest

from repro.experiments import BENCH, PAPER, SMOKE, ExperimentScale
from repro.experiments.common import average_over_runs, format_table, get_scale
from repro.experiments import (
    fig4,
    search_comparison,
    table1_known_attacks,
    table4,
    table10_fig5,
)
from repro.experiments.table4 import table4_configs
from repro.experiments.table5 import make_env_factory as table5_factory
from repro.experiments.table6 import make_env_factory as table6_factory
from repro.experiments.table7 import make_env_factory as table7_factory
from repro.experiments.table8_fig3 import covert_env_config, make_covert_env_factory
from repro.experiments.table3 import make_env_factory as table3_factory
from repro.hardware.machines import get_machine

from campaign_helpers import cell_rows


class TestScales:
    def test_presets_are_registered(self):
        assert get_scale("smoke") is SMOKE
        assert get_scale("bench") is BENCH
        assert get_scale("paper") is PAPER
        assert get_scale(SMOKE) is SMOKE

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_ppo_config_from_scale(self):
        config = BENCH.ppo_config(horizon=32)
        assert config.horizon == 32
        assert config.num_envs == BENCH.num_envs

    def test_with_overrides(self):
        scale = SMOKE.with_overrides(max_updates=3)
        assert scale.max_updates == 3
        assert scale.name == "smoke"

    def test_average_over_runs(self):
        assert average_over_runs([1.0, 3.0]) == 2.0
        assert average_over_runs([None, 4.0]) == 4.0
        assert math.isnan(average_over_runs([]))

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 0.5}], ["a", "b"], title="T")
        assert "T" in text and "0.500" in text


class TestFastDrivers:
    def test_table1_all_attacks_reach_full_accuracy(self):
        rows = cell_rows("table1")
        assert len(rows) == 4
        assert all(row["accuracy"] == 1.0 for row in rows)
        assert table1_known_attacks.format_results(rows)

    def test_fig4_shape(self):
        rows = cell_rows("fig4", num_ways=8, message_bits=128)
        by_name = {row["channel"]: row for row in rows}
        assert by_name["stealthy_streamline"]["bypasses_miss_detection"]
        assert not by_name["streamline"]["bypasses_miss_detection"]
        assert (by_name["stealthy_streamline"]["bits_per_access"]
                > by_name["lru_address_based"]["bits_per_access"])
        assert fig4.format_results(rows)

    def test_fig4_walkthrough_decodes_all_symbols(self):
        rows = fig4.cache_state_walkthrough(num_ways=8)
        assert len(rows) == 4
        assert all(row["correct"] for row in rows)

    def test_table10_matches_paper_shape(self):
        rows = cell_rows("table10", message_bits=1024)
        assert len(rows) == 4
        for row in rows:
            assert row["ss_bit_rate_mbps"] > row["lru_bit_rate_mbps"]
        eight_way = [row for row in rows if "8way" in row["l1d_config"]]
        twelve_way = [row for row in rows if "12way" in row["l1d_config"]]
        assert max(r["improvement"] for r in twelve_way) > max(r["improvement"] for r in eight_way)
        assert table10_fig5.format_results(rows)

    def test_figure5_curves_structure(self):
        curves = table10_fig5.figure5_curves(message_bits=512, trials=2)
        assert len(curves) == 4
        for machine_curves in curves.values():
            assert set(machine_curves) == {"lru_address_based", "stealthy_streamline"}
            for points in machine_curves.values():
                assert all("bit_rate_mbps" in point and "error_rate_mean" in point
                           for point in points)

    def test_search_comparison(self):
        rows = cell_rows("search")
        analytical = [row for row in rows if row["kind"] == "analytical"]
        assert analytical[0]["brute_force_steps"] < analytical[-1]["brute_force_steps"]
        assert search_comparison.format_results(rows)

    def test_table4_textbook_feasibility_for_all_configs(self):
        rows = cell_rows("table4")
        assert len(rows) == 17
        # Every configuration leaks information to the textbook attack (well
        # above chance); prefetchers and the two-level hierarchy degrade the
        # for-loop attack, which is exactly why the paper's RL agent finds
        # adapted sequences for those configurations.
        assert all(row["textbook_accuracy"] >= 0.5 for row in rows)
        plain = [row for row in rows
                 if "prefetcher" not in row["description"] and "2-level" not in row["description"]]
        assert all(row["textbook_accuracy"] > 0.9 for row in plain)
        assert not any(row["rl_trained"] for row in rows)
        assert table4.format_results(rows)

    def test_table4_config_catalogue(self):
        configs = table4_configs()
        assert [config.number for config in configs] == list(range(1, 18))
        hierarchy_configs = [config for config in configs if config.build().hierarchy]
        assert len(hierarchy_configs) == 2


class TestEnvFactories:
    def test_table5_factory_builds_policy_specific_envs(self):
        env = table5_factory("rrip")(0)
        assert env.config.cache.rep_policy == "rrip"
        assert env.config.victim_no_access_enable

    def test_table6_factory_sets_step_reward(self):
        env = table6_factory(-0.005)(0)
        assert env.config.rewards.step_reward == -0.005
        assert env.config.cache.rep_policy == "random"

    def test_table7_factory_locks_victim_line(self):
        env = table7_factory(pl_cache=True)(0)
        env.reset(secret=0)
        backend_cache = env.backend.cache
        assert backend_cache.contains(0)
        way = backend_cache.lookup(0)
        assert backend_cache.sets[0][way].locked

    def test_table7_baseline_has_no_lock(self):
        env = table7_factory(pl_cache=False)(0)
        env.reset(secret=0)
        assert not env.backend.cache.config.lockable

    def test_table3_factory_uses_blackbox_backend(self):
        env = table3_factory(get_machine("Core i7-6700:L2"), attacker_addresses=5)(0)
        assert env.action_space.n == 5 + 1 + 2
        assert env.machine.name == "Core i7-6700"

    def test_covert_env_factory(self):
        env = make_covert_env_factory(2, 32)(0)
        assert env.episode_length == 32
        config = covert_env_config(2, 32)
        assert config.victim_addresses == [0, 1]
        assert config.attacker_addresses == [2, 3]


class TestSmokeScaleRLDrivers:
    """At smoke scale these just exercise the full code path, not convergence."""

    def test_table5_smoke(self):
        from repro.experiments import table5
        rows = [table5.run_cell({"policy": "lru"}, SMOKE)]
        assert len(rows) == 1
        assert rows[0]["replacement_policy"] == "lru"
        assert rows[0]["epochs_to_converge"] > 0
        assert table5.format_results(rows)

    def test_table6_smoke(self):
        from repro.experiments import table6
        rows = [table6.run_cell({"step_reward": -0.01}, SMOKE)]
        assert len(rows) == 1
        assert 0.0 <= rows[0]["end_accuracy"] <= 1.0
        assert table6.format_results(rows)

    def test_table7_smoke(self):
        from repro.experiments import table7
        rows = cell_rows("table7", num_ways=2)
        assert {row["cache"] for row in rows} == {"PL Cache", "Baseline"}
        assert table7.format_results(rows)
