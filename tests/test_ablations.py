"""Scaled-down runs of the ablation experiments (the registered
``ablation_*`` experiments run them at full scale)."""


from repro.bench import (
    experiment_ablation_adaptive,
    experiment_ablation_delta,
    experiment_ablation_sequential,
)


class TestSequentialAblation:
    def test_small_run(self):
        result = experiment_ablation_sequential(
            runs=120, samples_per_run=800, delta=0.4
        )
        # The schedule must respect its budget even at small scale.
        assert result.data["scheduled_rate"] <= 0.4
        assert result.data["fixed_rate"] >= result.data["scheduled_rate"]

    def test_reports_three_disciplines(self):
        result = experiment_ablation_sequential(
            runs=40, samples_per_run=300
        )
        table = result.tables[0]
        assert "tested once at the end" in table
        assert "re-tested every sample" in table
        assert "sequential schedule" in table


class TestAdaptiveAblation:
    def test_passes(self):
        result = experiment_ablation_adaptive(quota=20, context_budget=500)
        assert result.all_passed
        assert result.data["fixed_dg_samples"] == 0
        assert result.data["adaptive_dg_samples"] >= 20


class TestDeltaAblation:
    def test_full_information_dominates(self):
        result = experiment_ablation_delta(instances=8, contexts=600)
        assert result.data["full_climbs"] >= result.data["pib_climbs"]
        assert result.data["full_norm"] <= result.data["pib_norm"] + 1e-9
