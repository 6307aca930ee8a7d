"""The metrics registry and its Prometheus text exposition.

The exposition assertions follow the text format spec (version 0.0.4):
``# HELP`` / ``# TYPE`` comment lines, label-value escaping, and
cumulative histogram buckets closed by ``+Inf`` with matching
``_sum`` / ``_count`` samples.
"""

import json
import re

import pytest

from repro.obs.exporters import metrics_json, metrics_snapshot, prometheus_text
from repro.obs.metrics import DEFAULT_BUCKETS, Family, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestRegistry:
    def test_families_are_idempotent(self, registry):
        a = registry.counter("repro_jobs_total", "jobs")
        b = registry.counter("repro_jobs_total", "jobs")
        assert a is b

    def test_kind_clash_rejected(self, registry):
        registry.counter("repro_x")
        with pytest.raises(ValueError):
            registry.gauge("repro_x")

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Family("0bad", "counter")
        with pytest.raises(ValueError):
            Family("ok", "counter", labelnames=("bad-label",))
        with pytest.raises(ValueError):
            Family("ok", "nonsense")

    def test_counter_cannot_decrease(self, registry):
        counter = registry.counter("repro_c")
        with pytest.raises(ValueError):
            counter.inc(-1)
        with pytest.raises(ValueError):
            counter.dec()

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("repro_g")
        gauge.inc(3)
        gauge.dec(1)
        gauge.set(7.5)
        assert gauge.children()[0].value == 7.5

    def test_labels_address_distinct_children(self, registry):
        counter = registry.counter("repro_l", labelnames=("outcome",))
        counter.labels(outcome="hit").inc(2)
        counter.labels(outcome="miss").inc()
        values = {c.key: c.value for c in counter.children()}
        assert values[(("outcome", "hit"),)] == 2
        assert values[(("outcome", "miss"),)] == 1

    def test_wrong_label_set_rejected(self, registry):
        counter = registry.counter("repro_l", labelnames=("outcome",))
        with pytest.raises(ValueError):
            counter.labels(result="hit")
        with pytest.raises(ValueError):
            counter.inc()  # labelled family has no default child

    def test_default_buckets_are_log_scale_and_increasing(self):
        assert DEFAULT_BUCKETS[0] == 0.001
        assert all(
            b2 == pytest.approx(2 * b1)
            for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        )

    def test_non_increasing_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("repro_h", buckets=(1.0, 1.0, 2.0))

    def test_collector_shadows_native_family(self, registry):
        registry.counter("repro_shadow").inc(1)
        registry.register_collector(
            lambda: [Family.constant("repro_shadow", "counter", "pulled", [({}, 9)])]
        )
        families = {f.name: f for f in registry.collect()}
        assert families["repro_shadow"].children()[0].value == 9


class TestPrometheusText:
    def test_help_and_type_lines(self, registry):
        registry.counter("repro_jobs_total", "Jobs executed").inc()
        text = prometheus_text(registry)
        assert "# HELP repro_jobs_total Jobs executed\n" in text
        assert "# TYPE repro_jobs_total counter\n" in text
        assert "repro_jobs_total 1\n" in text

    def test_help_escaping(self, registry):
        registry.gauge("repro_g", "line one\nback\\slash")
        text = prometheus_text(registry)
        assert "# HELP repro_g line one\\nback\\\\slash" in text

    def test_label_value_escaping(self, registry):
        counter = registry.counter("repro_l", labelnames=("path",))
        counter.labels(path='a"b\\c\nd').inc()
        text = prometheus_text(registry)
        assert 'repro_l{path="a\\"b\\\\c\\nd"} 1' in text

    def test_histogram_buckets_cumulative_and_closed(self, registry):
        histo = registry.histogram("repro_h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.7, 5.0, 99.0):  # 99 lands only in +Inf
            histo.observe(value)
        text = prometheus_text(registry)
        counts = [
            int(m.group(2))
            for m in re.finditer(r'repro_h_bucket\{le="([^"]+)"\} (\d+)', text)
        ]
        assert counts == [1, 3, 4, 5]  # cumulative, monotone, +Inf == count
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert 'repro_h_bucket{le="+Inf"} 5' in text
        assert "repro_h_count 5" in text
        assert "repro_h_sum 105.25" in text

    def test_integral_values_render_without_exponent(self, registry):
        registry.counter("repro_c").inc(12345)
        assert "repro_c 12345\n" in prometheus_text(registry)

    def test_families_sorted_and_merged_across_registries(self, registry):
        other = MetricsRegistry()
        registry.counter("repro_b").inc()
        other.counter("repro_a").inc()
        text = prometheus_text(registry, other)
        assert text.index("repro_a") < text.index("repro_b")

    def test_later_registry_shadows_on_name_clash(self, registry):
        other = MetricsRegistry()
        registry.counter("repro_same").inc(1)
        other.counter("repro_same").inc(5)
        assert "repro_same 5\n" in prometheus_text(registry, other)

    def test_empty_registry_renders_empty(self, registry):
        assert prometheus_text(registry) == ""


class TestJsonSnapshot:
    def test_snapshot_shape(self, registry):
        registry.counter("repro_c", "help", labelnames=("k",)).labels(k="v").inc(2)
        registry.histogram("repro_h", buckets=(1.0,)).observe(0.5)
        snap = metrics_snapshot(registry)
        assert snap["repro_c"]["kind"] == "counter"
        assert snap["repro_c"]["samples"][0] == {"labels": {"k": "v"}, "value": 2.0}
        histo = snap["repro_h"]["samples"][0]
        assert histo["buckets"] == [{"le": 1.0, "count": 1}]
        assert histo["count"] == 1

    def test_json_round_trips(self, registry):
        registry.gauge("repro_g").set(4)
        assert json.loads(metrics_json(registry))["repro_g"]["samples"][0]["value"] == 4


class TestHistogramQuantile:
    def test_no_observations_is_none(self, registry):
        histo = registry.histogram("repro_q")._default()
        assert histo.quantile(0.5) is None

    def test_interpolates_inside_one_bucket(self, registry):
        # Buckets (0,1], (1,2]: four observations in the second bucket
        # put every quantile on the interpolated line through (1, 2),
        # clamped to the observed [1.1, 1.9].
        histo = registry.histogram("repro_q", buckets=(1.0, 2.0))._default()
        for value in (1.1, 1.4, 1.6, 1.9):
            histo.observe(value)
        assert histo.quantile(0.25) == pytest.approx(1.25)
        assert histo.quantile(0.5) == pytest.approx(1.5)
        assert histo.quantile(1.0) == pytest.approx(1.9)

    def test_rank_walks_across_buckets(self, registry):
        histo = registry.histogram("repro_q", buckets=(1.0, 2.0, 4.0))._default()
        for value in (0.5, 0.5, 1.5, 3.0):
            histo.observe(value)
        # Half the mass sits at or below the first bucket's bound.
        assert histo.quantile(0.5) == pytest.approx(1.0)
        assert histo.quantile(0.75) == pytest.approx(2.0)
        assert 2.0 < histo.quantile(0.9) <= 4.0

    def test_overflow_clamps_to_last_bound(self, registry):
        histo = registry.histogram("repro_q", buckets=(1.0,))._default()
        histo.observe(0.5)
        histo.observe(100.0)  # beyond every bound: only +Inf sees it
        assert histo.quantile(0.99) == 1.0

    def test_estimate_never_leaves_the_observed_range(self, registry):
        # The shape behind a p99 of 2.01 s against a max of 1.47 s: the
        # tail sits low in the wide (1.024, 2.048] bucket, and linear
        # interpolation put the top ranks near the bucket's upper bound.
        histo = registry.histogram("repro_q")._default()
        values = [0.4] * 1950 + [1.1 + 0.0075 * k for k in range(50)]
        for value in values:
            histo.observe(value)
        assert max(values) == pytest.approx(1.4675)
        for q in (0.5, 0.9, 0.99, 0.999, 1.0):
            assert min(values) <= histo.quantile(q) <= max(values)
        assert histo.quantile(1.0) == max(values)

    def test_single_value_is_every_quantile(self, registry):
        histo = registry.histogram("repro_q")._default()
        for _ in range(3):
            histo.observe(0.3)
        assert histo.quantile(0.01) == histo.quantile(0.99) == 0.3

    def test_estimate_tracks_exact_percentile_on_default_buckets(self, registry):
        histo = registry.histogram("repro_q")._default()
        values = [0.001 * (1.13 ** n) for n in range(80)]
        for value in values:
            histo.observe(value)
        exact = sorted(values)[int(0.5 * len(values))]
        estimate = histo.quantile(0.5)
        # Log-scale buckets bound the relative error by the bucket ratio.
        assert exact / 2 <= estimate <= exact * 2

    def test_invalid_quantile_rejected(self, registry):
        histo = registry.histogram("repro_q")._default()
        with pytest.raises(ValueError):
            histo.quantile(0.0)
        with pytest.raises(ValueError):
            histo.quantile(1.5)

    def test_non_histogram_has_no_quantile(self, registry):
        counter = registry.counter("repro_q_c")._default()
        with pytest.raises((AssertionError, TypeError)):
            counter.quantile(0.5)
