//! Prometheus text-exposition rendering of the engine and server metrics.
//!
//! The engine block walks [`MetricsSnapshot::counters`], the iterator that
//! the engine's counter table generates, so every engine counter is
//! exported as `spectre_engine_<name>`: a `Sum` counter as a Prometheus
//! `counter`, the `Max` high-water mark as a `gauge`.
//!
//! [`MetricsSnapshot::counters`]: spectre_core::MetricsSnapshot::counters

use std::fmt::Write;
use std::sync::atomic::AtomicU64;

use spectre_core::Fold;

use crate::stats::{PublishedStats, ServerCounters};
use crate::ServerShared;

/// Name prefix of the engine's samples.
const ENGINE: &str = "spectre_engine_";
/// Name prefix of the server front-end's samples.
const SERVER: &str = "spectre_server_";

/// Writes one unlabelled sample of `{prefix}{name}` with its `# TYPE` line.
fn sample(out: &mut String, prefix: &str, name: &str, kind: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {prefix}{name} {kind}\n{prefix}{name} {value}");
}

/// Renders the full scrape body from the latest published engine stats
/// plus the live server counters.
pub(crate) fn render(shared: &ServerShared) -> String {
    render_body(&shared.stats.read(), &shared.counters)
}

/// Renders the scrape body from published engine stats and server counters.
fn render_body(stats: &PublishedStats, server: &ServerCounters) -> String {
    let mut out = String::with_capacity(4096);

    // Engine aggregate: every counter of the table, in table order.
    for (name, value, fold, _) in stats.snapshot.counters() {
        let kind = match fold {
            Fold::Sum => "counter",
            Fold::Max => "gauge",
        };
        sample(&mut out, ENGINE, name, kind, value);
    }
    sample(
        &mut out,
        ENGINE,
        "input_events",
        "counter",
        stats.input_events,
    );
    sample(&mut out, ENGINE, "complex_events", "counter", stats.outputs);
    sample(
        &mut out,
        SERVER,
        "finished",
        "gauge",
        u64::from(stats.finished),
    );

    // Per-query and per-tenant shares (the summable headline counters).
    let _ = writeln!(out, "# TYPE spectre_engine_query_events_processed counter");
    for (qid, tenant, m) in &stats.per_query {
        let _ = writeln!(
            out,
            "spectre_engine_query_events_processed{{query=\"{}\",tenant=\"{}\"}} {}",
            qid.0, tenant.0, m.events_processed
        );
    }
    let _ = writeln!(out, "# TYPE spectre_engine_query_outputs_emitted counter");
    for (qid, tenant, m) in &stats.per_query {
        let _ = writeln!(
            out,
            "spectre_engine_query_outputs_emitted{{query=\"{}\",tenant=\"{}\"}} {}",
            qid.0, tenant.0, m.outputs_emitted
        );
    }
    let _ = writeln!(out, "# TYPE spectre_engine_tenant_events_processed counter");
    for (tenant, m) in &stats.tenants {
        let _ = writeln!(
            out,
            "spectre_engine_tenant_events_processed{{tenant=\"{}\"}} {}",
            tenant.0, m.events_processed
        );
    }

    server_counters(&mut out, server);
    out
}

/// The server front-end counters, in export order.
fn server_counters(out: &mut String, c: &ServerCounters) {
    let rows: [(&str, &str, &AtomicU64); 17] = [
        ("connections_accepted", "counter", &c.accepted),
        ("connections_active", "gauge", &c.active),
        ("connections_closed_clean", "counter", &c.closed_clean),
        ("connections_closed_abnormal", "counter", &c.closed_abnormal),
        ("panics_caught", "counter", &c.panics_caught),
        ("frames", "counter", &c.frames),
        ("events", "counter", &c.events),
        ("watermarks", "counter", &c.watermarks),
        ("rate_limited_dropped", "counter", &c.rate_dropped),
        ("rate_limited_throttled", "counter", &c.rate_throttled),
        ("idle_closed", "counter", &c.idle_closed),
        ("decode_errors", "counter", &c.decode_errors),
        ("credits_granted", "counter", &c.credits_granted),
        ("credit_frames", "counter", &c.credit_frames),
        ("credit_starved_ticks", "counter", &c.credit_starved_ticks),
        ("seq_stale_dropped", "counter", &c.seq_stale_dropped),
        ("seq_gaps_skipped", "counter", &c.seq_gaps_skipped),
    ];
    for (name, kind, value) in rows {
        sample(
            out,
            "spectre_server_",
            name,
            kind,
            ServerCounters::get(value),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_core::{MetricsSnapshot, QueryId, TenantId};
    use std::sync::atomic::Ordering;

    #[test]
    fn scrape_body_is_pinned() {
        // Every engine counter holds its own value, so a row that renders
        // the wrong field, name or type changes the text. The snapshot is
        // spelled out here, independently of how `render_body` lists the
        // counters.
        let snapshot = MetricsSnapshot {
            events_processed: 101,
            events_suppressed: 102,
            cgs_created: 103,
            cgs_completed: 104,
            cgs_abandoned: 105,
            cgs_discarded: 106,
            versions_created: 107,
            versions_dropped: 108,
            versions_materialized: 109,
            lazy_versions_dropped: 110,
            predictor_refreshes: 111,
            predictor_refresh_nanos: 112,
            rollbacks: 113,
            sched_cycles: 114,
            max_tree_versions: 115,
            windows_retired: 116,
            idle_steps: 117,
            stalled_steps: 118,
            lane_windows: 119,
            worker_parks: 120,
            worker_unparks: 121,
            outputs_emitted: 122,
            store_windows_opened: 123,
            windows_skipped: 124,
            events_reordered: 125,
            late_events_dropped: 126,
            watermarks_advanced: 127,
        };
        let share = MetricsSnapshot {
            events_processed: 31,
            outputs_emitted: 32,
            ..Default::default()
        };
        let stats = PublishedStats {
            snapshot,
            per_query: vec![(QueryId(3), TenantId(4), share)],
            tenants: vec![(TenantId(4), share)],
            input_events: 500,
            outputs: 600,
            finished: true,
        };
        let body = render_body(&stats, &ServerCounters::default());
        assert_eq!(body, PINNED_SCRAPE, "scrape changed:\n{body}");
    }

    /// The scrape text of the stats above, byte for byte.
    const PINNED_SCRAPE: &str = r#"# TYPE spectre_engine_events_processed counter
spectre_engine_events_processed 101
# TYPE spectre_engine_events_suppressed counter
spectre_engine_events_suppressed 102
# TYPE spectre_engine_cgs_created counter
spectre_engine_cgs_created 103
# TYPE spectre_engine_cgs_completed counter
spectre_engine_cgs_completed 104
# TYPE spectre_engine_cgs_abandoned counter
spectre_engine_cgs_abandoned 105
# TYPE spectre_engine_cgs_discarded counter
spectre_engine_cgs_discarded 106
# TYPE spectre_engine_versions_created counter
spectre_engine_versions_created 107
# TYPE spectre_engine_versions_dropped counter
spectre_engine_versions_dropped 108
# TYPE spectre_engine_versions_materialized counter
spectre_engine_versions_materialized 109
# TYPE spectre_engine_lazy_versions_dropped counter
spectre_engine_lazy_versions_dropped 110
# TYPE spectre_engine_predictor_refreshes counter
spectre_engine_predictor_refreshes 111
# TYPE spectre_engine_predictor_refresh_nanos counter
spectre_engine_predictor_refresh_nanos 112
# TYPE spectre_engine_rollbacks counter
spectre_engine_rollbacks 113
# TYPE spectre_engine_sched_cycles counter
spectre_engine_sched_cycles 114
# TYPE spectre_engine_max_tree_versions gauge
spectre_engine_max_tree_versions 115
# TYPE spectre_engine_windows_retired counter
spectre_engine_windows_retired 116
# TYPE spectre_engine_idle_steps counter
spectre_engine_idle_steps 117
# TYPE spectre_engine_stalled_steps counter
spectre_engine_stalled_steps 118
# TYPE spectre_engine_lane_windows counter
spectre_engine_lane_windows 119
# TYPE spectre_engine_worker_parks counter
spectre_engine_worker_parks 120
# TYPE spectre_engine_worker_unparks counter
spectre_engine_worker_unparks 121
# TYPE spectre_engine_outputs_emitted counter
spectre_engine_outputs_emitted 122
# TYPE spectre_engine_store_windows_opened counter
spectre_engine_store_windows_opened 123
# TYPE spectre_engine_windows_skipped counter
spectre_engine_windows_skipped 124
# TYPE spectre_engine_events_reordered counter
spectre_engine_events_reordered 125
# TYPE spectre_engine_late_events_dropped counter
spectre_engine_late_events_dropped 126
# TYPE spectre_engine_watermarks_advanced counter
spectre_engine_watermarks_advanced 127
# TYPE spectre_engine_input_events counter
spectre_engine_input_events 500
# TYPE spectre_engine_complex_events counter
spectre_engine_complex_events 600
# TYPE spectre_server_finished gauge
spectre_server_finished 1
# TYPE spectre_engine_query_events_processed counter
spectre_engine_query_events_processed{query="3",tenant="4"} 31
# TYPE spectre_engine_query_outputs_emitted counter
spectre_engine_query_outputs_emitted{query="3",tenant="4"} 32
# TYPE spectre_engine_tenant_events_processed counter
spectre_engine_tenant_events_processed{tenant="4"} 31
# TYPE spectre_server_connections_accepted counter
spectre_server_connections_accepted 0
# TYPE spectre_server_connections_active gauge
spectre_server_connections_active 0
# TYPE spectre_server_connections_closed_clean counter
spectre_server_connections_closed_clean 0
# TYPE spectre_server_connections_closed_abnormal counter
spectre_server_connections_closed_abnormal 0
# TYPE spectre_server_panics_caught counter
spectre_server_panics_caught 0
# TYPE spectre_server_frames counter
spectre_server_frames 0
# TYPE spectre_server_events counter
spectre_server_events 0
# TYPE spectre_server_watermarks counter
spectre_server_watermarks 0
# TYPE spectre_server_rate_limited_dropped counter
spectre_server_rate_limited_dropped 0
# TYPE spectre_server_rate_limited_throttled counter
spectre_server_rate_limited_throttled 0
# TYPE spectre_server_idle_closed counter
spectre_server_idle_closed 0
# TYPE spectre_server_decode_errors counter
spectre_server_decode_errors 0
# TYPE spectre_server_credits_granted counter
spectre_server_credits_granted 0
# TYPE spectre_server_credit_frames counter
spectre_server_credit_frames 0
# TYPE spectre_server_credit_starved_ticks counter
spectre_server_credit_starved_ticks 0
# TYPE spectre_server_seq_stale_dropped counter
spectre_server_seq_stale_dropped 0
# TYPE spectre_server_seq_gaps_skipped counter
spectre_server_seq_gaps_skipped 0
"#;

    #[test]
    fn credit_counters_are_exposed() {
        let c = ServerCounters::default();
        c.credits_granted.store(8192, Ordering::Relaxed);
        c.credit_frames.store(3, Ordering::Relaxed);
        c.credit_starved_ticks.store(2, Ordering::Relaxed);
        let mut out = String::new();
        server_counters(&mut out, &c);
        for line in [
            "# TYPE spectre_server_credit_frames counter\nspectre_server_credit_frames 3\n",
            "# TYPE spectre_server_credit_starved_ticks counter\nspectre_server_credit_starved_ticks 2\n",
            "spectre_server_credits_granted 8192\n",
        ] {
            assert!(out.contains(line), "{line:?} missing from\n{out}");
        }
    }
}
