//! Prometheus text-exposition rendering of the engine and server metrics.
//!
//! The engine block destructures [`MetricsSnapshot`] exhaustively, so
//! adding a counter to the engine without exporting it here is a compile
//! error, not a silently incomplete scrape.

use std::fmt::Write;

use spectre_core::MetricsSnapshot;

use crate::stats::ServerCounters;
use crate::ServerShared;

fn counter(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
}

fn gauge(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
}

/// Renders the full scrape body from the latest published engine stats
/// plus the live server counters.
pub(crate) fn render(shared: &ServerShared) -> String {
    let stats = shared.stats.read();
    let mut out = String::with_capacity(4096);

    // Engine aggregate: every MetricsSnapshot field, spelled out once.
    let MetricsSnapshot {
        events_processed,
        events_suppressed,
        cgs_created,
        cgs_completed,
        cgs_abandoned,
        cgs_discarded,
        versions_created,
        versions_dropped,
        versions_materialized,
        lazy_versions_dropped,
        predictor_refreshes,
        predictor_refresh_nanos,
        rollbacks,
        sched_cycles,
        max_tree_versions,
        windows_retired,
        idle_steps,
        stalled_steps,
        lane_windows,
        worker_parks,
        worker_unparks,
        outputs_emitted,
        store_windows_opened,
        windows_skipped,
        events_reordered,
        late_events_dropped,
        watermarks_advanced,
    } = stats.snapshot;
    counter(
        &mut out,
        "spectre_engine_events_processed",
        events_processed,
    );
    counter(
        &mut out,
        "spectre_engine_events_suppressed",
        events_suppressed,
    );
    counter(&mut out, "spectre_engine_cgs_created", cgs_created);
    counter(&mut out, "spectre_engine_cgs_completed", cgs_completed);
    counter(&mut out, "spectre_engine_cgs_abandoned", cgs_abandoned);
    counter(&mut out, "spectre_engine_cgs_discarded", cgs_discarded);
    counter(
        &mut out,
        "spectre_engine_versions_created",
        versions_created,
    );
    counter(
        &mut out,
        "spectre_engine_versions_dropped",
        versions_dropped,
    );
    counter(
        &mut out,
        "spectre_engine_versions_materialized",
        versions_materialized,
    );
    counter(
        &mut out,
        "spectre_engine_lazy_versions_dropped",
        lazy_versions_dropped,
    );
    counter(
        &mut out,
        "spectre_engine_predictor_refreshes",
        predictor_refreshes,
    );
    counter(
        &mut out,
        "spectre_engine_predictor_refresh_nanos",
        predictor_refresh_nanos,
    );
    counter(&mut out, "spectre_engine_rollbacks", rollbacks);
    counter(&mut out, "spectre_engine_sched_cycles", sched_cycles);
    gauge(
        &mut out,
        "spectre_engine_max_tree_versions",
        max_tree_versions,
    );
    counter(&mut out, "spectre_engine_windows_retired", windows_retired);
    counter(&mut out, "spectre_engine_idle_steps", idle_steps);
    counter(&mut out, "spectre_engine_stalled_steps", stalled_steps);
    counter(&mut out, "spectre_engine_lane_windows", lane_windows);
    counter(&mut out, "spectre_engine_worker_parks", worker_parks);
    counter(&mut out, "spectre_engine_worker_unparks", worker_unparks);
    counter(&mut out, "spectre_engine_outputs_emitted", outputs_emitted);
    counter(
        &mut out,
        "spectre_engine_store_windows_opened",
        store_windows_opened,
    );
    counter(&mut out, "spectre_engine_windows_skipped", windows_skipped);
    counter(
        &mut out,
        "spectre_engine_events_reordered",
        events_reordered,
    );
    counter(
        &mut out,
        "spectre_engine_late_events_dropped",
        late_events_dropped,
    );
    counter(
        &mut out,
        "spectre_engine_watermarks_advanced",
        watermarks_advanced,
    );
    counter(&mut out, "spectre_engine_input_events", stats.input_events);
    counter(&mut out, "spectre_engine_complex_events", stats.outputs);
    gauge(
        &mut out,
        "spectre_server_finished",
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

    server_counters(&mut out, &shared.counters);
    out
}

/// The server front-end counters.
fn server_counters(out: &mut String, c: &ServerCounters) {
    counter(
        out,
        "spectre_server_connections_accepted",
        ServerCounters::get(&c.accepted),
    );
    gauge(
        out,
        "spectre_server_connections_active",
        ServerCounters::get(&c.active),
    );
    counter(
        out,
        "spectre_server_connections_closed_clean",
        ServerCounters::get(&c.closed_clean),
    );
    counter(
        out,
        "spectre_server_connections_closed_abnormal",
        ServerCounters::get(&c.closed_abnormal),
    );
    counter(
        out,
        "spectre_server_panics_caught",
        ServerCounters::get(&c.panics_caught),
    );
    counter(out, "spectre_server_frames", ServerCounters::get(&c.frames));
    counter(out, "spectre_server_events", ServerCounters::get(&c.events));
    counter(
        out,
        "spectre_server_watermarks",
        ServerCounters::get(&c.watermarks),
    );
    counter(
        out,
        "spectre_server_rate_limited_dropped",
        ServerCounters::get(&c.rate_dropped),
    );
    counter(
        out,
        "spectre_server_rate_limited_throttled",
        ServerCounters::get(&c.rate_throttled),
    );
    counter(
        out,
        "spectre_server_idle_closed",
        ServerCounters::get(&c.idle_closed),
    );
    counter(
        out,
        "spectre_server_decode_errors",
        ServerCounters::get(&c.decode_errors),
    );
    counter(
        out,
        "spectre_server_credits_granted",
        ServerCounters::get(&c.credits_granted),
    );
    counter(
        out,
        "spectre_server_credit_frames",
        ServerCounters::get(&c.credit_frames),
    );
    counter(
        out,
        "spectre_server_credit_starved_ticks",
        ServerCounters::get(&c.credit_starved_ticks),
    );
    counter(
        out,
        "spectre_server_seq_stale_dropped",
        ServerCounters::get(&c.seq_stale_dropped),
    );
    counter(
        out,
        "spectre_server_seq_gaps_skipped",
        ServerCounters::get(&c.seq_gaps_skipped),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

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
