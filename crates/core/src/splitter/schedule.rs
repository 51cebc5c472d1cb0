//! Cycle phase (e): scheduling. Each query nominates its top versions,
//! one deficit round robin (DRR) over the queries grants the k instance
//! slots, and final versions of consumption-free queries fill the
//! instances' run-ahead FIFOs.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::registry::SplitterFactory;
use super::Splitter;
use crate::cg::CgCell;
use crate::shared::{TenantId, RUN_AHEAD_DEPTH};
use crate::version::VersionState;

/// A probability-ranked nomination list, as produced per query by the
/// schedule.
pub(super) type RankedNominations = Vec<(f64, Arc<VersionState>)>;

/// Scheduler credit resolution, in steps per instance slot.
const CREDIT_GRID: f64 = (1u64 << 32) as f64;

impl Splitter {
    /// Prediction input `n` for a consumption group at `pos_in_window`:
    /// the expected further events in its window under the running average
    /// window size, clamped to ≥ 1 — a stale or short estimate (e.g. a
    /// group already past the average) must never feed the predictor a
    /// non-positive horizon.
    pub(super) fn events_left(avg_window_size: f64, pos_in_window: u64) -> i64 {
        (avg_window_size as i64 - pos_in_window as i64).max(1)
    }

    /// Query `qi`'s tree nominates its top versions with survival
    /// probabilities (materializing lazy branches on first schedule) into
    /// the query's ranked [`nominations`](super::QueryState::nominations),
    /// decrementing `budget` by every version the nomination materialized
    /// — the per-tenant speculation budget's enforcement point (an
    /// exhausted budget leaves lazy branches unmaterialized instead of
    /// creating version state).
    ///
    /// The width is k under a consumption policy and k·(1 +
    /// [`RUN_AHEAD_DEPTH`]) without one — enough for every head plus a full
    /// run-ahead FIFO per instance, since queued versions are nominated
    /// again until they finish. Versions already queued in a run-ahead FIFO
    /// are left out: each version is in exactly one place.
    fn nominate(&mut self, qi: usize, k: usize, budget: &mut usize) {
        let qs = &mut self.queries[qi];
        let mut factory = SplitterFactory::for_query(&self.shared, qs);
        let width = if qs.query.consumption().is_none() {
            k * (1 + RUN_AHEAD_DEPTH)
        } else {
            k
        };
        let avg = qs.avg_window_size;
        let predictor = &*qs.predictor;
        let prob = move |cell: &CgCell| -> f64 {
            let events_left = Self::events_left(avg, cell.pos_in_window());
            predictor.predict(cell.delta(), events_left)
        };
        qs.nominations = qs
            .tree
            .top_k_scored_budgeted(width, &prob, &mut factory, budget);
        if self.ahead_shadow.iter().any(|q| !q.is_empty()) {
            let queued = self.ahead_shadow.iter().flatten();
            qs.nominations
                .retain(|(_, v)| !queued.clone().any(|q| Arc::ptr_eq(q, v)));
        }
        qs.nominations.sort_by(|a, b| b.0.total_cmp(&a.0));
        qs.granted = 0;
    }

    /// Remaining per-cycle speculation budget of tenant `ti`: its
    /// [`TenantQuota::max_versions`](crate::TenantQuota::max_versions) cap
    /// minus the versions its queries' trees already hold (`usize::MAX`
    /// when uncapped).
    fn tenant_budget(&self, ti: usize) -> usize {
        let t = &self.tenants[ti];
        let Some(cap) = t.quota.max_versions else {
            return usize::MAX;
        };
        let used: usize = t
            .queries
            .iter()
            .filter_map(|qid| self.query_index.get(qid))
            .map(|&qi| self.queries[qi].tree.version_count())
            .sum();
        cap.saturating_sub(used)
    }

    /// The weight of the tenant owning a run of [`schedule`](Self::schedule)
    /// order, and how many of the run's queries have nominations.
    fn busy_weight(&self, run: &[(TenantId, usize)]) -> (f64, usize) {
        let weight = self.tenants[self.tenant_index[&run[0].0]].quota.weight;
        let busy = run
            .iter()
            .filter(|&&(_, qi)| !self.queries[qi].nominations.is_empty())
            .count();
        (f64::from(weight), busy)
    }

    /// Selects and schedules the top-k window versions across all deployed
    /// queries by one deficit round robin (DRR) over per-query lists.
    ///
    /// Every query nominates its own ranked list
    /// ([`nominate`](Self::nominate)) in schedule order — ascending tenant
    /// id, then deployment order — and a tenant's members draw on the
    /// tenant's one speculation budget. A query with nominations accrues
    /// `k · w_t / Σ w / n_t` credit per cycle: its tenant's weighted fair
    /// share (Σ over the tenants with nominations), split evenly among the
    /// tenant's `n_t` members with nominations, clamped to k. A query
    /// without nominations resets to zero, so the share is
    /// work-conserving and idle stretches bank no debt. Slots then go one
    /// at a time to the highest-credit query with nominations left —
    /// earliest in schedule order on ties — each grant costing one credit,
    /// so among n busy peers none waits more than ⌈n/k⌉ cycles for a
    /// slot. With one query this is the plain probability top-k (paper
    /// Fig. 7); with one query per tenant, the weighted tenant split. The
    /// granted versions are ranked on probability again so slot
    /// assignment stays probability-ordered.
    ///
    /// Versions already queued in a run-ahead FIFO are not head
    /// candidates. After the heads are placed, each list's ungranted tail
    /// fills the FIFOs (see [`fill_run_ahead`](Self::fill_run_ahead)); only
    /// consumption-free queries nominate beyond k, so only they ever get
    /// FIFO entries.
    pub(super) fn schedule(&mut self) {
        let k = self.config.instances;
        // Entries leave a FIFO once finished (or dropped).
        for queued in &mut self.ahead_shadow {
            queued.retain(|v| !v.is_finished() && !v.is_dropped());
        }
        let mut order = std::mem::take(&mut self.sched_order);
        order.clear();
        order.extend(
            self.queries
                .iter()
                .enumerate()
                .map(|(qi, q)| (q.tenant, qi)),
        );
        order.sort_unstable();
        // One run of `order` per tenant.
        let runs = || order.chunk_by(|a, b| a.0 == b.0);
        for run in runs() {
            let mut budget = self.tenant_budget(self.tenant_index[&run[0].0]);
            for &(_, qi) in run {
                self.nominate(qi, k, &mut budget);
            }
        }
        let total_weight: f64 = runs()
            .map(|run| self.busy_weight(run))
            .filter(|&(_, busy)| busy > 0)
            .map(|(weight, _)| weight)
            .sum();
        for run in runs() {
            let (weight, busy) = self.busy_weight(run);
            for &(_, qi) in run {
                let qs = &mut self.queries[qi];
                qs.credit = if qs.nominations.is_empty() {
                    0.0
                } else {
                    // On a 2^-32 grid, so credit sums are exact and equal
                    // peers tie exactly (and break ties by order).
                    let share = k as f64 * weight / total_weight / busy as f64;
                    let share = (share * CREDIT_GRID).round() / CREDIT_GRID;
                    (qs.credit + share).min(k as f64)
                };
            }
        }
        // Grant loop: one slot at a time to the highest-credit query with
        // nominations left (strict comparison keeps the earliest on ties).
        let mut cands: RankedNominations = Vec::with_capacity(k);
        while cands.len() < k {
            let mut best: Option<(usize, f64)> = None;
            for &(_, qi) in &order {
                let qs = &self.queries[qi];
                if qs.granted < qs.nominations.len() && best.is_none_or(|(_, c)| qs.credit > c) {
                    best = Some((qi, qs.credit));
                }
            }
            let Some((qi, _)) = best else {
                break;
            };
            let qs = &mut self.queries[qi];
            cands.push(qs.nominations[qs.granted].clone());
            qs.granted += 1;
            qs.credit -= 1.0;
        }
        cands.sort_by(|a, b| b.0.total_cmp(&a.0));

        // Two-pass assignment (paper Fig. 7): keep already-placed versions,
        // hand the rest to free instances. Both passes run against the
        // splitter-local shadow — no slot locks — and only slots whose
        // assignment actually changes are published.
        let mut to_place: Vec<Arc<VersionState>> = Vec::new();
        let mut kept: Vec<bool> = vec![false; self.sched_shadow.len()];
        'version: for (_, v) in &cands {
            for (i, cur) in self.sched_shadow.iter().enumerate() {
                if kept[i] {
                    continue;
                }
                if cur.as_ref().is_some_and(|s| Arc::ptr_eq(s, v)) {
                    kept[i] = true;
                    continue 'version;
                }
            }
            to_place.push(Arc::clone(v));
        }
        let mut to_place = to_place.into_iter();
        // Heads replaced this cycle: their instance may still be inside a
        // step on them, so they wait a cycle before they may be queued.
        let mut unseated: Vec<Arc<VersionState>> = Vec::new();
        for (i, kept) in kept.iter().enumerate() {
            if *kept {
                continue;
            }
            let next = to_place.next();
            let unchanged = match (&self.sched_shadow[i], &next) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            };
            if !unchanged {
                self.shared.slots[i].publish(next.clone());
                unseated.extend(std::mem::replace(&mut self.sched_shadow[i], next));
            }
        }
        self.fill_run_ahead(&order, &unseated);
        self.sched_order = order;
    }

    /// Queues the **final** versions among the nominations that did not
    /// become heads (each query's ungranted tail, in schedule order) into
    /// the instances' run-ahead FIFOs, each to the shortest FIFO with room
    /// (lowest slot on ties).
    ///
    /// Final means the query has no consumption policy — no group can ever
    /// suppress, roll back or replace the version — and its window is
    /// closed and fully ingested, so a queued version can never stall. The
    /// second half is a liveness condition: an unclosed window queued
    /// behind a stalled head could be the root that back-pressured
    /// ingestion waits for. Consumption queries are excluded because
    /// "certain now" is not final for them: an older window can still
    /// open a group that suppresses events of this one.
    fn fill_run_ahead(&mut self, order: &[(TenantId, usize)], unseated: &[Arc<VersionState>]) {
        let mut spare = order
            .iter()
            .flat_map(|&(_, qi)| {
                let qs = &self.queries[qi];
                &qs.nominations[qs.granted..]
            })
            .peekable();
        if spare.peek().is_none() {
            return;
        }
        let ingested = self.shared.ingested.load(Ordering::Acquire);
        let before: Vec<usize> = self.ahead_shadow.iter().map(Vec::len).collect();
        for (_, v) in spare {
            let is_final = v.query().consumption().is_none()
                && v.window().end_pos().is_some_and(|end| end <= ingested);
            if !is_final || unseated.iter().any(|u| Arc::ptr_eq(u, v)) {
                continue;
            }
            let Some(i) = (0..self.ahead_shadow.len())
                .filter(|&i| self.ahead_shadow[i].len() < RUN_AHEAD_DEPTH)
                .min_by_key(|&i| self.ahead_shadow[i].len())
            else {
                break;
            };
            self.ahead_shadow[i].push(Arc::clone(v));
        }
        for (i, &from) in before.iter().enumerate() {
            if self.ahead_shadow[i].len() > from {
                self.shared.slots[i].enqueue_ahead(self.ahead_shadow[i][from..].iter().cloned());
            }
        }
    }
}
