//! Cycle phase (e): scheduling. Each tree query nominates its top
//! versions and each lane query with unclaimed windows its lane, and one
//! deficit round robin (DRR) over the queries grants the k instance
//! slots.

use std::sync::Arc;

use super::registry::SplitterFactory;
use super::Splitter;
use crate::cg::CgCell;
use crate::shared::{Grant, TenantId};

/// A probability-ranked nomination list, as produced per query by the
/// schedule.
pub(super) type RankedNominations = Vec<(f64, Grant)>;

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

    /// Query `qi`'s tree nominates its top k versions with survival
    /// probabilities (materializing lazy branches on first schedule) into
    /// the query's ranked [`nominations`](super::QueryState::nominations),
    /// decrementing `budget` by every version the nomination materialized
    /// — the per-tenant speculation budget's enforcement point (an
    /// exhausted budget leaves lazy branches unmaterialized instead of
    /// creating version state).
    ///
    /// A lane query instead nominates its lane once per unclaimed window,
    /// up to k times, at probability 1: its windows are certain.
    fn nominate(&mut self, qi: usize, k: usize, budget: &mut usize) {
        let qs = &mut self.queries[qi];
        qs.granted = 0;
        if let Some(lane) = &qs.lane {
            let n = lane.unclaimed().min(k);
            qs.nominations.clear();
            qs.nominations
                .resize(n, (1.0, Grant::Lane(Arc::clone(lane))));
            return;
        }
        let mut factory = SplitterFactory::for_query(&self.shared, qs);
        let avg = qs.avg_window_size;
        let predictor = &qs.predictor;
        let prob = move |cell: &CgCell| -> f64 {
            let events_left = Self::events_left(avg, cell.pos_in_window());
            predictor.predict(cell.delta(), events_left)
        };
        let top = qs
            .tree
            .top_k_scored_budgeted(k, &prob, &mut factory, budget);
        qs.nominations.clear();
        let versions = top.into_iter().map(|(p, v)| (p, Grant::Version(v)));
        qs.nominations.extend(versions);
        qs.nominations.sort_by(|a, b| b.0.total_cmp(&a.0));
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

    /// Selects and schedules the top-k grants across all deployed queries
    /// by one deficit round robin (DRR) over per-query lists.
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
    /// assignment stays probability-ordered. A lane grant stays on its
    /// slot for as long as it is granted again.
    pub(super) fn schedule(&mut self) {
        let k = self.config.instances;
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
        let mut cands = std::mem::take(&mut self.sched_cands);
        cands.clear();
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

        // Two-pass assignment (paper Fig. 7): keep already-placed grants,
        // hand the rest to free instances. Both passes run against the
        // splitter-local shadow — no slot locks — and only slots whose
        // grant actually changes are published.
        let mut kept = std::mem::take(&mut self.sched_kept);
        kept.clear();
        kept.resize(self.sched_shadow.len(), false);
        let shadow = &self.sched_shadow;
        cands.retain(|(_, g)| {
            let slot = (0..shadow.len())
                .find(|&i| !kept[i] && shadow[i].as_ref().is_some_and(|s| s.same(g)));
            if let Some(i) = slot {
                kept[i] = true;
            }
            slot.is_none()
        });
        let mut to_place = cands.drain(..).map(|(_, g)| g);
        for (i, kept) in kept.iter().enumerate() {
            if *kept {
                continue;
            }
            let next = to_place.next();
            let unchanged = match (&self.sched_shadow[i], &next) {
                (Some(a), Some(b)) => a.same(b),
                (None, None) => true,
                _ => false,
            };
            if !unchanged {
                self.shared.slots[i].publish(next.clone());
                self.sched_shadow[i] = next;
            }
        }
        drop(to_place);
        self.sched_order = order;
        self.sched_cands = cands;
        self.sched_kept = kept;
    }
}
