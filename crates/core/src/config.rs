//! Runtime configuration.

use crate::markov::MarkovConfig;
use crate::reorder::ReorderConfig;

/// Which completion-probability predictor to use (paper §4.2.2 compares the
/// adaptive Markov model against fixed probabilities, Fig. 11).
#[derive(Debug, Clone)]
pub enum PredictorKind {
    /// The adaptive Markov model (paper §3.2.1).
    Markov(MarkovConfig),
    /// A fixed completion probability for every group.
    Fixed(f64),
}

impl Default for PredictorKind {
    fn default() -> Self {
        PredictorKind::Markov(MarkovConfig::default())
    }
}

/// Configuration of a SPECTRE runtime (simulated or threaded).
#[derive(Debug, Clone)]
pub struct SpectreConfig {
    /// Number of operator instances k (the paper's parallelization degree).
    pub instances: usize,
    /// Completion-probability predictor.
    pub predictor: PredictorKind,
    /// Events between consistency checks (`consistencyCheckFreq`,
    /// paper Fig. 8).
    pub consistency_check_freq: u32,
    /// Maximum events the splitter ingests per maintenance cycle.
    pub ingest_per_cycle: usize,
    /// Size of one [`EventBatch`](crate::splitter::EventBatch): how many
    /// events the splitter accumulates before flushing them to the window
    /// buffers in one write per touched window, and how many events an
    /// operator instance fetches and processes per scheduling step. Larger
    /// batches amortize lock and queue traffic on the hot path; smaller
    /// batches tighten scheduling granularity. `1` reproduces the original
    /// event-at-a-time hand-off exactly. Output is identical for every
    /// batch size (see `tests/tests/smoke.rs`).
    pub batch_size: usize,
    /// Soft cap on a query's speculative load — live window versions plus
    /// the windows pending on attach markers (see
    /// [`DependencyTree::speculative_load`](crate::tree::DependencyTree::speculative_load)),
    /// or a lane query's unretired windows. Ingestion stalls while any
    /// query carries more and its oldest unretired window is closed (so
    /// that window can still finish), bounding speculative fan-out,
    /// per-cycle tree work and buffered events. Must be positive: a zero
    /// cap back-pressures every event forever.
    pub max_tree_versions: usize,
    /// Opt-in out-of-order ingestion: `Some` interposes a watermark-driven
    /// [`ReorderBuffer`](crate::reorder::ReorderBuffer) between the session
    /// surface (`try_push`/`ingest`) and the splitter, so events
    /// may arrive up to [`ReorderConfig::max_delay`] timestamp ticks out
    /// of order and still produce the exact in-order output. Buffer-cap
    /// back-pressure surfaces as the existing `PushResult::Full`. `None`
    /// (the default) feeds the splitter directly — timestamps are assumed
    /// monotone, exactly the pre-reorder behavior.
    pub reorder: Option<ReorderConfig>,
}

impl Default for SpectreConfig {
    fn default() -> Self {
        SpectreConfig {
            instances: 4,
            predictor: PredictorKind::default(),
            consistency_check_freq: 64,
            ingest_per_cycle: 64,
            batch_size: 64,
            max_tree_versions: 1024,
            reorder: None,
        }
    }
}

impl SpectreConfig {
    /// Convenience constructor for `k` instances with defaults otherwise.
    pub fn with_instances(instances: usize) -> Self {
        SpectreConfig {
            instances,
            ..Default::default()
        }
    }

    /// Convenience constructor for the batching sweep: `k` instances and
    /// the given hand-off batch size, defaults otherwise.
    ///
    /// # Example
    ///
    /// ```
    /// use spectre_core::SpectreConfig;
    ///
    /// let unbatched = SpectreConfig::with_batching(4, 1);
    /// let batched = SpectreConfig::with_batching(4, 1024);
    /// assert_eq!(unbatched.instances, batched.instances);
    /// assert_eq!(batched.batch_size, 1024);
    /// ```
    pub fn with_batching(instances: usize, batch_size: usize) -> Self {
        SpectreConfig {
            instances,
            batch_size,
            ..Default::default()
        }
    }

    /// Returns the configuration with the reorder stage enabled at the
    /// given bounded-lateness `max_delay` (timestamp ticks), with the
    /// standard policies — periodic per-event watermarks, late events
    /// dropped, a 4096-event buffer. Set
    /// [`reorder`](Self::reorder) directly for a custom
    /// [`ReorderConfig`].
    ///
    /// # Example
    ///
    /// ```
    /// use spectre_core::SpectreConfig;
    ///
    /// let config = SpectreConfig::with_instances(4).with_reorder(1024);
    /// assert_eq!(config.reorder.as_ref().unwrap().max_delay, 1024);
    /// assert!(SpectreConfig::default().reorder.is_none());
    /// ```
    #[must_use]
    pub fn with_reorder(mut self, max_delay: u64) -> Self {
        self.reorder = Some(ReorderConfig::bounded(max_delay));
        self
    }

    /// Validates the configuration, reporting the first violated
    /// constraint as an error.
    /// [`crate::SpectreEngineBuilder::try_build`] surfaces this as
    /// [`EngineError::InvalidConfig`](crate::EngineError::InvalidConfig)
    /// instead of panicking.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.instances == 0 {
            return Err("need at least one operator instance".into());
        }
        if self.consistency_check_freq == 0 {
            return Err("consistency check frequency must be positive".into());
        }
        if self.ingest_per_cycle == 0 {
            return Err("ingest batch must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("hand-off batch size must be positive".into());
        }
        if self.max_tree_versions == 0 {
            return Err("tree version cap must be positive".into());
        }
        if let PredictorKind::Fixed(p) = self.predictor {
            if !(0.0..=1.0).contains(&p) {
                return Err("fixed probability out of range".into());
            }
        }
        if let Some(reorder) = &self.reorder {
            reorder.try_validate()?;
        }
        Ok(())
    }
}

/// Resource policy for one tenant: how much of the shared session a
/// tenant's queries may use.
///
/// Quotas are pure policy — they never change what a query computes, only
/// how the splitter divides the k instance slots and the speculation
/// budget between tenants (see the "Multi-tenancy" section of
/// `docs/ARCHITECTURE.md`). The default quota (weight 1, no caps) for
/// every tenant gives every tenant an equal share.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Relative share of the k instance slots in each scheduling cycle.
    /// Shares are proportional to weight over the sum of the weights of
    /// tenants that have schedulable work, so an idle tenant's share
    /// flows to the busy ones (deficit-round-robin carryover); a tenant's
    /// queries with work split its share evenly.
    pub weight: u32,
    /// Cap on the tenant's total speculative load (live window versions
    /// across all its queries' dependency trees). Once a tenant is at its
    /// cap, the top-k selection stops materializing *new* versions (lazy
    /// branches, pending window attaches) for it — already-live versions
    /// still run. `None` leaves the tenant bounded only by the global
    /// [`SpectreConfig::max_tree_versions`].
    pub max_versions: Option<usize>,
    /// Cap on concurrently deployed queries owned by the tenant.
    /// Deploying beyond it fails with
    /// [`EngineError::QuotaExceeded`](crate::EngineError::QuotaExceeded).
    /// `None` means unlimited.
    pub max_queries: Option<usize>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            weight: 1,
            max_versions: None,
            max_queries: None,
        }
    }
}

impl TenantQuota {
    /// Returns the quota with the given scheduling weight.
    ///
    /// # Example
    ///
    /// ```
    /// use spectre_core::TenantQuota;
    ///
    /// let quota = TenantQuota::default().with_weight(3);
    /// assert_eq!(quota.weight, 3);
    /// ```
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Returns the quota with the given speculation-budget cap.
    #[must_use]
    pub fn with_max_versions(mut self, cap: usize) -> Self {
        self.max_versions = Some(cap);
        self
    }

    /// Returns the quota with the given deployed-query cap.
    #[must_use]
    pub fn with_max_queries(mut self, cap: usize) -> Self {
        self.max_queries = Some(cap);
        self
    }

    /// Validates the quota against the session configuration it will run
    /// under. Surfaced by the builder as
    /// [`EngineError::InvalidConfig`](crate::EngineError::InvalidConfig).
    pub fn try_validate(&self, config: &SpectreConfig) -> Result<(), String> {
        if self.weight == 0 {
            return Err("tenant weight must be positive".into());
        }
        if self.max_versions == Some(0) {
            return Err("tenant version cap must be positive".into());
        }
        if let Some(cap) = self.max_versions {
            if cap > config.max_tree_versions {
                return Err(format!(
                    "tenant version cap {cap} exceeds max_tree_versions {}",
                    config.max_tree_versions
                ));
            }
        }
        if self.max_queries == Some(0) {
            return Err("tenant query cap must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SpectreConfig::default().try_validate().unwrap();
        SpectreConfig::with_instances(32).try_validate().unwrap();
        SpectreConfig::with_batching(4, 1024)
            .try_validate()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "hand-off batch size must be positive")]
    fn zero_batch_rejected() {
        SpectreConfig::with_batching(1, 0).try_validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one operator instance")]
    fn zero_instances_rejected() {
        SpectreConfig::with_instances(0).try_validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "reorder buffer capacity must be positive")]
    fn zero_reorder_capacity_rejected() {
        let mut config = SpectreConfig::with_instances(1).with_reorder(64);
        config.reorder.as_mut().unwrap().capacity = 0;
        config.try_validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "fixed probability out of range")]
    fn bad_fixed_probability_rejected() {
        SpectreConfig {
            predictor: PredictorKind::Fixed(2.0),
            ..Default::default()
        }
        .try_validate()
        .unwrap();
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        assert!(SpectreConfig::default().try_validate().is_ok());
        let err = SpectreConfig::with_instances(0).try_validate().unwrap_err();
        assert!(err.contains("at least one operator instance"));
        let err = SpectreConfig::with_batching(1, 0)
            .try_validate()
            .unwrap_err();
        assert!(err.contains("hand-off batch size"));
    }

    #[test]
    fn default_quota_validates_under_any_config() {
        let config = SpectreConfig::default();
        assert!(TenantQuota::default().try_validate(&config).is_ok());
        assert!(TenantQuota::default()
            .with_weight(7)
            .with_max_versions(config.max_tree_versions)
            .with_max_queries(1)
            .try_validate(&config)
            .is_ok());
    }

    #[test]
    fn degenerate_quotas_are_rejected() {
        let config = SpectreConfig::default();
        let err = TenantQuota::default()
            .with_weight(0)
            .try_validate(&config)
            .unwrap_err();
        assert!(err.contains("weight must be positive"));
        let err = TenantQuota::default()
            .with_max_versions(0)
            .try_validate(&config)
            .unwrap_err();
        assert!(err.contains("version cap must be positive"));
        let err = TenantQuota::default()
            .with_max_queries(0)
            .try_validate(&config)
            .unwrap_err();
        assert!(err.contains("query cap must be positive"));
        let err = TenantQuota::default()
            .with_max_versions(config.max_tree_versions + 1)
            .try_validate(&config)
            .unwrap_err();
        assert!(err.contains("exceeds max_tree_versions"));
    }
}
