//! Token-bucket rate limiting, per connection and per tenant.
//!
//! Each connection gets its own bucket; connections declaring the same
//! tenant additionally share a per-tenant bucket, so one tenant cannot
//! exceed its aggregate budget by opening many connections. An event frame
//! is admitted only when both buckets hold a whole token, and then spends
//! one from each; a refusal by either spends none. Over-limit event frames
//! are either dropped or forwarded with a throttle advisory, per
//! [`OverLimitPolicy`]. Only event frames spend tokens — watermarks, hello
//! and bye are control traffic and always pass.
//!
//! Time enters as caller-supplied milliseconds (the server's monotonic
//! clock), which makes the bucket arithmetic deterministic under test.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::error::ServerError;

/// What to do with an event frame that exceeds the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverLimitPolicy {
    /// Forward the frame but send the client a throttle advisory sized to
    /// when the next token becomes available.
    Throttle,
    /// Discard the frame (it still consumed no token).
    Drop,
}

/// Rate-limiter configuration.
#[derive(Debug, Clone)]
pub struct RateLimitConfig {
    /// Budget per connection, in events per second (finite, positive).
    pub per_conn_eps: f64,
    /// Aggregate budget per tenant, in events per second (`None` disables
    /// the tenant dimension; finite and positive otherwise).
    pub per_tenant_eps: Option<f64>,
    /// Burst capacity, in events (bucket size, at least 1); applies to
    /// both dimensions.
    pub burst: f64,
    /// Over-limit policy.
    pub policy: OverLimitPolicy,
}

impl RateLimitConfig {
    /// A per-connection limit of `eps` events/s with a burst of `burst`
    /// events and the given policy; no tenant dimension.
    pub fn per_conn(eps: f64, burst: f64, policy: OverLimitPolicy) -> RateLimitConfig {
        RateLimitConfig {
            per_conn_eps: eps,
            per_tenant_eps: None,
            burst,
            policy,
        }
    }

    /// Rejects a budget under which no event could ever pass: a rate that
    /// is not finite and positive never refills, and a bucket smaller than
    /// one event never holds a whole token.
    pub(crate) fn check(&self) -> Result<(), ServerError> {
        let refills = |eps: f64| eps.is_finite() && eps > 0.0;
        if !refills(self.per_conn_eps) || !self.per_tenant_eps.is_none_or(refills) {
            return Err(ServerError::Config(
                "rate limit: events per second must be finite and positive".into(),
            ));
        }
        if !(self.burst.is_finite() && self.burst >= 1.0) {
            return Err(ServerError::Config(
                "rate limit: burst must be finite and at least one event".into(),
            ));
        }
        Ok(())
    }
}

/// A classic token bucket over caller-supplied millisecond time.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    capacity: f64,
    tokens: f64,
    per_ms: f64,
    last_ms: u64,
}

impl TokenBucket {
    /// A bucket refilling at `eps` tokens/second, holding at most `burst`,
    /// starting full at time `now_ms`.
    fn new(eps: f64, burst: f64, now_ms: u64) -> TokenBucket {
        TokenBucket {
            capacity: burst,
            tokens: burst,
            per_ms: eps / 1000.0,
            last_ms: now_ms,
        }
    }

    /// Refills the bucket up to `now_ms` and reports whether it holds a
    /// whole token, without taking it.
    ///
    /// # Errors
    ///
    /// `Err(wait_nanos)` — the nanoseconds until a token will be
    /// available — when the bucket is empty.
    fn ready(&mut self, now_ms: u64) -> Result<(), u64> {
        let elapsed = now_ms.saturating_sub(self.last_ms);
        self.last_ms = now_ms;
        self.tokens = (self.tokens + elapsed as f64 * self.per_ms).min(self.capacity);
        if self.tokens >= 1.0 {
            Ok(())
        } else {
            let wait_ms = (1.0 - self.tokens) / self.per_ms;
            Err((wait_ms * 1_000_000.0) as u64)
        }
    }

    /// Takes one token at `now_ms`.
    ///
    /// # Errors
    ///
    /// `Err(wait_nanos)` when the bucket is empty; nothing is taken.
    fn try_take(&mut self, now_ms: u64) -> Result<(), u64> {
        self.ready(now_ms)?;
        self.tokens -= 1.0;
        Ok(())
    }
}

/// The server's rate limiter: the configuration plus the per-tenant
/// buckets every connection of a tenant shares. Per-connection buckets
/// belong to their connection's thread ([`conn_bucket`](Self::conn_bucket)).
#[derive(Debug)]
pub(crate) struct RateLimiter {
    pub(crate) cfg: RateLimitConfig,
    /// Tenant buckets outlive their connections: the aggregate budget is
    /// per tenant, not per connection set.
    tenants: Mutex<HashMap<u32, TokenBucket>>,
}

impl RateLimiter {
    /// A limiter enforcing `cfg` (already [`check`](RateLimitConfig::check)ed).
    pub(crate) fn new(cfg: RateLimitConfig) -> RateLimiter {
        RateLimiter {
            cfg,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// A fresh, full per-connection bucket.
    pub(crate) fn conn_bucket(&self, now_ms: u64) -> TokenBucket {
        TokenBucket::new(self.cfg.per_conn_eps, self.cfg.burst, now_ms)
    }

    /// Admits one event frame of `tenant` on the connection owning `conn`:
    /// takes a token from both buckets, or from neither.
    ///
    /// # Errors
    ///
    /// `Err(wait_nanos)` from the bucket that refused.
    pub(crate) fn admit(
        &self,
        conn: &mut TokenBucket,
        tenant: u32,
        now_ms: u64,
    ) -> Result<(), u64> {
        conn.ready(now_ms)?;
        if let Some(tenant_eps) = self.cfg.per_tenant_eps {
            let mut tenants = self.tenants.lock().expect("rate limiter poisoned");
            tenants
                .entry(tenant)
                .or_insert_with(|| TokenBucket::new(tenant_eps, self.cfg.burst, now_ms))
                .try_take(now_ms)?;
        }
        conn.try_take(now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_enforces_budget_exactly_under_synthetic_time() {
        // 100 events/s, burst 10, clock starts at 0: 10 immediate takes
        // succeed, the 11th waits 10ms for the next token.
        let mut bucket = TokenBucket::new(100.0, 10.0, 0);
        for _ in 0..10 {
            bucket.try_take(0).expect("burst capacity");
        }
        let wait = bucket.try_take(0).unwrap_err();
        assert_eq!(wait, 10_000_000, "one token at 100/s is 10ms away");
        // 10ms later exactly one token has refilled.
        bucket.try_take(10).expect("refilled token");
        bucket.try_take(10).unwrap_err();
        // A long idle period refills only to capacity.
        for _ in 0..10 {
            bucket.try_take(100_000).expect("capacity refilled");
        }
        bucket.try_take(100_000).unwrap_err();
    }

    fn tenant_limited(per_conn_eps: f64, per_tenant_eps: f64, burst: f64) -> RateLimiter {
        RateLimiter::new(RateLimitConfig {
            per_conn_eps,
            per_tenant_eps: Some(per_tenant_eps),
            burst,
            policy: OverLimitPolicy::Drop,
        })
    }

    #[test]
    fn tenant_bucket_is_shared_across_connections() {
        let limiter = tenant_limited(1_000_000.0, 1000.0, 3.0);
        let mut a = limiter.conn_bucket(0);
        let mut b = limiter.conn_bucket(0);
        // Two connections of the same tenant drain the one shared bucket.
        limiter.admit(&mut a, 7, 0).expect("tenant token 1");
        limiter.admit(&mut b, 7, 0).expect("tenant token 2");
        limiter.admit(&mut a, 7, 0).expect("tenant token 3");
        limiter.admit(&mut b, 7, 0).unwrap_err();
        // A different tenant has its own budget.
        let mut c = limiter.conn_bucket(0);
        limiter.admit(&mut c, 8, 0).expect("other tenant");
    }

    #[test]
    fn a_refusal_by_either_bucket_spends_no_token() {
        // The tenant bucket (burst 2 at 1 event/s) is tighter than the
        // connection bucket (burst 2 at 1 000 events/s). The tenant's third
        // event is refused, and the connection's token must survive it.
        let limiter = tenant_limited(1000.0, 1.0, 2.0);
        let mut a = limiter.conn_bucket(0);
        limiter.admit(&mut a, 7, 0).expect("tenant token 1");
        let mut b = limiter.conn_bucket(0);
        limiter.admit(&mut b, 7, 0).expect("tenant token 2");
        limiter.admit(&mut a, 7, 0).unwrap_err();
        limiter.admit(&mut a, 7, 0).unwrap_err();
        // Connection `a` spent one token of two; a different tenant, free
        // of tenant 7's budget, can still use the second.
        limiter
            .admit(&mut a, 8, 0)
            .expect("the refused frames spent nothing");
        limiter.admit(&mut a, 8, 0).unwrap_err();
        // And a refusal by the connection bucket leaves the tenant bucket
        // whole: `a` is empty, tenant 8 has one token left, `b` takes it.
        limiter.admit(&mut b, 8, 0).expect("tenant 8 token 2");
    }
}
