//! Retry with capped exponential backoff under a simulated deadline budget.
//!
//! The active-measurement instruments (HTTPS crawl, open resolvers) retry
//! transient failures, but a measurement campaign cannot wait forever on a
//! flapping host: real collectors bound each target by a *deadline*. This
//! module models that contract with a simulated millisecond clock — each
//! attempt and each backoff advances the clock; nothing ever sleeps — so
//! retry behaviour is deterministic and instantly testable.

/// Retry budget: attempt cap, backoff shape, and deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts (including the first). At least 1 is always made.
    pub max_attempts: u32,
    /// Backoff before the second attempt, in simulated milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff cap (exponential growth stops here).
    pub max_backoff_ms: u64,
    /// Total simulated-time budget; no retry starts past the deadline.
    pub deadline_ms: u64,
    /// Simulated cost of one attempt (connect + response timeout share).
    pub attempt_cost_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 50,
            max_backoff_ms: 800,
            deadline_ms: 3_000,
            attempt_cost_ms: 25,
        }
    }
}

/// What a retry loop actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttemptLog {
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Simulated milliseconds consumed.
    pub elapsed_ms: u64,
    /// True when the loop stopped because the deadline budget ran out
    /// before the attempt cap.
    pub exhausted_deadline: bool,
}

/// Drive `op` until it succeeds or the policy's budget runs out.
///
/// `op` receives the 0-based retry round and returns `Some(value)` on
/// success. Backoff doubles from `base_backoff_ms` up to `max_backoff_ms`;
/// a retry whose backoff would cross `deadline_ms` is not started.
pub fn retry_with_backoff<T>(
    policy: RetryPolicy,
    mut op: impl FnMut(u32) -> Option<T>,
) -> (Option<T>, AttemptLog) {
    let mut log = AttemptLog::default();
    let mut elapsed = 0u64;
    let mut backoff = policy.base_backoff_ms;
    let attempts = policy.max_attempts.max(1);
    for round in 0..attempts {
        log.attempts = round + 1;
        elapsed = elapsed.saturating_add(policy.attempt_cost_ms);
        if let Some(v) = op(round) {
            log.elapsed_ms = elapsed;
            return (Some(v), log);
        }
        if round + 1 == attempts {
            break;
        }
        if elapsed.saturating_add(backoff) > policy.deadline_ms {
            log.exhausted_deadline = true;
            break;
        }
        elapsed = elapsed.saturating_add(backoff);
        backoff = backoff.saturating_mul(2).min(policy.max_backoff_ms);
    }
    log.elapsed_ms = elapsed;
    (None, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_makes_one_attempt() {
        let (v, log) = retry_with_backoff(RetryPolicy::default(), |_| Some(42));
        assert_eq!(v, Some(42));
        assert_eq!(log.attempts, 1);
        assert_eq!(log.elapsed_ms, RetryPolicy::default().attempt_cost_ms);
    }

    #[test]
    fn retries_until_success() {
        let (v, log) =
            retry_with_backoff(RetryPolicy::default(), |round| (round == 2).then_some("up"));
        assert_eq!(v, Some("up"));
        assert_eq!(log.attempts, 3);
        // 3 attempts à 25ms + backoffs 50 + 100.
        assert_eq!(log.elapsed_ms, 3 * 25 + 50 + 100);
    }

    #[test]
    fn attempt_cap_is_respected() {
        let mut calls = 0u32;
        let (v, log) = retry_with_backoff(RetryPolicy::default(), |_| -> Option<()> {
            calls += 1;
            None
        });
        assert!(v.is_none());
        assert_eq!(calls, 4);
        assert_eq!(log.attempts, 4);
        assert!(!log.exhausted_deadline);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 100,
            max_backoff_ms: 250,
            deadline_ms: 100_000,
            attempt_cost_ms: 0,
        };
        let (_, log) = retry_with_backoff(policy, |_| -> Option<()> { None });
        // Backoffs: 100, 200, 250, 250, 250.
        assert_eq!(log.elapsed_ms, 100 + 200 + 250 + 250 + 250);
    }

    #[test]
    fn deadline_stops_retries_early() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff_ms: 400,
            max_backoff_ms: 400,
            deadline_ms: 1_000,
            attempt_cost_ms: 100,
        };
        let (v, log) = retry_with_backoff(policy, |_| -> Option<()> { None });
        assert!(v.is_none());
        assert!(log.exhausted_deadline);
        assert!(log.attempts < 100);
        // An attempt started just before the deadline may finish past it,
        // but never by more than one attempt's cost.
        assert!(log.elapsed_ms <= policy.deadline_ms + policy.attempt_cost_ms);
    }

    #[test]
    fn zero_attempt_policy_still_tries_once() {
        let policy = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        let (v, log) = retry_with_backoff(policy, |_| Some(1));
        assert_eq!(v, Some(1));
        assert_eq!(log.attempts, 1);
    }
}
