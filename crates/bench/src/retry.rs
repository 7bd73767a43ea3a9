//! Bounded retry with deterministic jittered backoff.
//!
//! The supervised sweep runner ([`crate::sweep::run_supervised`]) uses
//! this policy to re-run grid points that panicked or blew their
//! wall-clock deadline. Backoff jitter comes
//! from the seeded [`CampaignRng`] stream, not the wall clock, so a
//! policy's sleep schedule is reproducible run-over-run.

use mmt_sim::CampaignRng;
use std::time::Duration;

/// How many times to attempt an operation and how long to wait between
/// attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (clamped to at least 1).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry after that.
    /// `Duration::ZERO` disables sleeping entirely.
    pub base_backoff: Duration,
    /// Seed for the jitter stream (deterministic per policy).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(50),
            seed: 0x6D6D_7472_6574_7279, // "mmtretry"
        }
    }
}

impl RetryPolicy {
    /// A single attempt: no retries, no sleeping.
    pub fn once() -> Self {
        RetryPolicy {
            attempts: 1,
            base_backoff: Duration::ZERO,
            ..Self::default()
        }
    }

    /// The default policy with a different attempt count.
    pub fn attempts(attempts: u32) -> Self {
        RetryPolicy {
            attempts,
            ..Self::default()
        }
    }

    /// Backoff to sleep before retry number `retry` (1-based): the base
    /// doubled per prior retry, plus up to +50% deterministic jitter so
    /// simultaneous failing points do not retry in lockstep.
    pub fn backoff_before(&self, retry: u32) -> Duration {
        if retry == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (retry - 1).min(16));
        let mut rng = CampaignRng::new(self.seed ^ u64::from(retry));
        let jitter_millis = exp.mul_f64(rng.below(1001) as f64 / 2000.0);
        exp + jitter_millis
    }

    /// Run `f` until it returns `Ok` or the attempt budget is spent,
    /// sleeping the jittered backoff between attempts. `f` receives the
    /// 0-based attempt index. On exhaustion, returns the final error
    /// together with the number of attempts made.
    pub fn run<R, E>(&self, mut f: impl FnMut(u32) -> Result<R, E>) -> Result<R, (E, u32)> {
        let attempts = self.attempts.max(1);
        let mut last: Option<E> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff_before(attempt));
            }
            match f(attempt) {
                Ok(r) => return Ok(r),
                Err(e) => last = Some(e),
            }
        }
        Err((last.expect("at least one attempt ran"), attempts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_on_a_later_attempt() {
        let policy = RetryPolicy {
            attempts: 3,
            base_backoff: Duration::ZERO,
            ..Default::default()
        };
        let mut calls = 0;
        let out = policy.run(|attempt| {
            calls += 1;
            if attempt < 2 {
                Err("noise")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);
    }

    #[test]
    fn exhaustion_reports_the_last_error_and_attempt_count() {
        let policy = RetryPolicy {
            attempts: 2,
            base_backoff: Duration::ZERO,
            ..Default::default()
        };
        let out: Result<(), _> = policy.run(|attempt| Err(format!("fail {attempt}")));
        assert_eq!(out, Err(("fail 1".to_string(), 2)));
    }

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let policy = RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(10),
            seed: 7,
        };
        let b1 = policy.backoff_before(1);
        let b2 = policy.backoff_before(2);
        let b3 = policy.backoff_before(3);
        assert!(b1 >= Duration::from_millis(10) && b1 <= Duration::from_millis(15));
        assert!(b2 >= Duration::from_millis(20) && b2 <= Duration::from_millis(30));
        assert!(b2 > b1 && b3 > b2, "{b1:?} {b2:?} {b3:?}");
        // Same policy, same schedule.
        assert_eq!(b2, policy.backoff_before(2));
        assert_eq!(policy.backoff_before(0), Duration::ZERO);
    }

    #[test]
    fn zero_base_never_sleeps() {
        let policy = RetryPolicy::once();
        assert_eq!(policy.backoff_before(1), Duration::ZERO);
        assert_eq!(policy.backoff_before(9), Duration::ZERO);
    }
}
