//! Persistent-failure quarantine.
//!
//! Targets that keep failing (dead crawl hosts, vanished resolvers) should
//! stop consuming retry budget: after `threshold` *consecutive* failures a
//! key is quarantined and callers short-circuit it. One success before the
//! threshold resets the streak. The table is internally locked so the
//! parallel study weeks can share one instance.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

#[derive(Debug, Clone, Copy, Default)]
struct Streak {
    consecutive: u32,
    quarantined: bool,
}

/// A consecutive-failure quarantine table over keys of type `K`.
#[derive(Debug)]
pub struct Quarantine<K> {
    threshold: u32,
    table: Mutex<BTreeMap<K, Streak>>,
}

impl<K: Ord + Clone> Quarantine<K> {
    /// Quarantine after `threshold` consecutive failures (min 1).
    pub fn new(threshold: u32) -> Quarantine<K> {
        Quarantine { threshold: threshold.max(1), table: Mutex::new(BTreeMap::new()) }
    }

    /// Lock the table. A poisoned lock is recovered rather than propagated:
    /// every update below is a single field write on one entry, so the
    /// table is valid at every step even if a holder panicked.
    fn table(&self) -> MutexGuard<'_, BTreeMap<K, Streak>> {
        self.table.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Record a failure; returns true when this failure crossed the
    /// threshold (the key is newly quarantined).
    pub fn record_failure(&self, key: K) -> bool {
        let mut table = self.table();
        let entry = table.entry(key).or_default();
        if entry.quarantined {
            return false;
        }
        entry.consecutive += 1;
        if entry.consecutive >= self.threshold {
            entry.quarantined = true;
            return true;
        }
        false
    }

    /// Record a success: the failure streak resets, and a quarantined key
    /// is released (targets do come back).
    pub fn record_success(&self, key: &K) {
        let mut table = self.table();
        if let Some(entry) = table.get_mut(key) {
            entry.consecutive = 0;
            entry.quarantined = false;
        }
    }

    /// Is this key currently quarantined?
    pub fn is_quarantined(&self, key: &K) -> bool {
        self.table().get(key).map(|e| e.quarantined).unwrap_or(false)
    }

    /// Number of currently quarantined keys.
    pub fn quarantined_count(&self) -> usize {
        self.table().values().filter(|e| e.quarantined).count()
    }

    /// Number of keys with any recorded history.
    #[cfg(test)]
    pub(crate) fn tracked_count(&self) -> usize {
        self.table().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantines_after_threshold_consecutive_failures() {
        let q = Quarantine::new(3);
        assert!(!q.record_failure("a"));
        assert!(!q.record_failure("a"));
        assert!(!q.is_quarantined(&"a"));
        assert!(q.record_failure("a"));
        assert!(q.is_quarantined(&"a"));
        assert_eq!(q.quarantined_count(), 1);
        // Further failures are not "newly quarantined".
        assert!(!q.record_failure("a"));
    }

    #[test]
    fn success_resets_the_streak() {
        let q = Quarantine::new(2);
        assert!(!q.record_failure(7u32));
        q.record_success(&7);
        assert!(!q.record_failure(7));
        assert!(q.record_failure(7));
        assert!(q.is_quarantined(&7));
        // A success releases even a quarantined key.
        q.record_success(&7);
        assert!(!q.is_quarantined(&7));
    }

    #[test]
    fn keys_are_independent() {
        let q = Quarantine::new(1);
        q.record_failure("dead");
        assert!(q.is_quarantined(&"dead"));
        assert!(!q.is_quarantined(&"alive"));
        assert_eq!(q.tracked_count(), 1);
    }

    #[test]
    fn zero_threshold_behaves_like_one() {
        let q = Quarantine::new(0);
        assert!(q.record_failure(1u8));
        assert!(q.is_quarantined(&1));
    }

    #[test]
    fn shared_across_threads() {
        let q = Quarantine::new(8);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..4 {
                        q.record_failure(0u32);
                    }
                });
            }
        });
        assert!(q.is_quarantined(&0));
    }
}
