//! The per-shard timers: dial-retry backoff, handshake deadlines and the
//! shutdown grace period. A shard holds one per dial backing off, one per
//! connection opened within the handshake timeout and at most one shutdown
//! deadline, and none is ordered against another, so they sit in a plain
//! list: a push arms one, a scan pops the due ones or finds the next
//! deadline. That deadline is the shard's `epoll_wait` timeout, so a shard
//! sleeps in exactly one place.

use std::time::Instant;

/// Deadlines with their payloads, in no particular order.
pub(crate) struct Timers<T>(Vec<(Instant, T)>);

impl<T> Timers<T> {
    pub(crate) fn new() -> Self {
        Timers(Vec::new())
    }

    /// Arm `item` to fire at `due`; a due time in the past fires on the next
    /// [`pop_due`](Timers::pop_due).
    pub(crate) fn insert(&mut self, due: Instant, item: T) {
        self.0.push((due, item));
    }

    /// Move every entry due at or before `now` into `out`.
    pub(crate) fn pop_due(&mut self, now: Instant, out: &mut Vec<T>) {
        out.extend(
            self.0
                .extract_if(.., |(due, _)| *due <= now)
                .map(|(_, item)| item),
        );
    }

    /// The earliest deadline armed, if any.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.0.iter().map(|(due, _)| *due).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_only_what_is_due() {
        let t0 = Instant::now();
        let mut timers = Timers::new();
        timers.insert(t0 + Duration::from_millis(50), "b");
        timers.insert(t0 + Duration::from_millis(5), "a");
        assert_eq!(timers.next_due(), Some(t0 + Duration::from_millis(5)));
        let mut out = Vec::new();
        timers.pop_due(t0 + Duration::from_millis(10), &mut out);
        assert_eq!(out, vec!["a"]);
        assert_eq!(timers.next_due(), Some(t0 + Duration::from_millis(50)));
        timers.pop_due(t0 + Duration::from_millis(60), &mut out);
        assert_eq!(out, vec!["a", "b"]);
        assert_eq!(timers.next_due(), None);
    }

    #[test]
    fn past_due_entries_pop_immediately() {
        let t0 = Instant::now();
        let mut timers = Timers::new();
        timers.insert(t0, "late");
        let mut out = Vec::new();
        timers.pop_due(t0 + Duration::from_secs(2), &mut out);
        assert_eq!(out, vec!["late"]);
    }
}
