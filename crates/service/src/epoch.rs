//! Copy-on-write epoch snapshots: the cell behind the store's lock-free
//! read path.
//!
//! A [`SnapshotCell`] holds the current immutable state of one shard behind
//! an `Arc`. Readers call [`SnapshotCell::load`] and get their own reference
//! to a consistent snapshot; mutators build the *next* state off to the side
//! (typically via `Arc::make_mut`) and [`SnapshotCell::publish`] it as a
//! single pointer swap. Readers therefore never wait behind mutation work —
//! spec clones, cache invalidation, WAL appends and fsyncs all happen
//! before the publish, outside the cell's critical section.
//!
//! The crate forbids `unsafe`, so the swap is guarded by a plain `RwLock`
//! rather than a hand-rolled atomic pointer. The lock is only ever held for
//! the O(1) clone/swap of the `Arc` itself — the cell's contention profile
//! is that of an atomic, not of the data behind it. Memory reclamation is
//! `Arc`'s reference count: a superseded snapshot stays alive exactly as
//! long as the last holder keeps it, then drops — no epochs to advance, no
//! deferred free lists. [`SnapshotCell::publish`] hands the superseded
//! `Arc` back instead of dropping it under the lock, so a publisher that
//! holds the last reference frees the old state (possibly a whole
//! specification and its matrix) where no reader waits on it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// One shard's current immutable state, swapped atomically on publish.
#[derive(Debug)]
pub(crate) struct SnapshotCell<T> {
    current: RwLock<Arc<T>>,
    publishes: AtomicU64,
}

impl<T> SnapshotCell<T> {
    /// Wraps the initial state.
    pub(crate) fn new(initial: T) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(initial)),
            publishes: AtomicU64::new(0),
        }
    }

    /// The current snapshot. O(1): an `Arc` clone under a momentary read
    /// lock; never blocks behind in-progress mutation work.
    pub(crate) fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.read())
    }

    /// Atomically replaces the current snapshot and returns the one it
    /// superseded. O(1): a pointer swap under a momentary write lock. The
    /// caller drops the returned `Arc` once it holds no lock readers or
    /// writers wait on — if it is the last reference, that drop frees the
    /// old state.
    #[must_use = "dropping the superseded snapshot may free the old state; drop it outside every lock"]
    pub(crate) fn publish(&self, next: Arc<T>) -> Arc<T> {
        let previous = std::mem::replace(&mut *self.current.write(), next);
        self.publishes.fetch_add(1, Ordering::Relaxed);
        previous
    }

    /// How many snapshots have been published (the initial state counts as
    /// zero).
    pub(crate) fn publish_count(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{OnceLock, Weak};

    #[test]
    fn load_returns_the_published_snapshot() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let before = cell.load();
        assert_eq!(*before, vec![1, 2, 3]);
        assert_eq!(cell.publish_count(), 0);

        // copy-on-write mutation: readers holding `before` are unaffected
        let mut next = cell.load();
        Arc::make_mut(&mut next).push(4);
        let previous = cell.publish(next);
        assert_eq!(*previous, vec![1, 2, 3]);

        assert_eq!(*cell.load(), vec![1, 2, 3, 4]);
        assert_eq!(*before, vec![1, 2, 3], "old snapshot stays consistent");
        assert_eq!(cell.publish_count(), 1);
    }

    #[test]
    fn make_mut_does_not_clone_when_unshared() {
        let cell = SnapshotCell::new(String::from("state"));
        let mut next = cell.load();
        // two references exist (cell + next): make_mut clones...
        Arc::make_mut(&mut next).push('!');
        drop(cell.publish(next));
        assert_eq!(*cell.load(), "state!");
    }

    /// A payload whose drop records whether the cell it was published in
    /// could be read at that moment.
    struct Probe {
        cell: Arc<OnceLock<Weak<SnapshotCell<Probe>>>>,
        unlocked_drops: Arc<AtomicU64>,
        locked_drops: Arc<AtomicU64>,
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            // the cell itself is gone once the test tears it down
            if let Some(cell) = self.cell.get().and_then(Weak::upgrade) {
                let counter = if cell.current.try_read().is_some() {
                    &self.unlocked_drops
                } else {
                    &self.locked_drops
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn superseded_state_is_dropped_outside_the_cell_lock() {
        let handle = Arc::new(OnceLock::new());
        let unlocked = Arc::new(AtomicU64::new(0));
        let locked = Arc::new(AtomicU64::new(0));
        let probe = || Probe {
            cell: Arc::clone(&handle),
            unlocked_drops: Arc::clone(&unlocked),
            locked_drops: Arc::clone(&locked),
        };
        let cell = Arc::new(SnapshotCell::new(probe()));
        assert!(handle.set(Arc::downgrade(&cell)).is_ok());
        // no reader holds the current state, so publish hands back its last
        // reference and the drop below frees it
        let previous = cell.publish(Arc::new(probe()));
        assert_eq!(Arc::strong_count(&previous), 1);
        drop(previous);
        assert_eq!(
            locked.load(Ordering::Relaxed),
            0,
            "dropped under the cell's lock"
        );
        assert_eq!(unlocked.load(Ordering::Relaxed), 1);
    }
}
