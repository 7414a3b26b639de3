//! A directory of lazily built, lock-free slots.
//!
//! The engine's dense id spaces — the RID-Map's row chunks, the version
//! arena's node chunks, the frozen-extent directory — are each a
//! directory of [`OnceLock`] slots addressed by index, built on first
//! use and read with two loads. Most engines use a handful of slots out
//! of tens of thousands, so the slots are not all built up front: the
//! first [`GROUP`] are (a few KiB), and the rest come [`GROUP`] at a
//! time as an index reaches them. A read below [`GROUP`] costs what a
//! flat table's does; a read above it takes one more load.

use std::sync::OnceLock;

/// Slots per group: the first group is built with the directory, every
/// later one when an index first reaches it.
pub const GROUP: usize = 256;

/// One group of slots.
type Slots<T> = Box<[OnceLock<T>]>;

/// Up to `capacity` slots of `T`, each set once and read lock-free.
pub struct LazyDir<T> {
    first: Slots<T>,
    rest: Box<[OnceLock<Slots<T>>]>,
}

impl<T> std::fmt::Debug for LazyDir<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyDir")
            .field("capacity", &self.capacity())
            .finish_non_exhaustive()
    }
}

fn slots<T>(n: usize) -> Slots<T> {
    (0..n).map(|_| OnceLock::new()).collect()
}

impl<T> LazyDir<T> {
    /// An empty directory of `capacity` slots (rounded up to a whole
    /// [`GROUP`]).
    pub fn new(capacity: usize) -> Self {
        let groups = capacity.div_ceil(GROUP).max(1);
        LazyDir {
            first: slots(GROUP),
            rest: slots(groups - 1),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        (self.rest.len() + 1) * GROUP
    }

    /// Slot `i`'s value, if it was set. `None` past the capacity.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        match i.checked_sub(GROUP) {
            None => self.first.get(i)?.get(),
            Some(j) => self.rest.get(j / GROUP)?.get()?.get(j % GROUP)?.get(),
        }
    }

    /// Slot `i`'s value, set by `init` if it was empty.
    ///
    /// # Panics
    ///
    /// If `i` is past the capacity.
    pub fn get_or_init(&self, i: usize, init: impl FnOnce() -> T) -> &T {
        assert!(i < self.capacity(), "slot {i} beyond the directory");
        let slot = match i.checked_sub(GROUP) {
            None => &self.first[i],
            Some(j) => &self.rest[j / GROUP].get_or_init(|| slots(GROUP))[j % GROUP],
        };
        slot.get_or_init(init)
    }

    /// The set slots from `from` on, in index order.
    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = (usize, &T)> + '_ {
        let first = self.first.iter().enumerate();
        let rest = self.rest.iter().enumerate().flat_map(|(g, group)| {
            let group = group.get().map(|g| g.iter()).into_iter().flatten();
            group
                .enumerate()
                .map(move |(i, slot)| ((g + 1) * GROUP + i, slot))
        });
        (first.chain(rest))
            .skip_while(move |&(i, _)| i < from)
            .filter_map(|(i, slot)| Some((i, slot.get()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_set_once_and_read_back() {
        let dir: LazyDir<u64> = LazyDir::new(4 * GROUP);
        assert_eq!(dir.capacity(), 4 * GROUP);
        for i in [0, GROUP - 1, GROUP, 3 * GROUP + 7, 4 * GROUP - 1] {
            assert_eq!(dir.get(i), None);
            assert_eq!(dir.get_or_init(i, || i as u64), &(i as u64));
            assert_eq!(dir.get_or_init(i, || 0), &(i as u64), "set once");
            assert_eq!(dir.get(i), Some(&(i as u64)));
        }
        assert_eq!(dir.get(4 * GROUP), None);
        let set: Vec<usize> = dir.iter_from(GROUP).map(|(i, _)| i).collect();
        assert_eq!(set, vec![GROUP, 3 * GROUP + 7, 4 * GROUP - 1]);
        assert_eq!(dir.iter_from(0).count(), 5);
    }

    #[test]
    fn only_the_groups_an_index_reached_are_built() {
        let dir: LazyDir<u8> = LazyDir::new(1 << 15);
        assert_eq!(dir.capacity(), 1 << 15);
        dir.get_or_init(5 * GROUP + 1, || 1);
        let built = dir.rest.iter().filter(|g| g.get().is_some()).count();
        assert_eq!(built, 1);
    }
}
