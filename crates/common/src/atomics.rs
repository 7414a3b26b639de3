//! Atomic orderings live in the type.
//!
//! Every cross-thread atomic in the engine crates is one of three
//! wrappers, named after the protocol the field takes part in:
//!
//! * [`Relaxed`] — counters, byte accounting, hints, id allocators and
//!   advisory flags. Every access is `Relaxed`.
//! * [`AcqRel`] — release/acquire publication: a version-chain link, a
//!   RID-Map word, a commit stamp, a buffer-cache capacity. Loads
//!   are `Acquire`, stores `Release`, read-modify-writes `AcqRel`, and a
//!   compare-exchange is `(AcqRel, Acquire)`.
//! * [`SeqCst`] — a store-load (Dekker-style) protocol in which total
//!   order matters: the transaction registry's slots and the row-move
//!   counters. Every access is `SeqCst`, and so is [`fence`].
//!
//! No method takes an [`Ordering`](std::sync::atomic::Ordering), so a
//! weaker access cannot be written: the field's type is its ordering.
//! The type parameter is the value type (`Relaxed<u64>` wraps an
//! `AtomicU64`), and each wrapper has the size and alignment of the std
//! atomic it wraps.
//!
//! The std atomic types are disallowed in the engine crates
//! (`clippy.toml`, denied at each crate root); this module is the one
//! place that names them.
//!
//! ```
//! use btrim_common::atomics::{AcqRel, Relaxed};
//! fn publish(link: &AcqRel<u64>) {
//!     link.store(1);
//! }
//! let published = AcqRel::new(0u64);
//! publish(&published);
//! assert_eq!(published.load(), 1);
//! assert_eq!(published.compare_exchange(1, 2), Ok(1));
//! let hits = Relaxed::new(0u64);
//! hits.fetch_add(1);
//! ```
//!
//! Each block below differs from that one only where it fails to
//! compile. An access takes its wrapper's ordering:
//!
//! ```compile_fail,E0061
//! use btrim_common::atomics::AcqRel;
//! let published = AcqRel::new(0u64);
//! published.load(std::sync::atomic::Ordering::Relaxed);
//! ```
//!
//! ```compile_fail,E0061
//! use btrim_common::atomics::AcqRel;
//! let published = AcqRel::new(0u64);
//! published.store(1, std::sync::atomic::Ordering::Relaxed);
//! ```
//!
//! ```compile_fail,E0061
//! use btrim_common::atomics::AcqRel;
//! let published = AcqRel::new(0u64);
//! let _ = published.compare_exchange(
//!     0,
//!     1,
//!     std::sync::atomic::Ordering::AcqRel,
//!     std::sync::atomic::Ordering::Relaxed,
//! );
//! ```
//!
//! and a field of one protocol does not stand in for another:
//!
//! ```compile_fail,E0308
//! use btrim_common::atomics::{AcqRel, Relaxed};
//! fn publish(link: &AcqRel<u64>) {
//!     link.store(1);
//! }
//! publish(&Relaxed::new(0u64));
//! ```

use std::fmt;
use std::sync::atomic::Ordering;

/// The value types an atomic wrapper can hold, and the std atomic each
/// one is stored as. Sealed: its methods are only reachable through a
/// wrapper, which supplies the ordering.
pub trait Atom: sealed::Atom {}

/// The integer subset of [`Atom`]: the arithmetic read-modify-writes.
pub trait Int: Atom + sealed::Int {}

mod sealed {
    use std::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    pub trait Atom: Copy {
        type Cell: Default + Send + Sync;
        fn cell(v: Self) -> Self::Cell;
        fn load(c: &Self::Cell, o: Ordering) -> Self;
        fn store(c: &Self::Cell, v: Self, o: Ordering);
        fn swap(c: &Self::Cell, v: Self, o: Ordering) -> Self;
        fn compare_exchange(
            c: &Self::Cell,
            current: Self,
            new: Self,
            success: Ordering,
            failure: Ordering,
        ) -> Result<Self, Self>;
        fn fetch_update(
            c: &Self::Cell,
            set: Ordering,
            fetch: Ordering,
            f: impl FnMut(Self) -> Option<Self>,
        ) -> Result<Self, Self>;
    }

    pub trait Int: Atom {
        fn fetch_add(c: &Self::Cell, v: Self, o: Ordering) -> Self;
        fn fetch_sub(c: &Self::Cell, v: Self, o: Ordering) -> Self;
        fn fetch_max(c: &Self::Cell, v: Self, o: Ordering) -> Self;
        fn fetch_or(c: &Self::Cell, v: Self, o: Ordering) -> Self;
        fn fetch_and(c: &Self::Cell, v: Self, o: Ordering) -> Self;
    }

    macro_rules! atom {
        ($($t:ty => $cell:ty),*) => {$(
            impl Atom for $t {
                type Cell = $cell;
                #[inline(always)]
                fn cell(v: Self) -> $cell {
                    <$cell>::new(v)
                }
                #[inline(always)]
                fn load(c: &$cell, o: Ordering) -> Self {
                    c.load(o)
                }
                #[inline(always)]
                fn store(c: &$cell, v: Self, o: Ordering) {
                    c.store(v, o)
                }
                #[inline(always)]
                fn swap(c: &$cell, v: Self, o: Ordering) -> Self {
                    c.swap(v, o)
                }
                #[inline(always)]
                fn compare_exchange(
                    c: &$cell,
                    current: Self,
                    new: Self,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<Self, Self> {
                    c.compare_exchange(current, new, success, failure)
                }
                #[inline(always)]
                fn fetch_update(
                    c: &$cell,
                    set: Ordering,
                    fetch: Ordering,
                    f: impl FnMut(Self) -> Option<Self>,
                ) -> Result<Self, Self> {
                    c.fetch_update(set, fetch, f)
                }
            }
            impl super::Atom for $t {}
        )*};
    }

    macro_rules! int {
        ($($t:ty),*) => {$(
            impl Int for $t {
                #[inline(always)]
                fn fetch_add(c: &Self::Cell, v: Self, o: Ordering) -> Self {
                    c.fetch_add(v, o)
                }
                #[inline(always)]
                fn fetch_sub(c: &Self::Cell, v: Self, o: Ordering) -> Self {
                    c.fetch_sub(v, o)
                }
                #[inline(always)]
                fn fetch_max(c: &Self::Cell, v: Self, o: Ordering) -> Self {
                    c.fetch_max(v, o)
                }
                #[inline(always)]
                fn fetch_or(c: &Self::Cell, v: Self, o: Ordering) -> Self {
                    c.fetch_or(v, o)
                }
                #[inline(always)]
                fn fetch_and(c: &Self::Cell, v: Self, o: Ordering) -> Self {
                    c.fetch_and(v, o)
                }
            }
            impl super::Int for $t {}
        )*};
    }

    atom!(
        bool => AtomicBool,
        u8 => AtomicU8,
        u32 => AtomicU32,
        u64 => AtomicU64,
        usize => AtomicUsize,
        i64 => AtomicI64
    );
    int!(u32, u64, usize, i64);
}

/// One wrapper per protocol: `$load` for loads (and a CAS's failure
/// side), `$store` for stores, `$rmw` for read-modify-writes.
macro_rules! wrapper {
    ($(#[$doc:meta])* $name:ident { load: $load:ident, store: $store:ident, rmw: $rmw:ident }) => {
        $(#[$doc])*
        #[repr(transparent)]
        pub struct $name<T: Atom>(<T as sealed::Atom>::Cell);

        impl<T: Atom> $name<T> {
            #[inline]
            pub fn new(v: T) -> Self {
                Self(T::cell(v))
            }
            #[inline]
            pub fn load(&self) -> T {
                T::load(&self.0, Ordering::$load)
            }
            #[inline]
            pub fn store(&self, v: T) {
                T::store(&self.0, v, Ordering::$store)
            }
            #[inline]
            pub fn swap(&self, v: T) -> T {
                T::swap(&self.0, v, Ordering::$rmw)
            }
            #[inline]
            pub fn compare_exchange(&self, current: T, new: T) -> Result<T, T> {
                T::compare_exchange(&self.0, current, new, Ordering::$rmw, Ordering::$load)
            }
            #[inline]
            pub fn fetch_update(&self, f: impl FnMut(T) -> Option<T>) -> Result<T, T> {
                T::fetch_update(&self.0, Ordering::$rmw, Ordering::$load, f)
            }
        }

        impl<T: Int> $name<T> {
            #[inline]
            pub fn fetch_add(&self, v: T) -> T {
                T::fetch_add(&self.0, v, Ordering::$rmw)
            }
            #[inline]
            pub fn fetch_sub(&self, v: T) -> T {
                T::fetch_sub(&self.0, v, Ordering::$rmw)
            }
            #[inline]
            pub fn fetch_max(&self, v: T) -> T {
                T::fetch_max(&self.0, v, Ordering::$rmw)
            }
            #[inline]
            pub fn fetch_or(&self, v: T) -> T {
                T::fetch_or(&self.0, v, Ordering::$rmw)
            }
            #[inline]
            pub fn fetch_and(&self, v: T) -> T {
                T::fetch_and(&self.0, v, Ordering::$rmw)
            }
        }

        impl<T: Atom> Default for $name<T> {
            fn default() -> Self {
                Self(Default::default())
            }
        }

        impl<T: Atom + fmt::Debug> fmt::Debug for $name<T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.load().fmt(f)
            }
        }
    };
}

wrapper!(
    /// Counters, hints, id allocators, advisory flags: every access is
    /// `Relaxed`.
    Relaxed { load: Relaxed, store: Relaxed, rmw: Relaxed }
);

wrapper!(
    /// Release/acquire publication: loads `Acquire`, stores `Release`,
    /// read-modify-writes `AcqRel`, compare-exchange `(AcqRel, Acquire)`.
    AcqRel { load: Acquire, store: Release, rmw: AcqRel }
);

wrapper!(
    /// A store-load protocol in which total order matters: every access
    /// is `SeqCst`.
    SeqCst { load: SeqCst, store: SeqCst, rmw: SeqCst }
);

/// A `SeqCst` fence, the other half of the [`SeqCst`] protocol.
#[inline]
pub fn fence() {
    std::sync::atomic::fence(Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{align_of, size_of};

    fn same_layout<W, T: Atom>() {
        assert_eq!(size_of::<W>(), size_of::<<T as sealed::Atom>::Cell>());
        assert_eq!(align_of::<W>(), align_of::<<T as sealed::Atom>::Cell>());
    }

    #[test]
    fn each_wrapper_has_the_size_and_alignment_of_its_atomic() {
        fn all<T: Atom>() {
            same_layout::<Relaxed<T>, T>();
            same_layout::<AcqRel<T>, T>();
            same_layout::<SeqCst<T>, T>();
        }
        all::<bool>();
        all::<u8>();
        all::<u32>();
        all::<u64>();
        all::<usize>();
        all::<i64>();
        assert_eq!(size_of::<AcqRel<u64>>(), 8);
        assert_eq!(align_of::<AcqRel<u64>>(), 8);
    }

    #[test]
    fn wrappers_read_back_what_they_write() {
        let a = AcqRel::new(5u64);
        assert_eq!(a.compare_exchange(4, 9), Err(5));
        assert_eq!(a.compare_exchange(5, 9), Ok(5));
        assert_eq!(a.fetch_update(|v| v.checked_sub(1)), Ok(9));
        assert_eq!(a.load(), 8);
        let r = Relaxed::<i64>::default();
        r.fetch_sub(2);
        assert_eq!(r.fetch_max(-5), -2);
        assert_eq!(format!("{r:?}"), "-2");
        let s = SeqCst::new(false);
        assert!(!s.swap(true));
        assert!(s.load());
    }
}
