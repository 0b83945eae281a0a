//! Sequential stand-in for `rayon` (see `benchmark/README.md`, "Shims").
//!
//! Surface covered: `rayon::prelude::*` bringing
//! `slice.par_chunks_mut(n)`, optionally `.enumerate()`, ending in
//! `.for_each(op)` or `.for_each_init(init, op)`. Everything runs **in slice
//! order on the calling thread**, and `init` is called exactly once. The
//! `Send`/`Sync` bounds of the real crate are kept, so code that compiles
//! here makes the same promises there. Because nothing runs in parallel, the
//! benchmark measures only the sequential scan engines.

/// The names the real prelude exports that this shim covers.
pub mod prelude {
    pub use crate::ParallelSliceMut;
}

/// An in-order "parallel" iterator over `I`.
pub struct Sequential<I>(I);

impl<I: Iterator> Sequential<I> {
    /// Pairs each item with its index, as `ParallelIterator::enumerate`.
    pub fn enumerate(self) -> Sequential<std::iter::Enumerate<I>> {
        Sequential(self.0.enumerate())
    }

    /// Calls `op` on every item, in order.
    pub fn for_each<OP>(self, op: OP)
    where
        OP: Fn(I::Item) + Sync + Send,
    {
        self.0.for_each(op);
    }

    /// Calls `init` once, then `op(&mut state, item)` on every item, in order.
    pub fn for_each_init<T, INIT, OP>(self, init: INIT, op: OP)
    where
        INIT: Fn() -> T + Sync + Send,
        OP: Fn(&mut T, I::Item) + Sync + Send,
    {
        let mut state = init();
        self.0.for_each(|item| op(&mut state, item));
    }
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Non-overlapping mutable chunks of `chunk_size` elements (the last may
    /// be shorter), visited in order.
    ///
    /// # Panics
    /// If `chunk_size` is 0, like the real crate.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Sequential<std::slice::ChunksMut<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Sequential<std::slice::ChunksMut<'_, T>> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        Sequential(self.chunks_mut(chunk_size))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_visited_in_order_with_one_init() {
        let mut data: Vec<u32> = vec![0; 10];
        let inits = AtomicUsize::new(0);
        data.par_chunks_mut(4).enumerate().for_each_init(
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u32 // running count of chunks seen by this "worker"
            },
            |seen, (idx, chunk)| {
                assert_eq!(*seen as usize, idx, "chunks must arrive in slice order");
                *seen += 1;
                chunk.fill(idx as u32 + 1);
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(data, [1, 1, 1, 1, 2, 2, 2, 2, 3, 3], "last chunk is short");
    }

    #[test]
    fn without_enumerate_and_plain_for_each() {
        let mut data = vec![1u8; 6];
        data.par_chunks_mut(3)
            .for_each_init(|| 7u8, |k, c| c[0] = *k);
        data.par_chunks_mut(2).for_each(|c| c[1] = 9);
        assert_eq!(data, [7, 9, 1, 9, 1, 9]);
    }

    #[test]
    #[should_panic(expected = "chunk_size must not be zero")]
    fn zero_chunk_size_panics() {
        let mut data = [0u8; 2];
        data.par_chunks_mut(0).for_each(|_| {});
    }
}
