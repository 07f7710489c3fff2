//! The parallel-iterator surface: `par_iter` over slices, the `map` and
//! `map_init` adaptors, and `collect`.
//!
//! Every chain bottoms out in [`ParallelIterator::fold_chunks`], the one
//! driver primitive: fold each contiguous chunk of the source
//! sequentially (in source order) on a worker and return the per-chunk
//! accumulators ordered by chunk index. The adaptors implement it by
//! composing their transform into the fold closure — no intermediate
//! allocation per stage — and `collect` stitches the ordered chunk
//! results back together.

use crate::executor;

/// An iterator whose items are folded on parallel worker threads.
///
/// # Determinism contract
///
/// `collect` preserves source order exactly, whatever the thread count;
/// the sweep differential tests pin the resulting byte-for-byte report
/// equality across thread counts.
pub trait ParallelIterator: Sized {
    /// The element type.
    type Item: Send;

    /// The driver primitive (see the trait docs): sequentially fold each
    /// contiguous chunk of the source on a worker, returning per-chunk
    /// accumulators in chunk order.
    fn fold_chunks<A, ID, F>(self, init: ID, fold: F) -> Vec<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, Self::Item) -> A + Sync;

    /// Transform every item.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// [`ParallelIterator::map`] with mutable per-worker state: `init`
    /// creates one `T` per chunk (lazily, at the chunk's first item) and
    /// `f` receives `&mut T` alongside each item of that chunk.
    ///
    /// Mirrors rayon's `map_init`: the state is an *amortisation*
    /// vehicle (scratch buffers, reusable run contexts), and because
    /// chunk boundaries shift with the thread count, `f`'s **results
    /// must not depend on the state's history** — only its capacity.
    /// Output order is the source order, exactly as with `map`.
    fn map_init<INIT, T, R, F>(self, init: INIT, f: F) -> MapInit<Self, INIT, F>
    where
        INIT: Fn() -> T + Sync,
        T: Send,
        R: Send,
        F: Fn(&mut T, Self::Item) -> R + Sync,
    {
        MapInit { base: self, init, f }
    }

    /// Gather all items, preserving source order exactly.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.fold_chunks(Vec::new, |mut acc, item| {
            acc.push(item);
            acc
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Borrowing parallel iterator over a slice — the result of
/// [`IntoParallelRefIterator::par_iter`].
#[derive(Clone, Copy, Debug)]
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;

    fn fold_chunks<A, ID, F>(self, init: ID, fold: F) -> Vec<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, &'a T) -> A + Sync,
    {
        executor::fold_slice(self.slice, &init, &fold)
    }
}

/// See [`ParallelIterator::map`].
#[derive(Clone, Debug)]
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    type Item = R;

    fn fold_chunks<A, ID, G>(self, init: ID, fold: G) -> Vec<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, R) -> A + Sync,
    {
        let Map { base, f } = self;
        base.fold_chunks(init, move |acc, item| fold(acc, f(item)))
    }
}

/// See [`ParallelIterator::map_init`].
#[derive(Clone, Debug)]
pub struct MapInit<I, INIT, F> {
    base: I,
    init: INIT,
    f: F,
}

impl<I, INIT, T, R, F> ParallelIterator for MapInit<I, INIT, F>
where
    I: ParallelIterator,
    INIT: Fn() -> T + Sync,
    T: Send,
    R: Send,
    F: Fn(&mut T, I::Item) -> R + Sync,
{
    type Item = R;

    fn fold_chunks<A, ID, G>(self, init_acc: ID, fold: G) -> Vec<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, R) -> A + Sync,
    {
        let MapInit { base, init, f } = self;
        // Thread the per-chunk state through the accumulator: each
        // chunk's fold starts with `None` and materialises its `T` at
        // the first item, so the state is created exactly once per
        // chunk and never crosses a chunk boundary.
        base.fold_chunks(
            move || (None::<T>, init_acc()),
            move |(mut state, acc), item| {
                let r = f(state.get_or_insert_with(&init), item);
                (state, fold(acc, r))
            },
        )
        .into_iter()
        .map(|(_, acc)| acc)
        .collect()
    }
}

/// `par_iter()` over slices (and `Vec`, arrays, … via deref).
pub trait IntoParallelRefIterator<T: Sync> {
    /// Parallel iterator by reference.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> IntoParallelRefIterator<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { slice: self }
    }
}
