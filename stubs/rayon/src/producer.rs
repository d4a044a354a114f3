//! Splittable work descriptions behind the parallel-iterator surface.
//!
//! A [`Producer`] is a finite, index-splittable description of work: the execution
//! engine in `pool.rs` carves one producer into contiguous pieces with
//! [`Producer::split_at`], hands the pieces to pool workers, and each worker drains
//! its piece sequentially through [`Producer::into_seq`]. Because pieces are
//! contiguous index ranges and results are collected back *by piece index*, every
//! order-sensitive driver (`collect`, most importantly) reproduces the sequential
//! order bit-for-bit no matter how the pieces were scheduled.
//!
//! The `map` producer shares its closure across pieces through an [`Arc`],
//! mirroring rayon's `Sync` closure contract: splitting is an `Arc` clone, never a
//! closure clone.

use std::sync::Arc;

/// A splittable, exactly-sized description of parallel work — every producer here
/// is indexed in upstream rayon's sense (`IndexedParallelIterator`).
///
/// `split_at(i)` must partition the work so that
/// `head.into_seq().chain(tail.into_seq())` yields exactly what `self.into_seq()`
/// would have — that invariant is what makes parallel `collect` order-preserving.
pub trait Producer: Sized + Send {
    /// The produced item type.
    type Item: Send;
    /// Sequential iterator over one piece.
    type SeqIter: Iterator<Item = Self::Item>;

    /// Number of splittable work units (= produced items) left.
    fn len(&self) -> usize;

    /// True if no work units remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits into the first `index` work units and the rest.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Drains this piece sequentially, in index order.
    fn into_seq(self) -> Self::SeqIter;
}

/// Carves `producer` into `pieces` contiguous, near-equal parts (sizes differ by at
/// most one), preserving index order.
pub(crate) fn split_into<P: Producer>(mut producer: P, pieces: usize) -> Vec<P> {
    let mut out = Vec::with_capacity(pieces);
    let mut remaining_len = producer.len();
    let mut remaining_pieces = pieces.max(1);
    while remaining_pieces > 1 {
        let take = remaining_len.div_ceil(remaining_pieces);
        let (head, tail) = producer.split_at(take);
        out.push(head);
        producer = tail;
        remaining_len -= take;
        remaining_pieces -= 1;
    }
    out.push(producer);
    out
}

// ---------------------------------------------------------------------------
// Source producers
// ---------------------------------------------------------------------------

/// `&[T]` source (`par_iter`).
pub struct SliceProducer<'a, T> {
    pub(crate) slice: &'a [T],
}

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type SeqIter = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.slice.split_at(index);
        (Self { slice: head }, Self { slice: tail })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.iter()
    }
}

/// `&mut [T]` source (`par_iter_mut`).
pub struct SliceMutProducer<'a, T> {
    pub(crate) slice: &'a mut [T],
}

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    type SeqIter = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.slice.split_at_mut(index);
        (Self { slice: head }, Self { slice: tail })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.iter_mut()
    }
}

/// `&mut [T]` in fixed-size chunks (`par_chunks_mut`). One work unit = one chunk, so
/// splits never land inside a chunk and zipped per-chunk state stays aligned.
pub struct ChunksMutProducer<'a, T> {
    pub(crate) slice: &'a mut [T],
    pub(crate) chunk_size: usize,
}

impl<'a, T: Send> Producer for ChunksMutProducer<'a, T> {
    type Item = &'a mut [T];
    type SeqIter = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk_size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk_size).min(self.slice.len());
        let (head, tail) = self.slice.split_at_mut(mid);
        (
            Self {
                slice: head,
                chunk_size: self.chunk_size,
            },
            Self {
                slice: tail,
                chunk_size: self.chunk_size,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.chunks_mut(self.chunk_size)
    }
}

/// Owned `Vec<T>` source (`into_par_iter`). Splitting moves the tail into a fresh
/// allocation — fine for a stub, and only on the parallel path.
pub struct VecProducer<T> {
    pub(crate) vec: Vec<T>,
}

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type SeqIter = std::vec::IntoIter<T>;

    fn len(&self) -> usize {
        self.vec.len()
    }

    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.vec.split_off(index);
        (self, Self { vec: tail })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.vec.into_iter()
    }
}

/// Integer range source (`(a..b).into_par_iter()`).
pub struct RangeProducer<T> {
    pub(crate) range: std::ops::Range<T>,
}

macro_rules! range_producer {
    ($t:ty) => {
        impl Producer for RangeProducer<$t> {
            type Item = $t;
            type SeqIter = std::ops::Range<$t>;

            fn len(&self) -> usize {
                self.range.end.saturating_sub(self.range.start) as usize
            }

            fn split_at(self, index: usize) -> (Self, Self) {
                let mid = self.range.start + index as $t;
                (
                    Self {
                        range: self.range.start..mid,
                    },
                    Self {
                        range: mid..self.range.end,
                    },
                )
            }

            fn into_seq(self) -> Self::SeqIter {
                self.range
            }
        }
    };
}

range_producer!(u64);
range_producer!(usize);

// ---------------------------------------------------------------------------
// Combinator producers
// ---------------------------------------------------------------------------

/// `map` combinator; the closure is shared across pieces via `Arc`.
pub struct MapProducer<P, F> {
    pub(crate) base: P,
    pub(crate) f: Arc<F>,
}

impl<P, F, R> Producer for MapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;
    type SeqIter = MapSeqIter<P::SeqIter, F>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.base.split_at(index);
        (
            Self {
                base: head,
                f: Arc::clone(&self.f),
            },
            Self {
                base: tail,
                f: self.f,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        MapSeqIter {
            inner: self.base.into_seq(),
            f: self.f,
        }
    }
}

/// Sequential side of [`MapProducer`].
pub struct MapSeqIter<I, F> {
    inner: I,
    f: Arc<F>,
}

impl<I, F, R> Iterator for MapSeqIter<I, F>
where
    I: Iterator,
    F: Fn(I::Item) -> R,
{
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.inner.next().map(|item| (self.f)(item))
    }
}

/// `zip` combinator; both sides split at the same index, so zipped pairs are
/// identical to the sequential pairing regardless of piece boundaries.
pub struct ZipProducer<A, B> {
    pub(crate) a: A,
    pub(crate) b: B,
}

impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type SeqIter = std::iter::Zip<A::SeqIter, B::SeqIter>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a_head, a_tail) = self.a.split_at(index);
        let (b_head, b_tail) = self.b.split_at(index);
        (
            Self {
                a: a_head,
                b: b_head,
            },
            Self {
                a: a_tail,
                b: b_tail,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        self.a.into_seq().zip(self.b.into_seq())
    }
}
