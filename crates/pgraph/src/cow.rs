//! A chunked copy-on-write vector: the store behind a [`Graph`]'s
//! vertices, edges and per-type id lists.
//!
//! Elements live in fixed-size chunks behind `Arc`s; the vector itself is
//! the spine of chunk pointers. Cloning copies the spine (one `Arc` bump
//! per [`CHUNK`] elements) and shares every chunk; a write copies only
//! the chunk it lands in, and only if another clone still holds it. That
//! is what makes a published snapshot share everything a mutation batch
//! did not touch with its predecessor.
//!
//! [`Graph`]: crate::graph::Graph

use std::ops::Index;
use std::sync::Arc;

/// Elements per chunk — of this vector by default and, in vertices, of
/// the CSR adjacency chunks in [`crate::graph`]. A power of two, so
/// locating an element is a shift and a mask. A write to a shared chunk
/// copies at most this many elements.
pub(crate) const CHUNK: usize = 256;

/// `N` elements per chunk (a power of two; [`CHUNK`] unless an element
/// is costly to copy).
#[derive(Debug)]
pub(crate) struct CowVec<T, const N: usize = CHUNK> {
    /// Fixed-size chunks, so an element is two loads from the spine and
    /// its position inside a chunk needs no bounds check. Slots at and
    /// past `len` in the last chunk hold `T::default()` and are never
    /// handed out.
    chunks: Vec<Arc<[T; N]>>,
    len: usize,
}

impl<T, const N: usize> Default for CowVec<T, N> {
    fn default() -> Self {
        CowVec { chunks: Vec::new(), len: 0 }
    }
}

// Not derived: sharing chunks needs no `T: Clone`.
impl<T, const N: usize> Clone for CowVec<T, N> {
    fn clone(&self) -> Self {
        CowVec { chunks: self.chunks.clone(), len: self.len }
    }
}

impl<T, const N: usize> CowVec<T, N> {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        if i < self.len {
            Some(&self.chunks[i / N][i % N])
        } else {
            None
        }
    }

    pub(crate) fn last(&self) -> Option<&T> {
        self.get(self.len.wrapping_sub(1))
    }

    /// The elements as one slice per chunk, in order.
    pub(crate) fn slices(&self) -> impl Iterator<Item = &[T]> + '_ {
        let last = self.chunks.len().saturating_sub(1);
        self.chunks
            .iter()
            .enumerate()
            .map(move |(ci, c)| if ci == last { &c[..=(self.len - 1) % N] } else { &c[..] })
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.slices().flatten()
    }

    /// How many of this vector's chunks are the very same allocation as
    /// the chunk at that position in `other`.
    pub(crate) fn shared_chunks(&self, other: &CowVec<T, N>) -> usize {
        self.chunks.iter().zip(&other.chunks).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl<T: Clone + Default, const N: usize> CowVec<T, N> {
    pub(crate) fn push(&mut self, value: T) {
        if self.len.is_multiple_of(N) {
            self.chunks.push(Arc::new(std::array::from_fn(|_| T::default())));
        }
        self.len += 1;
        *self.get_mut(self.len - 1) = value;
    }

    /// Mutable access to element `i`. A chunk some other clone still
    /// holds is copied first (element clones only — for the graph's
    /// stores those are `Arc` bumps and plain integers).
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of range for length {}", self.len);
        &mut Arc::make_mut(&mut self.chunks[i / N])[i % N]
    }
}

impl<T, const N: usize> Index<usize> for CowVec<T, N> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        self.get(i).expect("index out of range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_index_iterate_across_chunks() {
        let mut v: CowVec<usize> = CowVec::default();
        assert!(v.is_empty() && v.last().is_none() && v.get(0).is_none());
        for i in 0..2 * CHUNK + 3 {
            v.push(i);
        }
        assert_eq!(v.len(), 2 * CHUNK + 3);
        assert_eq!(v.chunk_count(), 3);
        assert_eq!(v[CHUNK], CHUNK);
        assert_eq!(v.get(2 * CHUNK + 2), Some(&(2 * CHUNK + 2)));
        assert_eq!(v.get(2 * CHUNK + 3), None);
        assert_eq!(v.last(), Some(&(2 * CHUNK + 2)));
        assert!(v.iter().copied().eq(0..2 * CHUNK + 3));
    }

    #[test]
    fn writes_copy_only_the_chunk_they_land_in() {
        let mut a: CowVec<usize> = CowVec::default();
        for i in 0..3 * CHUNK {
            a.push(i);
        }
        let pinned = a.clone();
        assert_eq!(a.shared_chunks(&pinned), 3);
        *a.get_mut(CHUNK + 1) = 0;
        a.push(7); // opens a fourth chunk
        assert_eq!(a.shared_chunks(&pinned), 2);
        // The clone still reads what it was cloned with.
        assert_eq!(pinned[CHUNK + 1], CHUNK + 1);
        assert_eq!(pinned.len(), 3 * CHUNK);
        assert_eq!(a[CHUNK + 1], 0);
        // A second write to the now-private chunk copies nothing more.
        *a.get_mut(CHUNK + 2) = 0;
        assert_eq!(a.shared_chunks(&pinned), 2);
    }
}
