//! A block-shared vector: copy-on-write storage whose clone costs one
//! handle per block.
//!
//! [`BlockVec`] divides its elements into fixed-size blocks, each behind
//! its own `Arc`. Cloning copies only the block handles, and a mutable
//! access runs `Arc::make_mut` on the one block it touches, so it copies
//! that block only if another clone still shares it. Two versions of a
//! structure therefore share every block an edit did not write, and
//! dropping the older version frees only the blocks the edit replaced. The
//! serving layer's copy-on-write commit clones a whole [`crate::DiGraph`]
//! and [`crate::ReachMatrix`] per edit; with block sharing that clone is a
//! few hundred handle copies instead of a deep copy of every slot and row.
//!
//! Blocks are contiguous `[T]` slices, so a consumer that aligns its own
//! records to the block length (the matrix stores a whole number of rows
//! per block) can borrow a record as one slice through
//! [`BlockVec::block_slice`].

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Minimum elements per block of a [`BlockVec`] built by
/// [`BlockVec::new`] or `collect()`.
pub const BLOCK_LEN: usize = 64;

/// Bytes a block of a [`BlockVec`] built by [`BlockVec::new`] or
/// `collect()` fills when its elements are small: a scan then follows one
/// block handle per 4 KiB, not per 64 elements.
const BLOCK_BYTES: usize = 4096;

/// Elements per block of a [`BlockVec`] built by [`BlockVec::new`] or
/// `collect()`: [`BLOCK_LEN`], or as many as fill 4 KiB if that is more.
#[must_use]
pub const fn default_block_len<T>() -> usize {
    let by_size = BLOCK_BYTES
        / if size_of::<T>() == 0 {
            1
        } else {
            size_of::<T>()
        };
    if by_size > BLOCK_LEN {
        by_size
    } else {
        BLOCK_LEN
    }
}

/// A vector of `T` stored in copy-on-write blocks of `block_len` elements.
///
/// Element `i` is element `i % block_len` of block `i / block_len`; every
/// block but the last is full.
pub struct BlockVec<T> {
    blocks: Vec<Arc<Vec<T>>>,
    block_len: usize,
    len: usize,
}

impl<T> BlockVec<T> {
    /// An empty vector with [`default_block_len`] elements per block.
    #[must_use]
    pub fn new() -> Self {
        Self::from_blocks(default_block_len::<T>(), Vec::new())
    }

    /// Adopts `blocks` as the blocks of a vector with `block_len` elements
    /// per block, without copying their elements.
    ///
    /// # Panics
    /// Panics if `block_len` is zero, or if a block other than the last
    /// does not hold exactly `block_len` elements (or the last more).
    #[must_use]
    pub fn from_blocks(block_len: usize, blocks: Vec<Vec<T>>) -> Self {
        assert!(block_len > 0, "a block holds at least one element");
        let last = blocks.len().saturating_sub(1);
        let mut len = 0;
        for (b, block) in blocks.iter().enumerate() {
            assert!(
                block.len() == block_len || (b == last && block.len() <= block_len),
                "block {b} holds {} of {block_len} elements",
                block.len()
            );
            len += block.len();
        }
        BlockVec {
            blocks: blocks.into_iter().map(Arc::new).collect(),
            block_len,
            len,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `len` elements of block `b` from `offset` on, as one slice: the
    /// record accessor for consumers that lay whole records out inside
    /// blocks.
    ///
    /// # Panics
    /// Panics if the range leaves block `b` or the vector.
    #[inline]
    #[must_use]
    pub fn block_slice(&self, b: usize, offset: usize, len: usize) -> &[T] {
        &self.blocks[b][offset..offset + len]
    }

    /// A reference to element `index`, or `None` past the end.
    #[inline]
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&T> {
        let b = index / self.block_len;
        self.blocks.get(b)?.get(index - b * self.block_len)
    }

    /// Iterates over the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.blocks.iter().flat_map(|block| block.iter())
    }

    /// Number of blocks whose storage `self` and `other` share: the blocks
    /// neither side has written since one was cloned from the other.
    #[cfg(test)]
    fn shared_blocks(&self, other: &Self) -> usize {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

impl<T: Clone> BlockVec<T> {
    /// The elements of block `b`, writable; the block is copied first if
    /// another clone still shares it.
    ///
    /// # Panics
    /// Panics if `b` is past the last block.
    pub fn block_mut(&mut self, b: usize) -> &mut [T] {
        Arc::make_mut(&mut self.blocks[b]).as_mut_slice()
    }

    /// A mutable reference to element `index` (copying its block if
    /// shared), or `None` past the end.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        let b = index / self.block_len;
        let offset = index - b * self.block_len;
        Some(&mut self.block_mut(b)[offset])
    }

    /// Appends an element to the last block (copying it first if shared),
    /// or to a fresh block when the last one is full.
    pub fn push(&mut self, value: T) {
        match self.blocks.last_mut() {
            Some(last) if last.len() < self.block_len => Arc::make_mut(last).push(value),
            _ => {
                let mut block = Vec::with_capacity(self.block_len);
                block.push(value);
                self.blocks.push(Arc::new(block));
            }
        }
        self.len += 1;
    }

    /// Grows the vector to `new_len` elements, appending copies of
    /// `value`.
    ///
    /// # Panics
    /// Panics if `new_len < len()`: block storage never shrinks.
    pub fn extend_to(&mut self, new_len: usize, value: T) {
        assert!(new_len >= self.len, "a BlockVec only grows");
        for _ in self.len..new_len {
            self.push(value.clone());
        }
    }
}

impl<T> Clone for BlockVec<T> {
    /// Copies the block handles only; the elements stay shared until one
    /// side writes them.
    fn clone(&self) -> Self {
        BlockVec {
            blocks: self.blocks.clone(),
            block_len: self.block_len,
            len: self.len,
        }
    }
}

impl<T> Default for BlockVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for BlockVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> Index<usize> for BlockVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        match self.get(index) {
            Some(value) => value,
            None => panic!("index {index} out of range 0..{}", self.len),
        }
    }
}

impl<T: Clone> IndexMut<usize> for BlockVec<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        let len = self.len;
        match self.get_mut(index) {
            Some(value) => value,
            None => panic!("index {index} out of range 0..{len}"),
        }
    }
}

impl<T> FromIterator<T> for BlockVec<T> {
    /// Collects into blocks of [`default_block_len`] elements.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let block_len = default_block_len::<T>();
        let mut iter = iter.into_iter();
        let mut blocks = Vec::new();
        loop {
            let block: Vec<T> = iter.by_ref().take(block_len).collect();
            if block.is_empty() {
                break;
            }
            blocks.push(block);
        }
        Self::from_blocks(block_len, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `0..n` in blocks of 64 elements.
    fn sixty_four(n: u32) -> BlockVec<u32> {
        let elements: Vec<u32> = (0..n).collect();
        BlockVec::from_blocks(64, elements.chunks(64).map(<[u32]>::to_vec).collect())
    }

    #[test]
    fn push_and_index_across_blocks() {
        let mut v: BlockVec<usize> = BlockVec::from_blocks(4, Vec::new());
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        assert_eq!(v.blocks.len(), 3);
        assert_eq!(v.block_slice(2, 0, 2), &[8, 9]);
        assert_eq!(v[7], 7);
        assert_eq!(v.get(10), None);
        assert_eq!(
            v.iter().copied().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_clone_shares_every_block_until_one_is_written() {
        let original = sixty_four(200);
        assert_eq!(original.blocks.len(), 4);
        let mut copy = original.clone();
        assert_eq!(copy.shared_blocks(&original), 4);
        copy[70] = 7;
        // only the written block was copied; the original is untouched
        assert_eq!(copy.shared_blocks(&original), 3);
        assert_eq!(original[70], 70);
        assert_eq!(copy[70], 7);
        // the partial last block is copied out before the push lands
        copy.push(200);
        assert_eq!(copy.shared_blocks(&original), 2);
        assert_eq!(original.len(), 200);
        assert_eq!(copy.len(), 201);
        assert_eq!(copy[200], 200);
        // a block shared by a later clone is copied again on write
        let mut third = copy.clone();
        third[71] = 9;
        assert_eq!(copy[71], 71);
        assert_eq!(third.shared_blocks(&copy), 3);
    }

    #[test]
    fn an_unshared_vector_writes_in_place() {
        let mut v = sixty_four(100);
        let block = Arc::as_ptr(&v.blocks[1]);
        v[70] = 50;
        v.push(100);
        assert_eq!(Arc::as_ptr(&v.blocks[1]), block);
        assert_eq!(v[70], 50);
        assert_eq!(v[100], 100);
    }

    #[test]
    fn non_power_of_two_blocks_keep_records_contiguous() {
        // three 5-word records per block
        let mut v: BlockVec<u64> = BlockVec::from_blocks(15, Vec::new());
        v.extend_to(35, 0);
        assert_eq!(v.blocks.len(), 3);
        assert_eq!(v.block_slice(2, 0, 5), &[0; 5]);
        v.block_mut(1)[5..10].fill(9);
        assert_eq!(v[20], 9);
        assert_eq!(v[19], 0);
        let shared = v.clone();
        v.extend_to(47, 1);
        assert_eq!(v.block_slice(3, 0, 2), &[1, 1]);
        assert_eq!(shared.len(), 35);
    }

    #[test]
    fn small_elements_fill_a_four_kib_block() {
        assert_eq!(default_block_len::<u8>(), 4096);
        assert_eq!(default_block_len::<[u32; 3]>(), 341);
        assert_eq!(default_block_len::<[u8; 100]>(), BLOCK_LEN);
        let v: BlockVec<u32> = (0..2000).collect();
        assert_eq!(v.blocks.len(), 2);
        assert_eq!(v[1500], 1500);
    }

    #[test]
    #[should_panic(expected = "block 0 holds 3 of 4 elements")]
    fn from_blocks_rejects_a_short_inner_block() {
        let _ = BlockVec::from_blocks(4, vec![vec![1, 2, 3], vec![4]]);
    }

    proptest! {
        /// Random push / write / extend scripts on a clone agree with a
        /// plain `Vec`, never disturb the vector it was cloned from, and
        /// never disturb snapshots cloned off it along the way.
        #[test]
        fn prop_clones_behave_like_vecs_and_leave_the_original_alone(
            start in 0usize..150,
            ops in proptest::collection::vec((0usize..4, 0usize..200, 0u32..100), 1..60)
        ) {
            let original = sixty_four(start as u32);
            let frozen: Vec<u32> = original.iter().copied().collect();
            let mut copy = original.clone();
            let mut reference = frozen.clone();
            let mut snapshots: Vec<(BlockVec<u32>, Vec<u32>)> = Vec::new();
            for (op, at, value) in ops {
                match op {
                    0 => {
                        copy.push(value);
                        reference.push(value);
                    }
                    1 if !reference.is_empty() => {
                        let i = at % reference.len();
                        copy[i] = value;
                        reference[i] = value;
                    }
                    2 => snapshots.push((copy.clone(), reference.clone())),
                    _ => {
                        let target = reference.len() + at % 70;
                        copy.extend_to(target, value);
                        reference.resize(target, value);
                    }
                }
                prop_assert_eq!(copy.len(), reference.len());
                prop_assert_eq!(copy.iter().copied().collect::<Vec<_>>(), reference.clone());
                prop_assert_eq!(original.iter().copied().collect::<Vec<_>>(), frozen.clone());
                for (snapshot, expected) in &snapshots {
                    prop_assert_eq!(&snapshot.iter().copied().collect::<Vec<_>>(), expected);
                }
            }
        }
    }
}
