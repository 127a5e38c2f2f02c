//! Blocked (SIMD-width) word kernels for bitset rows.
//!
//! Every hot loop in the reachability pipeline — row unions during closure
//! propagation, mask intersections, popcounts for descendant counting —
//! walks flat `&[u64]` slices. The
//! kernels here process those slices in explicitly unrolled 4-word blocks
//! (`u64x4`-style, 256 bits per step): the blocks have no loop-carried
//! dependency chains, so the compiler autovectorises them to SSE2/AVX2 (or
//! NEON) loads without any `unsafe`, intrinsics or external SIMD crates.
//!
//! [`ReachMatrix`](crate::ReachMatrix) pads its row stride to a multiple of
//! [`LANES`] via [`pad_words`] so the remainder loops below never run on the
//! matrix paths; the kernels still handle arbitrary lengths so
//! [`FixedBitSet`](crate::FixedBitSet) and unpadded masks can share them.

/// Words per block: 4 × 64 bits = one 256-bit vector register.
pub const LANES: usize = 4;

/// Rounds a word count up to the next multiple of [`LANES`].
///
/// Row buffers padded to this width let every kernel below run entirely in
/// whole blocks (the pad words are always zero and never observed by
/// bit-indexed accessors).
#[must_use]
pub const fn pad_words(words: usize) -> usize {
    words.div_ceil(LANES) * LANES
}

/// `dst |= src` over the common prefix; returns `true` iff any word of
/// `dst` changed. The change test is folded into the same unrolled blocks
/// (one XOR accumulator) instead of a second pass.
pub fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
    let n = dst.len().min(src.len());
    let split = n - n % LANES;
    let (dst_blocks, dst_tail) = dst[..n].split_at_mut(split);
    let (src_blocks, src_tail) = src[..n].split_at(split);
    let mut delta = 0u64;
    for (d, s) in dst_blocks
        .chunks_exact_mut(LANES)
        .zip(src_blocks.chunks_exact(LANES))
    {
        let m0 = d[0] | s[0];
        let m1 = d[1] | s[1];
        let m2 = d[2] | s[2];
        let m3 = d[3] | s[3];
        delta |= (m0 ^ d[0]) | (m1 ^ d[1]) | (m2 ^ d[2]) | (m3 ^ d[3]);
        d[0] = m0;
        d[1] = m1;
        d[2] = m2;
        d[3] = m3;
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        let merged = *d | *s;
        delta |= merged ^ *d;
        *d = merged;
    }
    delta != 0
}

/// `dst &= src` over the common prefix.
pub fn and_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let split = n - n % LANES;
    let (dst_blocks, dst_tail) = dst[..n].split_at_mut(split);
    let (src_blocks, src_tail) = src[..n].split_at(split);
    for (d, s) in dst_blocks
        .chunks_exact_mut(LANES)
        .zip(src_blocks.chunks_exact(LANES))
    {
        d[0] &= s[0];
        d[1] &= s[1];
        d[2] &= s[2];
        d[3] &= s[3];
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d &= *s;
    }
}

/// `dst &= !src` over the common prefix (set difference).
pub fn andnot_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let split = n - n % LANES;
    let (dst_blocks, dst_tail) = dst[..n].split_at_mut(split);
    let (src_blocks, src_tail) = src[..n].split_at(split);
    for (d, s) in dst_blocks
        .chunks_exact_mut(LANES)
        .zip(src_blocks.chunks_exact(LANES))
    {
        d[0] &= !s[0];
        d[1] &= !s[1];
        d[2] &= !s[2];
        d[3] &= !s[3];
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d &= !*s;
    }
}

/// Returns `true` iff `a & b` has any set bit over the common prefix: the
/// early-exit intersect test behind `FixedBitSet::intersects`.
#[must_use]
pub fn and_any(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let split = n - n % LANES;
    for (x, y) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        if ((x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3])) != 0 {
            return true;
        }
    }
    a[split..n]
        .iter()
        .zip(&b[split..n])
        .any(|(x, y)| x & y != 0)
}

/// Returns `true` iff `a & !b` has any set bit over the common prefix
/// (i.e. `a` is *not* a subset of `b` on that prefix).
#[must_use]
pub fn andnot_any(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let split = n - n % LANES;
    for (x, y) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        if ((x[0] & !y[0]) | (x[1] & !y[1]) | (x[2] & !y[2]) | (x[3] & !y[3])) != 0 {
            return true;
        }
    }
    a[split..n]
        .iter()
        .zip(&b[split..n])
        .any(|(x, y)| x & !y != 0)
}

/// Total popcount over a word slice.
#[must_use]
pub fn popcount(words: &[u64]) -> usize {
    let split = words.len() - words.len() % LANES;
    let mut total = 0usize;
    for w in words[..split].chunks_exact(LANES) {
        total += (w[0].count_ones() + w[1].count_ones() + w[2].count_ones() + w[3].count_ones())
            as usize;
    }
    total
        + words[split..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pad_words_rounds_up_to_blocks() {
        assert_eq!(pad_words(0), 0);
        assert_eq!(pad_words(1), 4);
        assert_eq!(pad_words(4), 4);
        assert_eq!(pad_words(5), 8);
        assert_eq!(pad_words(31), 32);
    }

    #[test]
    fn or_into_reports_change_exactly() {
        let mut dst = vec![0u64, 1, 2, 3, 4];
        let src = vec![0u64, 1, 2, 3, 4];
        assert!(!or_into(&mut dst, &src));
        let src2 = vec![8u64, 1, 2, 3, 4];
        assert!(or_into(&mut dst, &src2));
        assert_eq!(dst[0], 8);
        assert!(!or_into(&mut dst, &src2));
    }

    proptest! {
        #[test]
        fn prop_kernels_match_scalar(
            a in proptest::collection::vec(0u64..u64::MAX, 0..24),
            b in proptest::collection::vec(0u64..u64::MAX, 0..24),
        ) {
            let n = a.len().min(b.len());
            // or_into
            let mut got = a.clone();
            let changed = or_into(&mut got, &b);
            let mut want = a.clone();
            let mut want_changed = false;
            for (d, s) in want[..n].iter_mut().zip(&b[..n]) {
                let m = *d | *s;
                want_changed |= m != *d;
                *d = m;
            }
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(changed, want_changed);
            // and_into / andnot_into
            let mut got = a.clone();
            and_into(&mut got, &b);
            let mut want = a.clone();
            for (d, s) in want[..n].iter_mut().zip(&b[..n]) { *d &= *s; }
            prop_assert_eq!(&got, &want);
            let mut got = a.clone();
            andnot_into(&mut got, &b);
            let mut want = a.clone();
            for (d, s) in want[..n].iter_mut().zip(&b[..n]) { *d &= !*s; }
            prop_assert_eq!(&got, &want);
            // predicates + popcount
            prop_assert_eq!(
                and_any(&a, &b),
                a[..n].iter().zip(&b[..n]).any(|(x, y)| x & y != 0)
            );
            prop_assert_eq!(
                andnot_any(&a, &b),
                a[..n].iter().zip(&b[..n]).any(|(x, y)| x & !y != 0)
            );
            prop_assert_eq!(
                popcount(&a),
                a.iter().map(|w| w.count_ones() as usize).sum::<usize>()
            );
        }
    }
}
