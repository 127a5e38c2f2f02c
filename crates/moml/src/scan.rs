//! A word-at-a-time byte scan: the one way the text format and the
//! service protocol find their delimiters.

/// Offsets of the bytes of a slice that equal one of `N` given bytes,
/// ascending, found eight bytes at a time: each word is compared with
/// every byte sought at once, and every match in it is read off the
/// comparisons' mask. The text format scans for TAB and newline, the
/// protocol's frame decoder for newline alone.
#[derive(Debug, Clone)]
pub struct ByteOffsets<'a, const N: usize> {
    bytes: &'a [u8],
    /// Each byte sought, repeated in all eight bytes of a word.
    sought: [u64; N],
    /// Offset of the next word to load.
    next: usize,
    /// Offset of the word `mask` was taken from.
    word: usize,
    /// One `0x80` per matching byte of that word not yet returned.
    mask: u64,
}

impl<'a, const N: usize> ByteOffsets<'a, N> {
    /// Scans `bytes` for the bytes in `sought`, none of which may be zero
    /// (a short last word is padded with zeros).
    #[must_use]
    pub fn new(bytes: &'a [u8], sought: [u8; N]) -> Self {
        debug_assert!(!sought.contains(&0), "zero pads the last word");
        ByteOffsets {
            bytes,
            sought: sought.map(|byte| u64::from_ne_bytes([byte; 8])),
            next: 0,
            word: 0,
            mask: 0,
        }
    }
}

impl<const N: usize> Iterator for ByteOffsets<'_, N> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
        // a byte's high bit is set iff the byte of `x` is zero; adding 0x7f
        // to the low seven bits cannot carry into the next byte, so there
        // are no false matches
        let zero_bytes = |x: u64| !(((x & LOW7) + LOW7) | x | LOW7);
        while self.mask == 0 {
            let rest = self
                .bytes
                .get(self.next..)
                .filter(|rest| !rest.is_empty())?;
            let word: [u8; 8] = match rest.get(..8) {
                Some(word) => word.try_into().unwrap_or_default(),
                None => {
                    // a short tail is padded with zeros, which never match
                    let mut tail = [0u8; 8];
                    tail[..rest.len()].copy_from_slice(rest);
                    tail
                }
            };
            let x = u64::from_le_bytes(word);
            self.mask = self
                .sought
                .iter()
                .fold(0, |mask, &sought| mask | zero_bytes(x ^ sought));
            self.word = self.next;
            self.next += 8;
        }
        let byte = self.mask.trailing_zeros() as usize / 8;
        self.mask &= self.mask - 1;
        Some(self.word + byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The offsets a byte-by-byte scan finds.
    fn naive(bytes: &[u8], sought: &[u8]) -> Vec<usize> {
        (0..bytes.len())
            .filter(|&at| sought.contains(&bytes[at]))
            .collect()
    }

    /// Bytes next to the ones sought (`\x08`, `\x0b`, their high-bit
    /// twins, `\x7f`, `\xff`) are where a mask with false matches or carries
    /// would show.
    const BYTES: [u8; 12] = [
        b'a', b'\t', b'\n', 0x08, 0x0b, 0x89, 0x8a, 0x7f, 0xff, 0x00, 0x01, b'.',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_offsets_are_the_bytes_sought(
            picks in proptest::collection::vec(0usize..BYTES.len(), 0..70),
            skip in 0usize..9,
        ) {
            let bytes: Vec<u8> = picks.iter().map(|&i| BYTES[i]).collect();
            // a slice that starts off a word boundary
            let bytes = &bytes[skip.min(bytes.len())..];
            let newlines: Vec<usize> = ByteOffsets::new(bytes, [b'\n']).collect();
            prop_assert_eq!(newlines, naive(bytes, b"\n"));
            let delimiters: Vec<usize> = ByteOffsets::new(bytes, [b'\t', b'\n']).collect();
            prop_assert_eq!(delimiters, naive(bytes, b"\t\n"));
        }
    }
}
