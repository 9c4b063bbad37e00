//! Width-packed little-endian integers.
//!
//! A packed column stores every value in the same number of bytes: the
//! fewest that hold the column's largest value ([`width`], 1 to 8).
//! Values are read as 8-byte little-endian loads masked to that width
//! ([`load`], [`mask`]), so no read branches on a width; the bytes
//! therefore end in [`SLACK`] bytes past the last value. [`store`]
//! writes exactly a value's width and no byte around it, so values may
//! be written in any order.
//!
//! [`TaskGraph`](crate::TaskGraph) keeps its computation and
//! communication costs in one column each; `flb-service`'s cached
//! schedules interleave three columns in one record per task.

/// Bytes after the last value: every value is read as a whole 8-byte
/// load however narrow it is.
pub const SLACK: usize = 8;

/// Bytes that hold `v`, at least 1.
#[must_use]
pub fn width(v: u64) -> u8 {
    ((64 - v.leading_zeros()).div_ceil(8)).max(1) as u8
}

/// The low `w` bytes of a word, for `w` in `1..=8`.
#[must_use]
pub fn mask(w: usize) -> u64 {
    u64::MAX >> (64 - 8 * w.clamp(1, 8))
}

/// The 8 little-endian bytes at `at`, or 0 when fewer than 8 follow it.
#[inline]
#[must_use]
pub fn load(buf: &[u8], at: usize) -> u64 {
    buf.get(at..)
        .and_then(<[u8]>::first_chunk::<8>)
        .map_or(0, |b| u64::from_le_bytes(*b))
}

/// Writes the low `w` bytes of `v` at `at`, little-endian, for `w` in
/// `1..=8`, and no other byte, so values can land in any order. Does
/// nothing when fewer than `w` bytes follow `at`.
///
/// Exactly `w` bytes, not a masked read-modify-write of 8: such a
/// load overlaps the previous value's store and stalls on it, which
/// made a ~1000-task graph build 2.5 times as slow as with 8-byte
/// costs, where byte stores make it 1.5 times.
#[inline]
pub fn store(buf: &mut [u8], at: usize, w: usize, v: u64) {
    if let Some(dst) = buf.get_mut(at..at.saturating_add(w.clamp(1, 8))) {
        for (d, b) in dst.iter_mut().zip(v.to_le_bytes()) {
            *d = b;
        }
    }
}

/// The 8 little-endian bytes at `at`, which a [`Column`] read has
/// already checked lie in `bytes`. [`load`] would return 0 past the end
/// instead; this indexed form, whose check cannot fail, compiles to a
/// tighter loop over a predecessor row: with `load` the kernel took 2–6 %
/// longer on the million-task LU, in process.
#[inline]
fn word(bytes: &[u8], at: usize) -> u64 {
    let b = bytes[at..at + 8].try_into().expect("8 bytes");
    u64::from_le_bytes(b)
}

/// A fixed-length column of `u64`s, each stored in the column's width.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Column {
    /// `len` values of `width` bytes, then [`SLACK`] zero bytes.
    bytes: Box<[u8]>,
    len: usize,
    width: u8,
    /// `mask(width)`, kept so a read does not recompute it.
    mask: u64,
}

impl Column {
    /// `len` zeros, `width` bytes each, for [`set`](Self::set) to fill.
    pub(crate) fn zeroed(len: usize, width: u8) -> Self {
        let w = usize::from(width);
        Column {
            bytes: vec![0; len * w + SLACK].into_boxed_slice(),
            len,
            width,
            mask: mask(w),
        }
    }

    /// `values`, in the fewest bytes that hold the largest of them.
    pub(crate) fn from_values(values: &[u64]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        let mut column = Column::zeroed(values.len(), width(max));
        for (i, &v) in values.iter().enumerate() {
            column.set(i, v);
        }
        column
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Value `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of a column of {}", self.len);
        word(&self.bytes, i * usize::from(self.width)) & self.mask
    }

    /// Values `r`, in order.
    ///
    /// # Panics
    ///
    /// Panics when `r` reaches past the column.
    #[inline]
    pub(crate) fn range(
        &self,
        r: std::ops::Range<usize>,
    ) -> impl ExactSizeIterator<Item = u64> + DoubleEndedIterator + Clone + '_ {
        let (w, m) = (usize::from(self.width), self.mask);
        // Sliced once per range, to the slack after value `r.end - 1`:
        // this is the range check, and each value's load stays inside.
        let bytes = &self.bytes[r.start * w..r.end * w + SLACK];
        (0..r.len()).map(move |k| word(bytes, k * w) & m)
    }

    /// Sets value `i` to `v`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range or `v` does not fit the width.
    pub(crate) fn set(&mut self, i: usize, v: u64) {
        let w = usize::from(self.width);
        assert!(i < self.len, "index {i} out of a column of {}", self.len);
        assert!(v & !self.mask == 0, "{v} does not fit {w} bytes");
        store(&mut self.bytes, i * w, w, v);
    }

    /// Every value, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.range(0..self.len)
    }

    /// Bytes the column holds on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }
}

impl std::fmt::Debug for Column {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_is_the_fewest_bytes_that_hold_the_value() {
        let cases = [
            (0, 1),
            (1, 1),
            (0xFF, 1),
            (0x100, 2),
            (0xFFFF, 2),
            (0x1_0000, 3),
            (u64::from(u32::MAX), 4),
            (u64::from(u32::MAX) + 1, 5),
            (u64::MAX, 8),
        ];
        for (v, w) in cases {
            assert_eq!(width(v), w, "{v:#x}");
            assert_eq!(v & mask(w.into()), v, "{v:#x}");
        }
    }

    /// Stores in any order leave every neighbour intact, at every width.
    #[test]
    fn out_of_order_stores_keep_their_neighbours() {
        for w in 1..=8u8 {
            let top = mask(w.into());
            let values: Vec<u64> = (0..37u64)
                .map(|i| top.wrapping_sub(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & top)
                .collect();
            let mut column = Column::zeroed(values.len(), w);
            // 37 is prime, so `17·k mod 37` visits every index once.
            for i in (0..values.len()).map(|k| k * 17 % values.len()) {
                column.set(i, values[i]);
            }
            assert!(column.iter().eq(values.iter().copied()), "width {w}");
            assert_eq!(column.heap_bytes(), values.len() * usize::from(w) + SLACK);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit 1 bytes")]
    fn a_value_wider_than_the_column_panics() {
        Column::zeroed(2, 1).set(0, 0x100);
    }
}
