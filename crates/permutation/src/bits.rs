//! Bit-granular I/O shared by the storage formats.
//!
//! The storage experiments compare layouts whose record sizes are not
//! byte-aligned — ⌈log₂ k⌉ bits per permutation element, ⌈log₂ N⌉ bits per
//! codebook id, variable-length Huffman codes — so they all sit on one
//! LSB-first bit stream abstraction: [`BitWriter`] appends, [`BitReader`]
//! consumes sequentially, and [`read_bits_at`] gives random access into a
//! packed buffer at a bit offset.
//!
//! LSB-first means the first bit written lands in the least significant
//! bit of byte 0.  [`crate::store::RawPermStore`] and
//! [`crate::store::PackedPermStore`] own the two fixed-width layouts on
//! top of it; [`element_bits`] is the width of one field in either.

/// Bits for one of `n` values, ⌈log₂ n⌉ (0 for n ≤ 1): a permutation
/// element at n = k, a codebook id at n = N distinct permutations.
pub fn element_bits(n: usize) -> u32 {
    match n {
        0 | 1 => 0,
        _ => usize::BITS - (n - 1).leading_zeros(),
    }
}

/// Appends values to a growing LSB-first bit buffer.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    len_bits: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer pre-sized for `bits` total bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self { buf: Vec::with_capacity(bits.div_ceil(8)), len_bits: 0 }
    }

    /// Appends the low `bits` bits of `value`, LSB first.
    ///
    /// # Panics
    /// Panics if `bits > 64` or `value` has bits set above `bits`.
    pub fn write(&mut self, value: u64, bits: u32) {
        assert!(bits <= 64, "cannot write {bits} bits at once");
        if bits < 64 {
            assert!(value >> bits == 0, "value {value:#x} does not fit in {bits} bits");
        }
        let mut remaining = bits as usize;
        let mut value = value;
        while remaining > 0 {
            let bit = self.len_bits % 8;
            if bit == 0 {
                self.buf.push(0);
            }
            let byte = self.len_bits / 8;
            let take = remaining.min(8 - bit);
            self.buf[byte] |= ((value & ((1u64 << take) - 1)) as u8) << bit;
            value >>= take;
            self.len_bits += take;
            remaining -= take;
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write(u64::from(bit), 1);
    }

    /// Total bits written so far.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Consumes the writer, returning the packed bytes and the exact bit
    /// length (the final byte may be partially used; unused bits are zero).
    pub fn finish(self) -> (Vec<u8>, usize) {
        (self.buf, self.len_bits)
    }

    /// Borrows the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Sequentially consumes an LSB-first bit buffer.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos_bits: usize,
    len_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Reads from `data`, which holds exactly `len_bits` valid bits.
    ///
    /// # Panics
    /// Panics if `len_bits` exceeds the buffer's capacity.
    pub fn new(data: &'a [u8], len_bits: usize) -> Self {
        assert!(len_bits <= data.len() * 8, "len_bits exceeds buffer");
        Self { data, pos_bits: 0, len_bits }
    }

    /// Reads `bits` bits, LSB first, or `None` if fewer remain.
    pub fn read(&mut self, bits: u32) -> Option<u64> {
        assert!(bits <= 64, "cannot read {bits} bits at once");
        if self.remaining() < bits as usize {
            return None;
        }
        let v = read_bits_at(self.data, self.pos_bits, bits);
        self.pos_bits += bits as usize;
        Some(v)
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read(1).map(|b| b != 0)
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.len_bits - self.pos_bits
    }

    /// Current position in bits from the start.
    pub fn position(&self) -> usize {
        self.pos_bits
    }
}

/// Reads `bits` bits starting at bit offset `pos_bits` in `data`,
/// LSB first.
///
/// # Panics
/// Panics if the range extends past the buffer or `bits > 64`.
pub fn read_bits_at(data: &[u8], pos_bits: usize, bits: u32) -> u64 {
    assert!(bits <= 64);
    assert!(pos_bits + bits as usize <= data.len() * 8, "bit range out of bounds");
    let mut out: u64 = 0;
    let mut got = 0usize;
    let mut pos = pos_bits;
    while got < bits as usize {
        let byte = pos / 8;
        let bit = pos % 8;
        let take = (bits as usize - got).min(8 - bit);
        let chunk = (u64::from(data[byte]) >> bit) & ((1u64 << take) - 1);
        out |= chunk << got;
        got += take;
        pos += take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xDEAD, 16);
        w.write(1, 1);
        w.write(0, 7);
        w.write(u64::MAX, 64);
        let (bytes, len) = w.finish();
        assert_eq!(len, 3 + 16 + 1 + 7 + 64);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read(3), Some(0b101));
        assert_eq!(r.read(16), Some(0xDEAD));
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read(7), Some(0));
        assert_eq!(r.read(64), Some(u64::MAX));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn zero_width_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write(0, 0);
        assert!(w.is_empty());
        w.write(1, 1);
        w.write(0, 0);
        assert_eq!(w.len_bits(), 1);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read(0), Some(0));
        assert_eq!(r.read_bit(), Some(true));
    }

    #[test]
    fn element_bits_values() {
        let expected = [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (32, 5)];
        for (n, bits) in expected {
            assert_eq!(element_bits(n), bits, "n = {n}");
        }
    }

    #[test]
    fn random_access_matches_sequential() {
        // Fixed-width streams at every id width 0..=17, as the stores
        // lay them out: 100 values a width, each field at `i * bits`.
        for bits in 0..=17u32 {
            let modulus = 1u64 << bits;
            let values: Vec<u64> = (0..100u64).map(|i| (i * 37) % modulus).collect();
            let mut w = BitWriter::new();
            for &v in &values {
                w.write(v, bits);
            }
            let (bytes, len) = w.finish();
            assert_eq!(len, 100 * bits as usize, "bits = {bits}");
            assert_eq!(bytes.len(), len.div_ceil(8), "bits = {bits}");
            let mut r = BitReader::new(&bytes, len);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(r.read(bits), Some(v), "bits = {bits}, i = {i}");
                assert_eq!(read_bits_at(&bytes, i * bits as usize, bits), v);
            }
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn reader_reports_remaining() {
        let mut w = BitWriter::new();
        w.write(0x3F, 6);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.remaining(), 6);
        r.read(2);
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.position(), 2);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_rejected() {
        BitWriter::new().write(0b100, 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_random_access_rejected() {
        read_bits_at(&[0u8; 2], 10, 8);
    }

    #[test]
    fn partial_final_byte_is_zero_padded() {
        let mut w = BitWriter::new();
        w.write(0b1, 1);
        let (bytes, len) = w.finish();
        assert_eq!(len, 1);
        assert_eq!(bytes, vec![0b1]);
    }
}
