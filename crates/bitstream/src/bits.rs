//! MSB-first bit I/O and Exp-Golomb codes.
//!
//! Exp-Golomb is the universal integer binarization H.264/H.265 use for
//! syntax elements. The canonical Huffman coder ([`crate::huffman`]) is
//! the only user of this bit I/O: both video-codec stream kinds frame
//! their bytes with [`crate::bytes`], and their exp-Golomb elements are
//! CABAC bypass bins.

use crate::CodecError;

/// Writes bits MSB-first into a growing byte buffer.
///
/// # Example
///
/// ```
/// use llm265_bitstream::bits::{BitWriter, BitReader};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_ue(17);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_ue().unwrap(), 17);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.nbits as u64
    }

    /// Appends the low `n` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 57` (use two calls for wider fields) or if `value`
    /// has bits set above `n`.
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 57, "write_bits supports at most 57 bits per call");
        debug_assert!(n == 64 || value < (1u64 << n), "value wider than n bits");
        // Between calls the accumulator holds fewer than 8 pending bits
        // (the flush loop below drains whole bytes), so `nbits + n <= 64`
        // and every shift amount stays in range.
        debug_assert!(self.nbits < 8, "pending-bit invariant broken");
        self.acc = (self.acc << n) | value;
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.bytes.push(((self.acc >> self.nbits) & 0xFF) as u8);
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Appends an unsigned Exp-Golomb code (`ue(v)` in H.26x).
    pub fn write_ue(&mut self, value: u32) {
        let v = value as u64 + 1;
        let len = 64 - v.leading_zeros(); // bits in v
        self.write_bits(0, len - 1); // len-1 zero prefix
        self.write_bits(v, len);
    }

    /// Appends a signed Exp-Golomb code (`se(v)` in H.26x): 0, 1, -1, 2, -2…
    pub fn write_se(&mut self, value: i32) {
        // The mapping sends v to 2|v|-1 (positive) or 2|v| (non-positive);
        // i32::MIN would need 2^32, which ue(u32) cannot carry.
        debug_assert!(value > i32::MIN, "se(i32::MIN) is not representable");
        let abs = value.unsigned_abs();
        let mapped = if value > 0 {
            abs * 2 - 1
        } else {
            abs.saturating_mul(2)
        };
        self.write_ue(mapped);
    }

    /// Pads with zero bits to a byte boundary and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.acc <<= pad;
            self.bytes.push((self.acc & 0xFF) as u8);
            self.nbits = 0;
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self, need: u32) -> Result<(), CodecError> {
        while self.nbits < need {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or(CodecError::Truncated("bitstream exhausted"))?;
            self.pos += 1;
            self.acc = (self.acc << 8) | u64::from(byte);
            self.nbits += 8;
        }
        Ok(())
    }

    /// Reads `n` bits MSB-first.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than `n` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `n > 57`.
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        assert!(n <= 57, "read_bits supports at most 57 bits per call");
        if n == 0 {
            return Ok(0);
        }
        self.refill(n)?;
        self.nbits -= n;
        let out = (self.acc >> self.nbits) & ((1u64 << n) - 1);
        Ok(out)
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns an error at end of stream.
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads an unsigned Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or a prefix longer than 32 zeros.
    pub fn read_ue(&mut self) -> Result<u32, CodecError> {
        let mut zeros = 0u32;
        while !self.read_bit()? {
            zeros += 1;
            if zeros > 32 {
                return Err(CodecError::Corrupt("exp-golomb prefix too long"));
            }
        }
        let suffix = self.read_bits(zeros)?;
        let v = (1u64 << zeros) | suffix;
        // A 32-zero prefix with an all-ones suffix encodes up to 2^33-2,
        // which a silent `as u32` would wrap into a bogus small value.
        u32::try_from(v - 1).map_err(|_| CodecError::Corrupt("exp-golomb value overflows u32"))
    }

    /// Reads a signed Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation.
    pub fn read_se(&mut self) -> Result<i32, CodecError> {
        let m = i64::from(self.read_ue()?);
        let v = if m % 2 == 1 { (m + 1) / 2 } else { -(m / 2) };
        // ue(2^32-1) maps to +2^31, one past i32::MAX; wrapping it to
        // i32::MIN would silently flip the sign of a corrupt residual.
        i32::try_from(v).map_err(|_| CodecError::Corrupt("exp-golomb se value overflows i32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let fields = [
            (0b1u64, 1u32),
            (0xABu64, 8),
            (0x3FFu64, 10),
            (0u64, 5),
            (0x1FFFFFu64, 21),
        ];
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    #[test]
    fn max_width_write_after_max_pending_bits() {
        // 7 pending bits then a 57-bit field hits the accumulator's exact
        // 64-bit capacity: `acc << 57` with 7 bits resident, then a drain
        // shift of `acc >> 56`. One more pending bit would overflow, so
        // this pins the `nbits < 8` invariant at its boundary.
        let mut w = BitWriter::new();
        let wide = (1u64 << 57) - 1;
        w.write_bits(0b010_1010, 7);
        w.write_bits(wide, 57);
        w.write_bits(wide - 1, 57);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(7).unwrap(), 0b010_1010);
        assert_eq!(r.read_bits(57).unwrap(), wide);
        assert_eq!(r.read_bits(57).unwrap(), wide - 1);
    }

    #[test]
    fn bit_len_tracks_written_bits() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 11);
    }

    #[test]
    fn ue_small_values_match_spec() {
        // ue(0)=1, ue(1)=010, ue(2)=011, ue(3)=00100 ... classic table.
        let mut w = BitWriter::new();
        w.write_ue(0);
        w.write_ue(1);
        w.write_ue(2);
        w.write_ue(3);
        let bytes = w.finish();
        // 1 010 011 00100 -> 1010 0110 0100 0000
        assert_eq!(bytes, vec![0b1010_0110, 0b0100_0000]);
    }

    #[test]
    fn ue_roundtrip_wide_range() {
        let mut w = BitWriter::new();
        let values = [0u32, 1, 2, 3, 7, 8, 100, 1023, 65_535, u32::MAX - 1];
        for &v in &values {
            w.write_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_ue().unwrap(), v);
        }
    }

    #[test]
    fn se_roundtrip() {
        let mut w = BitWriter::new();
        let values = [0i32, 1, -1, 2, -2, 100, -100, i32::MAX / 2, i32::MIN / 2];
        for &v in &values {
            w.write_se(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_se().unwrap(), v);
        }
    }

    #[test]
    fn reader_errors_on_exhaustion() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn reader_errors_on_bad_ue_prefix() {
        // 40 zero bits: invalid prefix.
        let mut r = BitReader::new(&[0, 0, 0, 0, 0]);
        assert!(r.read_ue().is_err());
    }

    #[test]
    fn empty_writer_finishes_empty() {
        assert!(BitWriter::new().finish().is_empty());
    }
}
