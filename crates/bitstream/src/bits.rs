//! MSB-first bit I/O for the canonical Huffman coder.
//!
//! [`crate::huffman`] is the only user: both video-codec stream kinds
//! frame their bytes with [`crate::bytes`] and code every syntax element
//! as CABAC bins.

use crate::CodecError;

/// Writes bits MSB-first into a growing byte buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitWriter {
    bytes: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub(crate) fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `n` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 57` (use two calls for wider fields) or if `value`
    /// has bits set above `n`.
    pub(crate) fn write_bits(&mut self, value: u64, n: u32) {
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

    /// Pads with zero bits to a byte boundary and returns the buffer.
    pub(crate) fn finish(mut self) -> Vec<u8> {
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
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
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
    pub(crate) fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        assert!(n <= 57, "read_bits supports at most 57 bits per call");
        if n == 0 {
            return Ok(0);
        }
        self.refill(n)?;
        self.nbits -= n;
        let out = (self.acc >> self.nbits) & ((1u64 << n) - 1);
        Ok(out)
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
    fn reader_errors_on_exhaustion() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn empty_writer_finishes_empty() {
        assert!(BitWriter::new().finish().is_empty());
    }
}
