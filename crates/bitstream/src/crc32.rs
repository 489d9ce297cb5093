//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), the checksum
//! that ends every tensor chunk record and every video frame's tile
//! table.
//!
//! [`Crc32`] is a streaming state: a stream header is hashed once and
//! the state is copied and continued for each record, so checking one
//! record reads only the header and that record. The kernel is
//! slicing-by-8: eight 256-entry tables, built at compile time by a
//! `const fn`, fold eight input bytes per step with eight lookups
//! instead of one table step per byte.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic one-byte table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so eight lookups advance the
/// state by eight bytes at once.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut s = 1;
        while s < 8 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            s += 1;
        }
        i += 1;
    }
    t
}

/// One table step: folds byte `b` into the (pre-inverted) state.
#[inline(always)]
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][usize::from(((crc & 0xFF) as u8) ^ b)]
}

/// A running CRC-32. `Copy`, so a shared prefix's state is hashed once
/// and continued independently for each suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    /// The bit-inverted register.
    state: u32,
}

impl Crc32 {
    /// The state of the empty input.
    pub const fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// The state after also hashing `data`.
    #[must_use]
    pub fn update(self, data: &[u8]) -> Self {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(8);
        for block in &mut blocks {
            let &[b0, b1, b2, b3, b4, b5, b6, b7] = block else {
                continue;
            };
            let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
            let [l0, l1, l2, l3] = lo.to_le_bytes();
            crc = t[7][usize::from(l0)]
                ^ t[6][usize::from(l1)]
                ^ t[5][usize::from(l2)]
                ^ t[4][usize::from(l3)]
                ^ t[3][usize::from(b4)]
                ^ t[2][usize::from(b5)]
                ^ t[1][usize::from(b6)]
                ^ t[0][usize::from(b7)];
        }
        for &b in blocks.remainder() {
            crc = step(crc, b);
        }
        Crc32 { state: crc }
    }

    /// The CRC-32 of everything hashed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// The CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;

    /// The reference form: one table step per byte.
    fn bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0, |crc, &b| step(crc, b))
    }

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slicing_by_8_matches_bytewise() {
        let mut rng = Pcg32::seed_from(5);
        let buf: Vec<u8> = (0..6 * 1024).map(|_| rng.below(256) as u8).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&buf[..len]), bytewise(&buf[..len]), "len {len}");
        }
        assert_eq!(crc32(&buf), bytewise(&buf), "6 KB");
        for extreme in [0x00u8, 0xFF] {
            let v = vec![extreme; 6 * 1024];
            assert_eq!(crc32(&v), bytewise(&v), "{extreme:#04x}");
        }
        // Streaming: any split continues to the same value.
        for cut in [0, 1, 7, 8, 9, 1000, buf.len()] {
            let (a, b) = buf.split_at(cut);
            assert_eq!(
                Crc32::new().update(a).update(b).finish(),
                crc32(&buf),
                "cut {cut}"
            );
        }
    }
}
