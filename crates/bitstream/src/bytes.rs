//! Panic-free little-endian byte-field I/O.
//!
//! Every framed format in the workspace (CABAC byte streams, LZ4/Deflate
//! containers, video and tensor stream headers, tile tables, archives)
//! reads fixed-width little-endian integers from untrusted bytes. These
//! helpers centralize that so the hot decode paths contain no
//! `try_into().unwrap()` — the pattern-match either yields the field or a
//! [`CodecError::Truncated`], and the cursor only advances on success.
//!
//! Writers are provided too, so the encoder/decoder symmetry lint can pair
//! `write_le_*` with `read_le_*` across the codebase.

use crate::CodecError;

/// Reads one byte at `*pos`, advancing the cursor on success.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] at the end of `data`.
pub fn read_u8(data: &[u8], pos: &mut usize) -> Result<u8, CodecError> {
    match data.get(*pos) {
        Some(&b) => {
            *pos += 1;
            Ok(b)
        }
        None => Err(CodecError::Truncated("u8 field")),
    }
}

/// Reads a little-endian `u16` at `*pos`, advancing the cursor on success.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if fewer than 2 bytes remain.
pub fn read_le_u16(data: &[u8], pos: &mut usize) -> Result<u16, CodecError> {
    match data.get(*pos..).and_then(|rest| rest.get(..2)) {
        Some(&[a, b]) => {
            *pos += 2;
            Ok(u16::from_le_bytes([a, b]))
        }
        _ => Err(CodecError::Truncated("u16 field")),
    }
}

/// Reads a little-endian `u32` at `*pos`, advancing the cursor on success.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if fewer than 4 bytes remain.
pub fn read_le_u32(data: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    match data.get(*pos..).and_then(|rest| rest.get(..4)) {
        Some(&[a, b, c, d]) => {
            *pos += 4;
            Ok(u32::from_le_bytes([a, b, c, d]))
        }
        _ => Err(CodecError::Truncated("u32 field")),
    }
}

/// Reads a little-endian `u64` at `*pos`, advancing the cursor on success.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if fewer than 8 bytes remain.
pub fn read_le_u64(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    match data.get(*pos..).and_then(|rest| rest.get(..8)) {
        Some(&[a, b, c, d, e, f, g, h]) => {
            *pos += 8;
            Ok(u64::from_le_bytes([a, b, c, d, e, f, g, h]))
        }
        _ => Err(CodecError::Truncated("u64 field")),
    }
}

/// Appends one raw byte — the writer half of [`read_u8`].
pub fn write_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn write_le_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn write_le_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn write_le_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        write_u8(&mut buf, 0x5a);
        write_le_u16(&mut buf, 0xbeef);
        write_le_u32(&mut buf, 0xdead_beef);
        write_le_u64(&mut buf, 0x0123_4567_89ab_cdef);
        let mut pos = 0;
        assert_eq!(read_u8(&buf, &mut pos).unwrap(), 0x5a);
        assert_eq!(read_le_u16(&buf, &mut pos).unwrap(), 0xbeef);
        assert_eq!(read_le_u32(&buf, &mut pos).unwrap(), 0xdead_beef);
        assert_eq!(read_le_u64(&buf, &mut pos).unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn short_reads_error_without_moving_the_cursor() {
        let buf = [1u8, 2, 3];
        let mut pos = 0;
        assert_eq!(
            read_le_u32(&buf, &mut pos),
            Err(CodecError::Truncated("u32 field"))
        );
        assert_eq!(pos, 0);
        assert_eq!(read_le_u16(&buf, &mut pos).unwrap(), 0x0201);
        assert_eq!(
            read_le_u16(&buf, &mut pos),
            Err(CodecError::Truncated("u16 field"))
        );
        assert_eq!(pos, 2);
    }

    #[test]
    fn reads_past_the_end_of_a_large_offset_error() {
        let buf = [0u8; 4];
        let mut pos = usize::MAX - 1;
        assert!(read_le_u16(&buf, &mut pos).is_err());
    }
}
