//! Multi-tensor archives: one self-describing stream for a whole model.
//!
//! The paper's deployment story compresses *all* of a model's weight
//! matrices (Fig 1b); shipping them as one archive (an index plus
//! per-tensor LLM.265 streams) is the natural container — this is what a
//! checkpoint saved "in LLM.265 format" looks like.

use std::ops::Range;

use llm265_bitstream::bytes;
use llm265_tensor::Tensor;
use llm265_videocodec::tile::wire_u32;

use crate::access::TensorStreamIndex;
use crate::framing;
use crate::{CodecError, EncodedTensor, RateTarget, TensorCodec};

const MAGIC: u32 = 0x4C41_3635; // "LA65"

/// Appends the archive header — magic, then the entry count; the exact
/// mirror of [`parse_archive_header`].
fn write_archive_header(out: &mut Vec<u8>, n_entries: usize) -> Result<(), CodecError> {
    let count = wire_u32(n_entries, "archive tensor count exceeds u32")?;
    bytes::write_le_u32(out, MAGIC);
    bytes::write_le_u32(out, count);
    Ok(())
}

/// Parses the archive header at `*pos`, returning the entry count.
fn parse_archive_header(data: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    if bytes::read_le_u32(data, pos)? != MAGIC {
        return Err(CodecError::Corrupt("bad archive magic"));
    }
    let count = bytes::read_le_u32(data, pos)? as usize;
    if count > 1 << 20 {
        return Err(CodecError::LimitExceeded("archive entry count"));
    }
    Ok(count)
}

/// Appends one archive entry — a `u16` name length, the UTF-8 name, a
/// `u32` stream length, the tensor stream; the exact mirror of
/// [`parse_archive_entry`].
fn write_archive_entry(out: &mut Vec<u8>, name: &str, stream: &[u8]) -> Result<(), CodecError> {
    let name_len = u16::try_from(name.len()).map_err(|_| {
        CodecError::InvalidInput(format!("tensor name too long ({} bytes)", name.len()))
    })?;
    let stream_len = wire_u32(stream.len(), "archive tensor stream exceeds u32")?;
    bytes::write_le_u16(out, name_len);
    out.extend_from_slice(name.as_bytes());
    bytes::write_le_u32(out, stream_len);
    out.extend_from_slice(stream);
    Ok(())
}

/// Parses the archive entry at `*pos`, returning its name and its tensor
/// stream's absolute byte range; no stream byte is read.
fn parse_archive_entry(data: &[u8], pos: &mut usize) -> Result<(String, Range<usize>), CodecError> {
    let name_len = bytes::read_le_u16(data, pos)? as usize;
    let name_bytes = data
        .get(*pos..)
        .and_then(|rest| rest.get(..name_len))
        .ok_or(CodecError::Truncated("tensor name"))?;
    *pos += name_len;
    let name = String::from_utf8(name_bytes.to_vec())
        .map_err(|_| CodecError::Corrupt("tensor name is not UTF-8"))?;
    let len = bytes::read_le_u32(data, pos)? as usize;
    let range = *pos..*pos + len;
    if range.end > data.len() {
        return Err(CodecError::Truncated("tensor payload"));
    }
    *pos = range.end;
    Ok((name, range))
}

/// A compressed multi-tensor archive.
#[derive(Debug, Clone)]
pub struct TensorArchive {
    bytes: Vec<u8>,
    entries: Vec<(String, usize, usize)>, // name, rows, cols
}

impl TensorArchive {
    /// Compresses `tensors` (name, tensor) with `codec` at `target`,
    /// producing a single self-describing byte stream.
    ///
    /// # Errors
    ///
    /// Propagates the first per-tensor encode failure, and rejects inputs
    /// that overflow the wire format's fixed-width length fields (more
    /// than `u32::MAX` tensors, names over `u16::MAX` bytes, a per-tensor
    /// stream over `u32::MAX` bytes) instead of truncating them.
    pub fn encode(
        codec: &dyn TensorCodec,
        tensors: &[(String, Tensor)],
        target: RateTarget,
    ) -> Result<Self, CodecError> {
        let mut out = Vec::new();
        write_archive_header(&mut out, tensors.len())?;
        let mut entries = Vec::with_capacity(tensors.len());
        for (name, t) in tensors {
            write_archive_entry(&mut out, name, codec.encode(t, target)?.bytes())?;
            entries.push((name.clone(), t.rows(), t.cols()));
        }
        // The archive is kept, so drop the growth slack: without this its
        // capacity, and a loader's peak heap, swing by up to the size of
        // the archive with the last entry's length.
        out.shrink_to_fit();
        Ok(TensorArchive {
            bytes: out,
            entries,
        })
    }

    /// The serialized archive.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Archive entries as `(name, rows, cols)`.
    pub fn entries(&self) -> &[(String, usize, usize)] {
        &self.entries
    }

    /// Total archive size in bits.
    pub fn bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Average bits per stored tensor value (with all framing).
    pub fn bits_per_value(&self) -> f64 {
        let values: usize = self.entries.iter().map(|(_, r, c)| r * c).sum();
        if values == 0 {
            0.0
        } else {
            self.bits() as f64 / values as f64
        }
    }

    /// Parses and decodes an archive produced by [`TensorArchive::encode`]:
    /// [`ArchiveIndex::parse`], then a decode of every entry's stream.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on corrupt or truncated streams.
    pub fn decode(
        codec: &dyn TensorCodec,
        data: &[u8],
    ) -> Result<Vec<(String, Tensor)>, CodecError> {
        let index = ArchiveIndex::parse(data)?;
        let mut out = Vec::with_capacity(index.len());
        for (i, name) in index.names().enumerate() {
            let stream = index.stream(data, i)?;
            // The archive stores no shapes: each stream's own header
            // states it.
            let header = framing::parse_tensor_header(stream, &mut 0)?;
            let (rows, cols) = (header.rows, header.cols);
            let enc = EncodedTensor::from_parts(stream.to_vec(), rows, cols);
            out.push((name.to_string(), codec.decode(&enc)?));
        }
        Ok(out)
    }
}

/// Byte-range index over a serialized archive: maps every entry name to
/// its tensor stream's absolute range, and — through
/// [`TensorStreamIndex`] — every chunk and tile inside it. This is the
/// archive-level random-access read path: serving can decode one band of
/// one tensor from its byte ranges alone, never touching (or even
/// reading) the rest of the checkpoint.
#[derive(Debug, Clone)]
pub struct ArchiveIndex {
    entries: Vec<(String, Range<usize>)>,
}

impl ArchiveIndex {
    /// Parses just the archive framing (entry names and stream ranges);
    /// no tensor stream is parsed or decoded.
    ///
    /// # Errors
    ///
    /// Bad magic, entry-count bombs, malformed names, truncated records
    /// and bytes after the last entry.
    pub fn parse(data: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        let count = parse_archive_header(data, &mut pos)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(parse_archive_entry(data, &mut pos)?);
        }
        if pos != data.len() {
            return Err(CodecError::Corrupt("bytes after the last archive entry"));
        }
        Ok(ArchiveIndex { entries })
    }

    /// Number of indexed tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry names, in archive order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Index of the entry named `name`, if present.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|(n, _)| n == name)
    }

    /// Entry `i`'s tensor stream bytes — the per-tensor range read.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidInput`] for an out-of-range entry,
    /// [`CodecError::Truncated`] if `data` no longer covers its range.
    pub fn stream<'d>(&self, data: &'d [u8], i: usize) -> Result<&'d [u8], CodecError> {
        let range = self
            .entries
            .get(i)
            .ok_or_else(|| CodecError::InvalidInput(format!("archive entry {i} out of range")))?
            .1
            .clone();
        data.get(range)
            .ok_or(CodecError::Truncated("tensor payload"))
    }

    /// Parses entry `i`'s tensor-stream index (chunk and tile byte
    /// ranges, relative to the entry's stream).
    ///
    /// # Errors
    ///
    /// Entry lookup errors as in [`Self::stream`], plus any
    /// [`TensorStreamIndex::parse`] error.
    pub fn tensor_index(&self, data: &[u8], i: usize) -> Result<TensorStreamIndex, CodecError> {
        TensorStreamIndex::parse(self.stream(data, i)?)
    }

    /// Random access all the way down: decodes one tile of one chunk of
    /// entry `i`, reading only that tile's bytes (plus framing).
    ///
    /// # Errors
    ///
    /// Entry lookup, index parse, or tile decode errors.
    pub fn decode_tile(
        &self,
        data: &[u8],
        i: usize,
        chunk: usize,
        tile: usize,
    ) -> Result<Tensor, CodecError> {
        let stream = self.stream(data, i)?;
        TensorStreamIndex::parse(stream)?.decode_tile(stream, chunk, tile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Llm265Codec;
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::stats;
    use llm265_tensor::synthetic::{llm_weight, WeightProfile};

    fn stack(seed: u64) -> Vec<(String, Tensor)> {
        let mut rng = Pcg32::seed_from(seed);
        (0..3)
            .map(|i| {
                (
                    format!("layer{i}.w"),
                    llm_weight(48, 48, &WeightProfile::default(), &mut rng),
                )
            })
            .collect()
    }

    #[test]
    fn archive_roundtrip_preserves_names_shapes_and_quality() {
        let tensors = stack(1);
        let codec = Llm265Codec::new();
        let ar = TensorArchive::encode(&codec, &tensors, RateTarget::BitsPerValue(3.0)).unwrap();
        assert!(ar.bits_per_value() <= 3.2, "bpv {}", ar.bits_per_value());
        let back = TensorArchive::decode(&codec, ar.bytes()).unwrap();
        assert_eq!(back.len(), 3);
        for ((name_a, t_a), (name_b, t_b)) in tensors.iter().zip(&back) {
            assert_eq!(name_a, name_b);
            assert_eq!(t_a.shape(), t_b.shape());
            let nmse = stats::tensor_mse(t_a, t_b) / stats::variance(t_a.data());
            assert!(nmse < 0.1, "{name_a}: nmse {nmse}");
        }
    }

    #[test]
    fn archive_entries_report_inventory() {
        let tensors = stack(2);
        let codec = Llm265Codec::new();
        let ar = TensorArchive::encode(&codec, &tensors, RateTarget::Qp(28.0)).unwrap();
        assert_eq!(ar.entries().len(), 3);
        assert_eq!(ar.entries()[0], ("layer0.w".to_string(), 48, 48));
    }

    #[test]
    fn corrupt_archives_error_gracefully() {
        let tensors = stack(3);
        let codec = Llm265Codec::new();
        let ar = TensorArchive::encode(&codec, &tensors, RateTarget::Qp(30.0)).unwrap();
        assert!(TensorArchive::decode(&codec, &[]).is_err());
        assert!(TensorArchive::decode(&codec, &ar.bytes()[..6]).is_err());
        let mut bad = ar.bytes().to_vec();
        bad[0] ^= 0xff;
        assert!(TensorArchive::decode(&codec, &bad).is_err());
        let cut = ar.bytes().len() - 10;
        assert!(TensorArchive::decode(&codec, &ar.bytes()[..cut]).is_err());
    }

    #[test]
    fn archive_index_random_access_matches_full_decode() {
        let tensors = stack(4);
        let codec = Llm265Codec::new();
        let ar = TensorArchive::encode(&codec, &tensors, RateTarget::Qp(26.0)).unwrap();
        let index = ArchiveIndex::parse(ar.bytes()).unwrap();
        assert_eq!(index.len(), 3);
        assert_eq!(index.find("layer1.w"), Some(1));
        assert_eq!(index.find("missing"), None);
        let full = TensorArchive::decode(&codec, ar.bytes()).unwrap();
        for (i, (name, _)) in tensors.iter().enumerate() {
            assert_eq!(index.names().nth(i), Some(name.as_str()));
            let tidx = index.tensor_index(ar.bytes(), i).unwrap();
            assert_eq!(tidx.shape(), (48, 48));
            // Every band restored via random access must equal the full
            // decode's rows.
            for c in 0..tidx.n_chunks() {
                for t in 0..tidx.n_tiles(c) {
                    let band = index.decode_tile(ar.bytes(), i, c, t).unwrap();
                    let (row0, rows) = tidx.tile_rows(c, t);
                    assert_eq!(band.shape(), (rows, 48));
                    for y in 0..rows {
                        for x in 0..48 {
                            assert_eq!(band[(y, x)], full[i].1[(row0 + y, x)]);
                        }
                    }
                }
            }
        }
        assert!(ArchiveIndex::parse(&ar.bytes()[..6]).is_err());
        assert!(index.stream(ar.bytes(), 99).is_err());
    }

    #[test]
    fn empty_archive_is_valid() {
        let codec = Llm265Codec::new();
        let ar = TensorArchive::encode(&codec, &[], RateTarget::Qp(20.0)).unwrap();
        assert_eq!(ar.bits_per_value(), 0.0);
        assert!(TensorArchive::decode(&codec, ar.bytes())
            .unwrap()
            .is_empty());
    }
}
