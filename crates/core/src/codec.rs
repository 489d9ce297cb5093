//! The LLM.265 codec object.
//!
//! Encoding is a **probe**: encode every chunk at one QP (fanned over the
//! deterministic [`pool`]) and write the candidate stream — the tensor
//! header and chunk records of [`crate::framing`] — beside its
//! reconstruction error. A fixed-QP encode is one probe. A rate-targeted
//! one is [`rate::search_qp`] over probes: it reads each candidate's size
//! and error, keeps the feasible end's stream, and returns it, so
//! choosing a rate never re-encodes a QP and never decodes anything. A
//! [`RateModel`] of the chunk frames places its probes, so it needs few
//! of them. Only the first probe searches the whole coding tree: the
//! others near its QP search at and one level below that probe's leaves.
//! The channels run this same search, so their streams are
//! [`TensorCodec::encode`]'s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use llm265_bitstream::crc32::Crc32;
use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::{stats, Tensor};
use llm265_videocodec::encoder::CuShape;
use llm265_videocodec::quant::{QP_MAX, QP_MIN};
use llm265_videocodec::rate::{self, Goal, Probe, RateModel};
use llm265_videocodec::tile::{self, TileLayout};
use llm265_videocodec::transform::DctPlans;
use llm265_videocodec::{CodecConfig, Frame, PipelineConfig, Profile};

use crate::access::TensorStreamIndex;
use crate::chunk::{self, Chunk};
use crate::framing::{self, TensorHeader, TILES_PER_CHUNK};
use crate::pool;
use crate::{CodecError, EncodedTensor, RateTarget, TensorCodec};

/// A rate-search probe this many QPs or more from the QP its kept coding
/// trees were decided at searches the whole tree again and keeps its own
/// instead. Below a kept shape a probe can split one level further but
/// never merge, and the rate model is least sure at high rates, where
/// the first probe can land 15 QPs from the answer. Against searching
/// every probe in full, on Fig 6's six 128×64 weights at 5 bits/value,
/// keeping the first probe's trees throughout cost 17–20% NMSE; this
/// threshold 0–2.9% (also at 1; 2 and 3 cost more at 3.5 bits). Every
/// threshold from 1 up gave the ~3-bit workloads one full search per
/// encode and the same streams (DESIGN.md has the sweep).
const RESEARCH_QP: f64 = 1.5;

/// Configuration of the LLM.265 tensor codec.
#[derive(Debug, Clone, PartialEq)]
pub struct Llm265Config {
    /// Video-codec profile (H.265-like by default, per the paper's §4.1.1
    /// choice: widest availability, highest resolution and throughput).
    pub profile: Profile,
    /// Pipeline switches. The default enforces intra-only coding, as the
    /// paper does for tensors.
    pub pipeline: PipelineConfig,
    /// Maximum pixels per frame chunk (hardware codecs bound frame sizes).
    pub max_chunk_pixels: usize,
    /// Worker threads for chunk-parallel encode/decode; `0` means use the
    /// machine's available parallelism. Encoded bytes are identical at
    /// every thread count — see [`crate::pool`].
    pub threads: usize,
}

impl Default for Llm265Config {
    fn default() -> Self {
        Llm265Config {
            profile: Profile::h265(),
            pipeline: PipelineConfig::default(),
            max_chunk_pixels: 1 << 16,
            threads: 0,
        }
    }
}

/// The LLM.265 tensor codec: chunking + 8-bit quantization + the intra-only
/// video codec (see crate docs).
#[derive(Debug, Clone, Default)]
pub struct Llm265Codec {
    config: Llm265Config,
    encode_counter: Option<Arc<AtomicU64>>,
}

impl Llm265Codec {
    /// Creates a codec with the paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a codec with an explicit configuration.
    #[must_use]
    pub fn with_config(config: Llm265Config) -> Self {
        Llm265Codec {
            config,
            encode_counter: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &Llm265Config {
        &self.config
    }

    /// Installs a counter incremented once per chunk-level video encode —
    /// a test/diagnostics hook for asserting how much work a rate search
    /// performs (e.g. that lazy endpoint probing does not regress).
    pub fn set_chunk_encode_counter(&mut self, counter: Arc<AtomicU64>) {
        self.encode_counter = Some(counter);
    }

    /// The tensor header of `t`'s stream coded at `qp` — the encoder's
    /// one source of coding configuration and chunk geometry, as it is
    /// the decoder's.
    fn header(&self, t: &Tensor, qp: f64) -> TensorHeader {
        TensorHeader {
            cfg: CodecConfig {
                profile: self.config.profile.clone(),
                pipeline: self.config.pipeline,
                qp,
                tiles: TILES_PER_CHUNK,
            },
            rows: t.rows(),
            cols: t.cols(),
            rows_per_chunk: chunk::rows_per_chunk(t.rows(), t.cols(), self.config.max_chunk_pixels),
        }
    }

    /// Encodes every chunk at `qp` — every (chunk, tile) task fanned over
    /// the deterministic pool — and writes the candidate stream: the
    /// tensor header, then each chunk's record with its tile payloads
    /// ([`crate::framing`]). Also returns the total squared error, read
    /// from the encoder's own reconstruction, which is the decoder's
    /// output by construction, so nothing is decoded, and every task's
    /// decided split shape in task order. With `kept` (shapes an earlier
    /// probe returned, in the same task order) each tile searches only
    /// at and one level below its kept shape's leaves
    /// ([`tile::probe_tile`]); without, it searches the whole
    /// tree, and the stream is [`tile::encode_tile`]'s.
    ///
    /// Tile geometry comes from the tensor header ([`TILES_PER_CHUNK`]
    /// tiles per chunk) — never the thread count — and tasks join in task
    /// order, so the flattened fan-out cannot change output bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Internal`] if a worker thread panics, and
    /// [`CodecError::LimitExceeded`] when a dimension or payload does not
    /// fit its 32-bit wire field.
    fn probe_qp(
        &self,
        t: &Tensor,
        padded: &Padded<'_>,
        qp: f64,
        kept: Option<&[CuShape]>,
    ) -> Result<(EncodedTensor, f64, Vec<CuShape>), CodecError> {
        let Padded {
            chunks,
            frames: padded,
            plans,
        } = padded;
        let header = self.header(t, qp);
        let cfg = &header.cfg;
        let counter = self.encode_counter.as_deref();
        let layouts: Vec<TileLayout> = (0..chunks.len()).map(|i| header.layout(i)).collect();
        // Flatten (chunk, tile) so one huge chunk no longer pins a worker.
        let mut tasks: Vec<(usize, usize)> = Vec::new();
        for (ci, layout) in layouts.iter().enumerate() {
            tasks.extend((0..layout.n_tiles()).map(|ti| (ci, ti)));
        }
        let results = pool::run_ordered(tasks.len(), self.config.threads, |k| {
            let (ci, ti) = tasks[k];
            // One count per chunk-level encode, however many tile tasks it
            // fans into — the rate-search tests count probes with this.
            if ti == 0 {
                if let Some(n) = counter {
                    n.fetch_add(1, Ordering::Relaxed);
                }
            }
            let c = &chunks[ci];
            let shape = kept.and_then(|shapes| shapes.get(k));
            let (payload, band_recon, shape) =
                tile::probe_tile(&padded[ci], cfg, plans, &layouts[ci], ti, shape);
            let (row0, rows) = layouts[ci].band_rows(ti);
            (payload, band_sq_err(t, c, &band_recon, row0, rows), shape)
        })?;
        // Serial regroup of the ordered task results into chunk records;
        // errors sum in task order, so the total is identical at every
        // thread count.
        let mut bytes = Vec::new();
        framing::write_tensor_header(&mut bytes, &header)?;
        let header_crc = Crc32::new().update(&bytes);
        let mut it = results.into_iter();
        let mut sq_err = 0.0;
        let mut shapes = Vec::with_capacity(tasks.len());
        for (c, layout) in chunks.iter().zip(&layouts) {
            let tiles: Vec<Vec<u8>> = it
                .by_ref()
                .take(layout.n_tiles())
                .map(|(p, s, shape)| {
                    sq_err += s;
                    shapes.push(shape);
                    p
                })
                .collect();
            framing::write_chunk_record(&mut bytes, header_crc, c.lo, c.scale, &tiles)?;
        }
        // The answer's stream is kept, so drop the growth slack.
        bytes.shrink_to_fit();
        let stream = EncodedTensor::from_parts(bytes, t.rows(), t.cols());
        Ok((stream, sq_err, shapes))
    }

    /// Prior for the size of `t`'s stream at QP 51: the tensor header and
    /// every chunk record written with empty tiles, plus each chunk's
    /// [`rate::floor_payload_bits`].
    ///
    /// # Errors
    ///
    /// As the framing writers: [`CodecError::LimitExceeded`] when a
    /// dimension does not fit its wire field.
    fn floor_bits(&self, t: &Tensor, chunks: &[Chunk]) -> Result<f64, CodecError> {
        let header = self.header(t, QP_MAX);
        let mut bytes = Vec::new();
        framing::write_tensor_header(&mut bytes, &header)?;
        let mut payload = 0.0;
        for (i, c) in chunks.iter().enumerate() {
            let layout = header.layout(i);
            let empty = vec![Vec::new(); layout.n_tiles()];
            framing::write_chunk_record(&mut bytes, Crc32::new(), c.lo, c.scale, &empty)?;
            payload += rate::floor_payload_bits(&layout);
        }
        Ok(8.0 * bytes.len() as f64 + payload)
    }

    /// Rate-targeted encode: [`rate::search_qp`] over [`Self::probe_qp`]
    /// candidate streams, returning the answer's, with a [`RateModel`] of
    /// the chunk frames (one serial analysis pass, so identical at every
    /// thread count) and the stream's QP-51 prior placing the probes.
    ///
    /// The first probe below QP 51 searches the whole coding tree and its
    /// split shapes are kept, in task order; every later probe searches
    /// only at and one level below them, unless it lies [`RESEARCH_QP`]
    /// or more from the QP they were kept at, when it searches the whole
    /// tree and its shapes are kept instead. A QP-51 probe searches the
    /// whole tree and keeps nothing: its λ makes nearly every CTU one
    /// leaf, a shape no finer QP should be held to.
    ///
    /// # Errors
    ///
    /// Propagates probe failures.
    fn encode_to_goal(
        &self,
        t: &Tensor,
        padded: &Padded<'_>,
        goal: Goal,
    ) -> Result<EncodedTensor, CodecError> {
        let chunks = padded.chunks;
        // Error goals are in tensor units: a chunk's pixel² error weighs
        // its affine scale².
        let model = RateModel::analyse(
            chunks
                .iter()
                .map(|c| (&c.frame, f64::from(c.scale) * f64::from(c.scale))),
        );
        // The kept shapes and the QP they were decided at.
        let mut kept: Option<(f64, Vec<CuShape>)> = None;
        let floor = self.floor_bits(t, chunks)?;
        let (_, stream) = rate::search_qp(goal, &model, floor, |qp| {
            // A QP-51 probe neither reuses shapes nor keeps its own.
            let unkept = qp >= QP_MAX;
            let reuse = kept
                .as_ref()
                .filter(|(at, _)| !unkept && (qp - at).abs() < RESEARCH_QP)
                .map(|(_, shapes)| shapes.as_slice());
            let full = reuse.is_none();
            let (stream, sq_err, shapes) = self.probe_qp(t, padded, qp, reuse)?;
            if full && !unkept {
                kept = Some((qp, shapes));
            }
            let p = Probe {
                bits: stream.bits(),
                sq_err,
            };
            Ok::<_, CodecError>((p, stream))
        })?;
        Ok(stream)
    }
}

/// What every probe of one encode shares: the chunks, their frames
/// padded to the CTU size and the DCT plans, built once per encode.
struct Padded<'a> {
    chunks: &'a [Chunk],
    frames: Vec<Frame>,
    plans: DctPlans,
}

impl<'a> Padded<'a> {
    fn new(chunks: &'a [Chunk], ctu: usize) -> Self {
        Padded {
            chunks,
            frames: chunks.iter().map(|c| c.frame.padded_to(ctu)).collect(),
            plans: DctPlans::new(),
        }
    }
}

/// Squared error between chunk rows `[band_row0, band_row0 + rows)` and a
/// band reconstruction mapped back through the affine dequantizer. The
/// reconstruction may be padded wider than the real band; only real
/// pixels are compared. The encoder's reconstruction is the decoder's
/// output by construction, so summing the bands equals the decode-side
/// error without a round trip.
fn band_sq_err(t: &Tensor, c: &Chunk, recon: &Frame, band_row0: usize, rows: usize) -> f64 {
    let cols = t.cols().min(recon.width());
    let mut sum = 0.0;
    for y in 0..rows {
        let row = t.row(c.row0 + band_row0 + y);
        for (x, &src) in row.iter().enumerate().take(cols) {
            let v = c.lo + f32::from(recon.get(x, y)) * c.scale;
            let d = f64::from(src) - f64::from(v);
            sum += d * d;
        }
    }
    sum
}

impl TensorCodec for Llm265Codec {
    fn name(&self) -> String {
        format!("LLM.265/{}", self.config.profile.kind().name())
    }

    fn encode(&self, t: &Tensor, target: RateTarget) -> Result<EncodedTensor, CodecError> {
        if t.is_empty() {
            return Err(CodecError::InvalidInput(
                "cannot encode an empty tensor".into(),
            ));
        }
        if t.cols() > self.config.max_chunk_pixels {
            return Err(CodecError::InvalidInput(format!(
                "tensor width {} exceeds max chunk pixels {}",
                t.cols(),
                self.config.max_chunk_pixels
            )));
        }
        let chunks = chunk::partition(t, self.config.max_chunk_pixels, self.config.threads)?;
        let padded = Padded::new(&chunks, self.config.profile.ctu());
        let goal = match target {
            RateTarget::Qp(qp) => {
                if !(QP_MIN..=QP_MAX).contains(&qp) {
                    return Err(CodecError::InvalidInput(format!("qp {qp} out of range")));
                }
                return Ok(self.probe_qp(t, &padded, qp, None)?.0);
            }
            RateTarget::BitsPerValue(b) => {
                if !(b.is_finite() && b > 0.0) {
                    return Err(CodecError::InvalidInput(format!(
                        "bits/value target {b} must be positive and finite"
                    )));
                }
                Goal::MaxBits(b * t.len() as f64)
            }
            RateTarget::MaxNormalizedMse(m) => {
                if !(m.is_finite() && m >= 0.0) {
                    return Err(CodecError::InvalidInput(format!(
                        "MSE target {m} must be non-negative and finite"
                    )));
                }
                let var = stats::variance(t.data()).max(1e-30);
                // Total squared error budget: target normalized MSE ×
                // variance × element count (feasibility on sums avoids a
                // division per probe and matches `stats::tensor_mse` up
                // to summation order).
                Goal::MaxSquaredError(m * var * t.len() as f64)
            }
        };
        self.encode_to_goal(t, &padded, goal)
    }

    fn decode(&self, e: &EncodedTensor) -> Result<Tensor, CodecError> {
        decode_tensor(e, self.config.threads)
    }
}

fn decode_tensor(e: &EncodedTensor, threads: usize) -> Result<Tensor, CodecError> {
    let data = &e.bytes[..];
    // Pass 1 (serial): parse the stream's framing — the tensor header and
    // every chunk record — without touching payloads. The header fixes
    // every chunk's and tile's rows, so the tiles tile the tensor by
    // construction.
    let index = TensorStreamIndex::parse(data)?;
    let (rows, cols) = index.shape();
    // Re-established where they size the fan-out and the output buffer:
    // the parse bounded the shape and the chunk count, but this function
    // allocates from them, so bound them again at the consumer.
    if rows.saturating_mul(cols) > 1 << 31 {
        return Err(CodecError::LimitExceeded("tensor shape"));
    }
    if index.n_chunks() > data.len() / framing::MIN_CHUNK_RECORD_BYTES {
        return Err(CodecError::LimitExceeded("tensor chunk count"));
    }
    // The shape is stated once on the wire, so a corrupted dimension has
    // no second copy to disagree with; the shape the stream travelled
    // with is that copy.
    if (rows, cols) != e.shape() {
        return Err(CodecError::Corrupt(
            "stream shape disagrees with the tensor's",
        ));
    }
    // Every chunk the stream holds is decoded, so verify every checksum
    // first: the framing parsed whole, so a hostile length has already
    // reported its own error.
    for c in 0..index.n_chunks() {
        index.verify_chunk(data, c)?;
    }
    // Pass 2: decode every (chunk, tile) on the deterministic pool, so
    // tiles of a single large chunk decode in parallel. Errors surface in
    // task order, so a corrupt stream reports the same tile at every
    // thread count.
    let mut tasks: Vec<(usize, usize)> = Vec::new();
    for c in 0..index.n_chunks() {
        tasks.extend((0..index.n_tiles(c)).map(|t| (c, t)));
    }
    let bands = pool::try_run_ordered(tasks.len(), threads, |k| {
        let (c, t) = tasks[k];
        index.decode_tile_frame(data, c, t)
    })?;
    // Pass 3 (serial): affine-restore the bands into the output tensor.
    let mut out = Tensor::zeros(rows, cols);
    for (&(c, t), frame) in tasks.iter().zip(&bands) {
        let (lo, scale) = index.chunk_affine(c);
        chunk::dequantize_into(&mut out, frame, index.tile_rows(c, t).0, lo, scale);
    }
    Ok(out)
}

/// [`LossyCompressor`] adapter: an LLM.265 codec bound to one rate target,
/// pluggable into the distributed-training simulator.
///
/// Each call is [`Llm265Codec::encode`] at the target, rate search and
/// all, then [`Llm265Codec::decode`] of that stream.
#[derive(Debug, Clone)]
pub struct Llm265Channel {
    codec: Llm265Codec,
    target: RateTarget,
}

impl Llm265Channel {
    /// Binds a codec to a rate target.
    pub fn new(codec: Llm265Codec, target: RateTarget) -> Self {
        Llm265Channel { codec, target }
    }

    /// Convenience: default codec at a bits/value budget.
    pub fn at_bits(bits: f64) -> Self {
        Llm265Channel::new(Llm265Codec::new(), RateTarget::BitsPerValue(bits))
    }
}

/// A channel call: [`Llm265Codec::encode`] at `target`, then
/// [`Llm265Codec::decode`] of that stream.
fn round_trip(codec: &Llm265Codec, t: &Tensor, target: RateTarget) -> (Tensor, EncodedTensor) {
    #[allow(
        clippy::expect_used,
        reason = "channel contract: callers feed non-empty tensors"
    )]
    let enc = codec
        .encode(t, target)
        .expect("transcode of non-empty tensor");
    #[allow(
        clippy::expect_used,
        reason = "decoding a stream produced two lines up"
    )]
    let out = codec.decode(&enc).expect("self-produced stream decodes");
    (out, enc)
}

impl LossyCompressor for Llm265Channel {
    fn name(&self) -> String {
        match self.target {
            RateTarget::BitsPerValue(b) => format!("LLM.265 ({b:.1}b)"),
            RateTarget::MaxNormalizedMse(m) => format!("LLM.265 (nmse {m})"),
            RateTarget::Qp(q) => format!("LLM.265 (qp {q})"),
        }
    }

    fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
        let (out, enc) = round_trip(&self.codec, t, self.target);
        (out, enc.bits())
    }

    fn nominal_bits_per_value(&self) -> Option<f64> {
        match self.target {
            RateTarget::BitsPerValue(b) => Some(b),
            _ => None,
        }
    }
}

/// A rate-*tracking* LLM.265 channel for training loops: a bits/value
/// channel that also hands out each call's stream and the QP its search
/// settled on.
///
/// Every call is [`Llm265Codec::encode`] at the bits target, then
/// [`Llm265Codec::decode`], as [`Llm265Channel`] at the same target; the
/// stream is kept until the next call.
#[derive(Debug, Clone)]
pub struct Llm265TrackingChannel {
    codec: Llm265Codec,
    target_bits: f64,
    last_stream: Option<EncodedTensor>,
}

impl Llm265TrackingChannel {
    /// Creates a tracking channel for a bits/value target.
    ///
    /// # Panics
    ///
    /// Panics if `target_bits` is not positive and finite.
    pub fn at_bits(target_bits: f64) -> Self {
        Llm265TrackingChannel::with_codec(Llm265Codec::new(), target_bits)
    }

    /// Creates a tracking channel around an explicit codec (e.g. one with
    /// a thread count or an encode counter installed).
    ///
    /// # Panics
    ///
    /// Panics if `target_bits` is not positive and finite, the targets
    /// [`Llm265Codec::encode`] rejects with [`CodecError::InvalidInput`].
    pub fn with_codec(codec: Llm265Codec, target_bits: f64) -> Self {
        assert!(
            target_bits.is_finite() && target_bits > 0.0,
            "bits target must be positive and finite"
        );
        Llm265TrackingChannel {
            codec,
            target_bits,
            last_stream: None,
        }
    }

    /// The stream of the last call, `None` before the first.
    pub fn last_stream(&self) -> Option<&EncodedTensor> {
        self.last_stream.as_ref()
    }

    /// The QP the last search settled on, as the last stream's header
    /// states it (on the 1/256 grid every payload is coded at); 30 before
    /// the first call.
    pub fn current_qp(&self) -> f64 {
        self.last_stream
            .as_ref()
            .and_then(|e| framing::parse_tensor_header(e.bytes(), &mut 0).ok())
            .map_or(30.0, |header| header.cfg.qp)
    }
}

impl LossyCompressor for Llm265TrackingChannel {
    fn name(&self) -> String {
        format!("LLM.265 ({:.1}b, tracking)", self.target_bits)
    }

    fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
        let (out, enc) = round_trip(&self.codec, t, RateTarget::BitsPerValue(self.target_bits));
        let bits = enc.bits();
        self.last_stream = Some(enc);
        (out, bits)
    }

    fn nominal_bits_per_value(&self) -> Option<f64> {
        Some(self.target_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::synthetic::{self, WeightProfile};

    fn weight(seed: u64, n: usize) -> Tensor {
        let mut rng = Pcg32::seed_from(seed);
        synthetic::llm_weight(n, n, &WeightProfile::default(), &mut rng)
    }

    #[test]
    fn roundtrip_shape_and_rate() {
        let t = weight(1, 64);
        let codec = Llm265Codec::new();
        let enc = codec.encode(&t, RateTarget::BitsPerValue(3.0)).unwrap();
        assert!(enc.bits_per_value() <= 3.05, "bpv {}", enc.bits_per_value());
        let out = codec.decode(&enc).unwrap();
        assert_eq!(out.shape(), t.shape());
        let nmse = stats::tensor_mse(&t, &out) / stats::variance(t.data());
        assert!(nmse < 0.2, "nmse {nmse}");
    }

    #[test]
    fn multi_chunk_tensors_roundtrip() {
        let t = weight(2, 96); // forces several chunks with small limit
        let codec = Llm265Codec::with_config(Llm265Config {
            max_chunk_pixels: 96 * 24,
            ..Llm265Config::default()
        });
        let enc = codec.encode(&t, RateTarget::Qp(20.0)).unwrap();
        let out = codec.decode(&enc).unwrap();
        assert_eq!(out.shape(), t.shape());
        let nmse = stats::tensor_mse(&t, &out) / stats::variance(t.data());
        assert!(nmse < 0.05, "nmse {nmse}");
    }

    #[test]
    fn mse_target_is_met() {
        let t = weight(3, 64);
        let codec = Llm265Codec::new();
        let enc = codec
            .encode(&t, RateTarget::MaxNormalizedMse(0.02))
            .unwrap();
        let out = codec.decode(&enc).unwrap();
        let nmse = stats::tensor_mse(&t, &out) / stats::variance(t.data());
        assert!(nmse <= 0.02 + 1e-9, "nmse {nmse}");
        // Should not be extravagant in bits for the quality asked.
        assert!(enc.bits_per_value() < 8.0);
    }

    #[test]
    fn lower_budget_means_fewer_bits_and_more_error() {
        let t = weight(4, 64);
        let codec = Llm265Codec::new();
        let coarse = codec.encode(&t, RateTarget::BitsPerValue(1.5)).unwrap();
        let fine = codec.encode(&t, RateTarget::BitsPerValue(4.5)).unwrap();
        assert!(coarse.bits() < fine.bits());
        let e_coarse = stats::tensor_mse(&t, &codec.decode(&coarse).unwrap());
        let e_fine = stats::tensor_mse(&t, &codec.decode(&fine).unwrap());
        assert!(e_coarse > e_fine);
    }

    #[test]
    fn fractional_budgets_resolve() {
        // The paper's headline: 2.88-bit style fractional budgets.
        let t = weight(5, 64);
        let codec = Llm265Codec::new();
        let a = codec.encode(&t, RateTarget::BitsPerValue(2.6)).unwrap();
        let b = codec.encode(&t, RateTarget::BitsPerValue(2.9)).unwrap();
        assert!(a.bits_per_value() <= 2.65);
        assert!(b.bits_per_value() <= 2.95);
        assert!(b.bits() >= a.bits());
    }

    #[test]
    fn rejects_bad_inputs() {
        let codec = Llm265Codec::new();
        let empty = Tensor::zeros(0, 0);
        assert!(codec.encode(&empty, RateTarget::Qp(20.0)).is_err());
        let t = weight(6, 8);
        assert!(codec.encode(&t, RateTarget::Qp(99.0)).is_err());
        assert!(codec.encode(&t, RateTarget::BitsPerValue(-1.0)).is_err());
        assert!(codec
            .encode(&t, RateTarget::MaxNormalizedMse(-0.5))
            .is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for target in [
                RateTarget::Qp(bad),
                RateTarget::BitsPerValue(bad),
                RateTarget::MaxNormalizedMse(bad),
            ] {
                assert!(
                    matches!(codec.encode(&t, target), Err(CodecError::InvalidInput(_))),
                    "{target:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_corrupt_streams() {
        let t = weight(7, 32);
        let codec = Llm265Codec::new();
        let enc = codec.encode(&t, RateTarget::Qp(24.0)).unwrap();
        let mut bad = enc.clone();
        bad.bytes.truncate(bad.bytes.len() / 2);
        assert!(codec.decode(&bad).is_err());
        let mut bad_magic = enc.clone();
        bad_magic.bytes[0] ^= 0xff;
        assert!(codec.decode(&bad_magic).is_err());
    }

    #[test]
    fn channel_adapter_reports_bits() {
        let t = weight(8, 48);
        let mut ch = Llm265Channel::at_bits(3.5);
        let (out, bits) = ch.transcode(&t);
        assert_eq!(out.shape(), t.shape());
        let bpv = bits as f64 / t.len() as f64;
        assert!(bpv <= 3.55, "bpv {bpv}");
        assert_eq!(ch.nominal_bits_per_value(), Some(3.5));
        assert!(ch.name().contains("LLM.265"));
    }

    /// A channel call is `encode` at the channel's target, then `decode`
    /// of that stream: the same tensor and the same bits. At 4.5 bits
    /// both searches probe [`RESEARCH_QP`] or more from their first
    /// probe, so they search the whole coding tree again and keep those
    /// shapes instead.
    #[test]
    fn channels_are_encode_then_decode() {
        use llm265_tensor::synthetic::{llm_gradient, GradientProfile};
        let codec = Llm265Codec::with_config(Llm265Config {
            threads: 1,
            ..Llm265Config::default()
        });
        let mut rng = Pcg32::seed_from(11);
        let tensors = [
            llm_gradient(48, 48, &GradientProfile::default(), &mut rng),
            synthetic::llm_weight(128, 64, &WeightProfile::default(), &mut rng),
        ];
        for t in &tensors {
            for bits in [2.6, 3.0, 4.5] {
                let target = RateTarget::BitsPerValue(bits);
                let enc = codec.encode(t, target).unwrap();
                let want = (codec.decode(&enc).unwrap(), enc.bits());
                let got = Llm265Channel::new(codec.clone(), target).transcode(t);
                assert!(got == want, "{:?} at {bits}", t.shape());
            }
        }
    }

    #[test]
    fn constant_tensor_costs_almost_nothing() {
        let t = Tensor::full(64, 64, 0.25);
        let codec = Llm265Codec::new();
        let enc = codec.encode(&t, RateTarget::Qp(30.0)).unwrap();
        let out = codec.decode(&enc).unwrap();
        assert_eq!(out, t);
        assert!(enc.bits_per_value() < 0.2, "bpv {}", enc.bits_per_value());
    }

    /// The prior for the QP-51 size (geometry plus the model's QP-51
    /// survivors), against measured QP-51 streams of every tensor kind
    /// the workloads code: it misses by at most 1% of a 3-bit budget
    /// (measured 0.73%), so it moves the first probe by no more.
    #[test]
    fn qp51_prior_tracks_measured_qp51_sizes() {
        use llm265_tensor::synthetic::{kv_cache_slab, llm_gradient, GradientProfile};
        let codec = Llm265Codec::with_config(Llm265Config {
            threads: 1,
            max_chunk_pixels: 96 * 32,
            ..Llm265Config::default()
        });
        for seed in [1, 7] {
            let mut rng = Pcg32::seed_from(seed);
            let weights = WeightProfile::default();
            for t in [
                synthetic::llm_weight(32, 32, &weights, &mut rng),
                synthetic::llm_weight(64, 64, &weights, &mut rng),
                synthetic::llm_weight(128, 96, &weights, &mut rng),
                llm_gradient(64, 64, &GradientProfile::default(), &mut rng),
                kv_cache_slab(128, 64, &mut rng),
            ] {
                let chunks = chunk::partition(&t, 96 * 32, 1).unwrap();
                let model = RateModel::analyse(chunks.iter().map(|c| (&c.frame, 1.0)));
                let prior = model.qp51_bits(codec.floor_bits(&t, &chunks).unwrap());
                let measured = codec.encode(&t, RateTarget::Qp(QP_MAX)).unwrap().bits() as f64;
                let budget = 3.0 * t.len() as f64;
                assert!(
                    (prior - measured).abs() <= 0.01 * budget,
                    "{:?} seed {seed}: prior {prior} vs {measured} bits",
                    t.shape()
                );
            }
        }
    }

    #[test]
    fn probe_error_matches_the_decoded_stream() {
        // The search trusts the probe's error instead of decoding; pin it
        // to the ground truth.
        let t = weight(9, 96);
        let codec = Llm265Codec::with_config(Llm265Config {
            max_chunk_pixels: 96 * 24,
            threads: 1,
            ..Llm265Config::default()
        });
        let chunks = chunk::partition(&t, 96 * 24, 1).unwrap();
        let padded = Padded::new(&chunks, codec.config.profile.ctu());
        let (enc, sq_err, _) = codec.probe_qp(&t, &padded, 28.0, None).unwrap();
        let dec = codec.decode(&enc).unwrap();
        let true_sq = stats::tensor_mse(&t, &dec) * t.len() as f64;
        let rel = (sq_err - true_sq).abs() / true_sq.max(1e-30);
        assert!(rel < 1e-9, "probe sq_err {sq_err} vs decode {true_sq}");
    }
}

#[cfg(test)]
mod tracking_tests {
    use super::*;
    use llm265_tensor::channel::LossyCompressor;
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::synthetic::{llm_gradient, GradientProfile};

    #[test]
    fn tracking_channel_converges_to_budget() {
        let mut ch = Llm265TrackingChannel::at_bits(3.0);
        let mut rng = Pcg32::seed_from(1);
        let mut last_bpv = 0.0;
        for step in 0..6 {
            let g = llm_gradient(48, 48, &GradientProfile::default(), &mut rng);
            let (out, bits) = ch.transcode(&g);
            assert_eq!(out.shape(), g.shape());
            last_bpv = bits as f64 / g.len() as f64;
            assert!(last_bpv <= 3.0, "step {step}: {last_bpv}");
        }
        assert!(last_bpv > 2.2, "should sit near the budget, got {last_bpv}");
        assert!(ch.current_qp() > 0.0 && ch.current_qp() < 51.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn tracking_channel_rejects_bad_target() {
        let _ = Llm265TrackingChannel::at_bits(0.0);
    }

    /// `encode` rejects an infinite bits target; the tracking channel
    /// refuses it at construction, before any `encode` can.
    #[test]
    #[should_panic(expected = "finite")]
    fn tracking_channel_rejects_an_infinite_target() {
        let _ = Llm265TrackingChannel::at_bits(f64::INFINITY);
    }

    /// The tracking channel runs the same search as a plain bits/value
    /// channel: fed the same gradient sequence at the same target, the
    /// two produce identical bits and tensors on every step, whatever
    /// the earlier steps were. The stream it hands out is `encode`'s at
    /// the target byte for byte, decodes to the channel's output, and
    /// states the QP the channel reports.
    #[test]
    fn tracking_channel_matches_the_plain_channel() {
        let codec = Llm265Codec::with_config(Llm265Config {
            threads: 1,
            ..Llm265Config::default()
        });
        let mut tracking = Llm265TrackingChannel::with_codec(codec.clone(), 3.0);
        let mut plain = Llm265Channel::new(codec.clone(), RateTarget::BitsPerValue(3.0));
        assert!(tracking.last_stream().is_none());
        let mut rng = Pcg32::seed_from(5);
        for step in 0..4 {
            let g = llm_gradient(48, 48, &GradientProfile::default(), &mut rng);
            let (a, a_bits) = tracking.transcode(&g);
            let (b, b_bits) = plain.transcode(&g);
            assert_eq!(a_bits, b_bits, "step {step}");
            assert_eq!(a, b, "step {step}");
            assert!(a_bits as f64 / g.len() as f64 <= 3.0, "step {step}");
            let stream = tracking.last_stream().unwrap();
            let bits_enc = codec.encode(&g, RateTarget::BitsPerValue(3.0)).unwrap();
            assert_eq!(stream.bytes(), bits_enc.bytes(), "step {step}");
            assert_eq!(stream.bits(), a_bits, "step {step}");
            assert_eq!(codec.decode(stream).unwrap(), a, "step {step}");
            let index = TensorStreamIndex::parse(stream.bytes()).unwrap();
            assert_eq!(index.qp(), tracking.current_qp(), "step {step}");
        }
    }
}
