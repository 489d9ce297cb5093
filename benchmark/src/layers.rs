//! Per-layer metrics of the traced run, each measured from outside by
//! timing calls into one layer's public functions.
//!
//! Kernel rates run on TU blocks cut from the workload's own tensors,
//! mapped to 8-bit frames with the codec's affine map and coded at the
//! reference QP 30. Stream-level layers (access, archive, pool) run on
//! the streams the workload produced or decodes.

use std::cell::Cell;
use std::hint::black_box;

use llm265_bitstream::cabac::{CabacDecoder, CabacEncoder, Prob};
use llm265_bitstream::rans;
use llm265_core::{
    pool, ArchiveIndex, CodecError, EncodedTensor, RateTarget, TensorArchive, TensorCodec,
    TensorStreamIndex,
};
use llm265_tensor::Tensor;
use llm265_videocodec::intra::{PredMode, RefSamples};
use llm265_videocodec::quant::Quantizer;
use llm265_videocodec::syntax::{
    code_residual, parse_residual, BinRecorder, BinSink, BitCounter, Contexts, RawBinReader,
};
use llm265_videocodec::tile::{self, TileLayout};
use llm265_videocodec::transform::{DctPlan, DctPlans, SIZES};
use llm265_videocodec::{lanes, CodecConfig, Frame, Profile};

use crate::check::{Failure, Tally};
use crate::report::Metrics;
use crate::trace::Trace;

/// Reference QP of the kernel measurements.
const REF_QP: f64 = 30.0;
/// Tiles requested per frame, as `Llm265Codec` requests by default.
const TILES: usize = 8;
/// Pixels of workload frames the kernels run over.
const KERNEL_PIXELS: usize = 1 << 16;
/// Timed repetitions per kernel; the fastest is kept.
const REPS: usize = 3;

/// Runs `f` [`REPS`] times under a span and returns the fastest time.
fn fastest(trace: &mut Trace, name: &'static str, mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| trace.span(name, None, |_| f()).1)
        .fold(f64::INFINITY, f64::min)
}

/// Maps up to [`KERNEL_PIXELS`] of `tensors` to 8-bit frames with
/// `lanes::affine_map_u8`, per tensor min–max as the codec's chunker
/// does, and records the map's rate.
pub fn frames(tensors: &[&Tensor], trace: &mut Trace, m: &mut Metrics) -> Vec<Frame> {
    let mut picked: Vec<(&Tensor, f32, f32)> = Vec::new();
    let mut pixels = 0;
    for &t in tensors {
        if pixels >= KERNEL_PIXELS {
            break;
        }
        let (lo, hi) = t.min_max();
        let scale = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
        picked.push((t, lo, scale));
        pixels += t.len();
    }
    let mut data: Vec<Vec<u8>> = picked.iter().map(|(t, _, _)| vec![0u8; t.len()]).collect();
    let s = fastest(trace, "chunk.affine_map_u8", || {
        for ((t, lo, scale), out) in picked.iter().zip(&mut data) {
            for (r, row) in out.chunks_exact_mut(t.cols()).enumerate() {
                lanes::affine_map_u8(t.row(r), *lo, *scale, row);
            }
        }
        black_box(&data);
    });
    m.push(
        "chunk.map_ns_per_value",
        s * 1e9 / pixels as f64,
        "ns/value",
    );
    picked
        .iter()
        .zip(data)
        .map(|((t, _, _), d)| Frame::from_vec(t.cols(), t.rows(), d))
        .collect()
}

/// One TU block cut from a frame: its size, reference samples and
/// residual against the DC prediction.
struct Block {
    n: usize,
    refs: RefSamples,
    residual: Vec<i32>,
}

/// Intra, transform, quantization and entropy rates over every TU-sized
/// block of `frames`, at every transform size.
pub fn kernels(frames: &[Frame], trace: &mut Trace, tally: &mut Tally, m: &mut Metrics) {
    let mut sites: Vec<(usize, usize, usize, usize)> = Vec::new();
    for &n in &SIZES {
        for (fi, f) in frames.iter().enumerate() {
            for y in (0..=f.height().saturating_sub(n)).step_by(n) {
                for x in (0..=f.width().saturating_sub(n)).step_by(n) {
                    if x + n <= f.width() && y + n <= f.height() {
                        sites.push((fi, x, y, n));
                    }
                }
            }
        }
    }
    let s = fastest(trace, "intra.gather", || {
        for &(fi, x, y, n) in &sites {
            black_box(RefSamples::gather(&frames[fi], x, y, n));
        }
    });
    m.push(
        "intra.gather_ns_per_block",
        s * 1e9 / sites.len() as f64,
        "ns/block",
    );

    let blocks: Vec<Block> = sites
        .iter()
        .map(|&(fi, x, y, n)| {
            let refs = RefSamples::gather(&frames[fi], x, y, n);
            let mut px = vec![0i32; n * n];
            frames[fi].read_block(x, y, n, &mut px);
            let mut pred = Vec::new();
            refs.predict_into(PredMode::Dc, &mut pred);
            let residual = px.iter().zip(&pred).map(|(a, b)| a - b).collect();
            Block { n, refs, residual }
        })
        .collect();
    let modes = Profile::h265().modes().to_vec();
    let mut pred = Vec::new();
    let s = fastest(trace, "intra.predict", || {
        for b in &blocks {
            for &mode in &modes {
                b.refs.predict_into(mode, &mut pred);
                black_box(&pred);
            }
        }
    });
    let px: usize = blocks.iter().map(|b| b.n * b.n).sum();
    m.push(
        "intra.predict_ns_per_px",
        s * 1e9 / (px * modes.len()) as f64,
        "ns/px",
    );

    // Transform and quantizer, size by size; `levels` and `sizes` list
    // the quantized blocks in that order for the entropy coders.
    let q = Quantizer::from_qp(REF_QP);
    let mut levels: Vec<Vec<i32>> = Vec::with_capacity(blocks.len());
    let mut sizes: Vec<usize> = Vec::with_capacity(blocks.len());
    let (mut quant_s, mut dequant_s) = (0.0, 0.0);
    for &n in &SIZES {
        let plan = DctPlan::new(n);
        let of_size: Vec<&Block> = blocks.iter().filter(|b| b.n == n).collect();
        if of_size.is_empty() {
            continue;
        }
        let px = (of_size.len() * n * n) as f64;
        let (mut tmp, mut out) = (Vec::new(), Vec::new());
        let fwd = fastest(trace, "transform.forward", || {
            for b in &of_size {
                plan.forward_into(&b.residual, &mut tmp, &mut out);
                black_box(&out);
            }
        });
        let coeffs: Vec<Vec<f64>> = of_size.iter().map(|b| plan.forward(&b.residual)).collect();
        let mut lv = Vec::new();
        quant_s += fastest(trace, "quant.quantize", || {
            for c in &coeffs {
                q.quantize_block_into(c, &mut lv);
                black_box(&lv);
            }
        });
        let these: Vec<Vec<i32>> = coeffs.iter().map(|c| q.quantize_block(c)).collect();
        let mut dq = Vec::new();
        dequant_s += fastest(trace, "quant.dequantize", || {
            for l in &these {
                q.dequantize_block_into(l, &mut dq);
                black_box(&dq);
            }
        });
        let recon: Vec<Vec<f64>> = these.iter().map(|l| q.dequantize_block(l)).collect();
        let (mut tmp, mut out) = (Vec::new(), Vec::new());
        let inv = fastest(trace, "transform.inverse", || {
            for c in &recon {
                plan.inverse_into(c, &mut tmp, &mut out);
                black_box(&out);
            }
        });
        m.push(
            size_name("transform.fwd_ns_per_px", n),
            fwd * 1e9 / px,
            "ns/px",
        );
        m.push(
            size_name("transform.inv_ns_per_px", n),
            inv * 1e9 / px,
            "ns/px",
        );
        sizes.extend(std::iter::repeat_n(n, these.len()));
        levels.extend(these);
    }
    let coeffs: usize = levels.iter().map(Vec::len).sum();
    let nonzero = levels.iter().flatten().filter(|&&l| l != 0).count();
    m.push(
        "quant.quantize_ns_per_coeff",
        quant_s * 1e9 / coeffs as f64,
        "ns/coeff",
    );
    m.push(
        "quant.dequantize_ns_per_coeff",
        dequant_s * 1e9 / coeffs as f64,
        "ns/coeff",
    );
    m.push(
        "quant.nonzero_frac",
        nonzero as f64 / coeffs as f64,
        "ratio",
    );
    entropy(&levels, &sizes, trace, tally, m);
}

fn size_name(stem: &str, n: usize) -> String {
    format!("{stem}.n{n}")
}

/// Counts bins without coding them.
#[derive(Default)]
struct BinCount(u64);

impl BinSink for BinCount {
    fn bit(&mut self, _ctx: &mut Prob, _b: bool) {
        self.0 += 1;
    }

    fn bypass(&mut self, _b: bool) {
        self.0 += 1;
    }

    fn bypass_bits(&mut self, _v: u64, n: u32) {
        self.0 += u64::from(n);
    }
}

fn code_all<S: BinSink>(sink: &mut S, levels: &[Vec<i32>], sizes: &[usize]) {
    let mut ctxs = Contexts::new();
    for (l, &n) in levels.iter().zip(sizes) {
        code_residual(sink, &mut ctxs, l, n, false);
    }
}

/// Parses every block back; fails on the first block that differs.
fn parse_all<D: llm265_videocodec::syntax::BinSource>(
    dec: &mut D,
    levels: &[Vec<i32>],
    sizes: &[usize],
) -> Result<(), Failure> {
    let mut ctxs = Contexts::new();
    for (l, &n) in levels.iter().zip(sizes) {
        if parse_residual(dec, &mut ctxs, n, false)? != *l {
            return Err(Failure::Drift);
        }
    }
    Ok(())
}

/// Residual syntax through each entropy backend: bins counted by a
/// [`BinSink`], RD cost estimation, CABAC both ways, and the rANS decode
/// path (bulk decompress, then the same parser over raw bins).
fn entropy(
    levels: &[Vec<i32>],
    sizes: &[usize],
    trace: &mut Trace,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let mut count = BinCount::default();
    code_all(&mut count, levels, sizes);
    let bins = count.0.max(1) as f64;
    let values: usize = levels.iter().map(Vec::len).sum();
    m.push("entropy.bins_per_value", bins / values as f64, "bins/value");

    let s = fastest(trace, "syntax.rd_cost", || {
        let mut c = BitCounter::new();
        code_all(&mut c, levels, sizes);
        black_box(c.bits());
    });
    m.push("entropy.rd_cost_ns_per_bin", s * 1e9 / bins, "ns/bin");

    let s = fastest(trace, "cabac.encode", || {
        let mut e = CabacEncoder::new();
        code_all(&mut e, levels, sizes);
        black_box(e.finish());
    });
    m.push("entropy.cabac_encode_ns_per_bin", s * 1e9 / bins, "ns/bin");

    let mut e = CabacEncoder::new();
    code_all(&mut e, levels, sizes);
    let cabac = e.finish();
    tally.check(parse_all(&mut CabacDecoder::new(&cabac), levels, sizes));
    let s = fastest(trace, "cabac.decode", || {
        let mut dec = CabacDecoder::new(&cabac);
        let mut ctxs = Contexts::new();
        for &n in sizes {
            let _ = black_box(parse_residual(&mut dec, &mut ctxs, n, false));
        }
    });
    m.push("entropy.cabac_decode_ns_per_bin", s * 1e9 / bins, "ns/bin");

    let mut rec = BinRecorder::new();
    code_all(&mut rec, levels, sizes);
    let packed = rans::compress(&rec.finish());
    let roundtrip = rans::decompress(&packed, &mut 0)
        .map_err(Failure::from)
        .and_then(|raw| parse_all(&mut RawBinReader::new(&raw), levels, sizes));
    tally.check(roundtrip);
    let s = fastest(trace, "rans.decode", || {
        if let Ok(raw) = rans::decompress(&packed, &mut 0) {
            let mut dec = RawBinReader::new(&raw);
            let mut ctxs = Contexts::new();
            for &n in sizes {
                let _ = black_box(parse_residual(&mut dec, &mut ctxs, n, false));
            }
        }
    });
    m.push("entropy.rans_decode_ns_per_bin", s * 1e9 / bins, "ns/bin");
}

/// `tile::encode_tile` on every tile of every frame at the reference QP.
pub fn tiles(frames: &[Frame], trace: &mut Trace, m: &mut Metrics) {
    let cfg = CodecConfig::default().with_qp(REF_QP).with_tiles(TILES);
    let ctu = cfg.profile.ctu();
    let plans = DctPlans::new();
    let jobs: Vec<(Frame, TileLayout)> = frames
        .iter()
        .map(|f| {
            (
                f.padded_to(ctu),
                TileLayout::for_frame(f.width(), f.height(), ctu, TILES),
            )
        })
        .collect();
    let s = fastest(trace, "tile.encode_tile", || {
        for (padded, layout) in &jobs {
            for t in 0..layout.n_tiles() {
                black_box(tile::encode_tile(padded, None, &cfg, &plans, layout, t, 0));
            }
        }
    });
    let px: usize = jobs.iter().map(|(p, _)| p.width() * p.height()).sum();
    m.push("tile.encode_ns_per_px", s * 1e9 / px as f64, "ns/px");
}

/// Random-access decode of each stream (index parse, then every tile)
/// against the codec's own full decode of the same stream.
pub fn access<C: TensorCodec>(
    codec: &C,
    streams: &[EncodedTensor],
    trace: &mut Trace,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let (mut parse_s, mut tiles_s, mut full_s) = (0.0, 0.0, 0.0);
    let mut tile_px = 0usize;
    for (k, enc) in streams.iter().enumerate() {
        let data = enc.bytes();
        let index = match TensorStreamIndex::parse(data) {
            Ok(i) => i,
            Err(e) => {
                tally.check(Err(Failure::from(e)));
                continue;
            }
        };
        let cols = index.shape().1;
        let tiles: Vec<(usize, usize)> = (0..index.n_chunks())
            .flat_map(|c| (0..index.n_tiles(c)).map(move |t| (c, t)))
            .collect();
        tile_px += tiles
            .iter()
            .map(|&(c, t)| index.tile_rows(c, t).1 * cols)
            .sum::<usize>();
        tally.check(tiles_match_full_decode(codec, enc, &index, &tiles));
        let mut best = [f64::INFINITY; 3];
        for _ in 0..REPS {
            let ((p, d), _) = trace.span("access.decompose", Some(k), |tr| {
                let (_, p) = tr.span("access.parse", Some(k), |_| TensorStreamIndex::parse(data));
                let mut d = 0.0;
                for &(c, t) in &tiles {
                    d += tr
                        .span("access.decode_tile", Some(k), |_| {
                            index.decode_tile(data, c, t)
                        })
                        .1;
                }
                (p, d)
            });
            let (_, f) = trace.span("codec.decode", Some(k), |_| codec.decode(enc));
            for (b, v) in best.iter_mut().zip([p, d, f]) {
                *b = b.min(v);
            }
        }
        let [best_parse, best_tiles, best_full] = best;
        parse_s += best_parse;
        tiles_s += best_tiles;
        full_s += best_full;
    }
    let n = streams.len().max(1) as f64;
    m.push("access.parse_us", parse_s * 1e6 / n, "us");
    m.push(
        "access.decode_tile_ns_per_px",
        tiles_s * 1e9 / tile_px.max(1) as f64,
        "ns/px",
    );
    m.push("decode.coverage", (parse_s + tiles_s) / full_s, "ratio");
}

/// Fails unless every tile decoded on its own equals the matching rows of
/// the full decode, so the random-access path timed above does the same
/// work as the decode it is compared with.
fn tiles_match_full_decode<C: TensorCodec>(
    codec: &C,
    enc: &EncodedTensor,
    index: &TensorStreamIndex,
    tiles: &[(usize, usize)],
) -> Result<(), Failure> {
    let full = codec.decode(enc)?;
    for &(c, t) in tiles {
        let band = index.decode_tile(enc.bytes(), c, t)?;
        let (row0, rows) = index.tile_rows(c, t);
        let want = &full.data()[row0 * full.cols()..(row0 + rows) * full.cols()];
        if band.data() != want {
            return Err(Failure::Drift);
        }
    }
    Ok(())
}

/// Frames already-encoded streams as a `TensorArchive` without encoding
/// anything again: the archive writer asks its codec for each tensor's
/// stream in order, and this codec hands back the next one.
pub fn frame_archive(
    tensors: &[&Tensor],
    streams: &[EncodedTensor],
) -> Result<Vec<u8>, CodecError> {
    struct Replay<'a> {
        streams: &'a [EncodedTensor],
        next: Cell<usize>,
    }
    impl TensorCodec for Replay<'_> {
        fn name(&self) -> String {
            "replay".into()
        }
        fn encode(&self, _t: &Tensor, _target: RateTarget) -> Result<EncodedTensor, CodecError> {
            let i = self.next.get();
            self.next.set(i + 1);
            self.streams
                .get(i)
                .cloned()
                .ok_or_else(|| CodecError::InvalidInput("more tensors than streams".into()))
        }
        fn decode(&self, _e: &EncodedTensor) -> Result<Tensor, CodecError> {
            Err(CodecError::InvalidInput(
                "replay codec does not decode".into(),
            ))
        }
    }
    let named: Vec<(String, Tensor)> = tensors
        .iter()
        .take(streams.len())
        .enumerate()
        .map(|(i, &t)| (format!("t{i}"), t.clone()))
        .collect();
    let replay = Replay {
        streams,
        next: Cell::new(0),
    };
    TensorArchive::encode(&replay, &named, RateTarget::Qp(0.0)).map(|a| a.bytes().to_vec())
}

/// `ArchiveIndex::parse` over the workload's streams framed as one
/// archive (see [`frame_archive`]).
pub fn archive(bytes: &[u8], trace: &mut Trace, tally: &mut Tally, m: &mut Metrics) {
    const PARSES: usize = 200;
    tally.check(ArchiveIndex::parse(bytes).map(drop).map_err(Failure::from));
    let s = fastest(trace, "archive.parse", || {
        for _ in 0..PARSES {
            let _ = black_box(ArchiveIndex::parse(black_box(bytes)));
        }
    });
    m.push("archive.parse_us", s * 1e6 / PARSES as f64, "us");
}

/// The pool's fixed cost (8 empty tasks on up to two workers) and the
/// decode speed-up of two workers over one on the workload's streams.
pub fn pool<C: TensorCodec>(
    t1: &C,
    t2: &C,
    streams: &[EncodedTensor],
    trace: &mut Trace,
    m: &mut Metrics,
) {
    const CALLS: usize = 101;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut calls: Vec<f64> = (0..CALLS)
        .map(|_| {
            trace
                .span("pool.run_ordered", None, |_| {
                    black_box(pool::run_ordered(8, workers, |i| i))
                })
                .1
        })
        .collect();
    calls.sort_by(f64::total_cmp);
    m.push("pool.run_ordered_us", calls[CALLS / 2] * 1e6, "us");

    let mut decode_all = |codec: &C, name| {
        fastest(trace, name, || {
            for enc in streams {
                let _ = black_box(codec.decode(enc));
            }
        })
    };
    let one = decode_all(t1, "pool.decode_t1");
    let two = decode_all(t2, "pool.decode_t2");
    m.push("pool.t2_speedup", one / two, "ratio");
}
