//! The four workloads, each shaped like one of the repository's callers.
//!
//! Every workload is generated from the run's seed alone and drives the
//! codec with `threads: 1`. A workload is a fixed list of requests; the
//! runner plays the list in passes and times each request's codec call.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use llm265_core::{
    ArchiveIndex, CodecError, EncodedTensor, Llm265Codec, Llm265Config, Llm265TrackingChannel,
    RateTarget, TensorArchive, TensorCodec,
};
use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::rng::Pcg32;
use llm265_tensor::synthetic::{
    kv_cache_slab, llm_gradient, llm_weight, GradientProfile, WeightProfile,
};
use llm265_tensor::Tensor;

use crate::check::{self, Failure, Fnv, Outcome, Tally};
use crate::trace::Trace;

/// Bits/value target of checkpoint weights (`Llm265Channel::at_bits(3.0)`).
const WEIGHT_BITS: f64 = 3.0;
/// Bits/value target of the KV-cache writes (the fig08 KV setting).
const KV_BITS: f64 = 2.9;
/// Bits/value target of the gradient channel (the fig10/fig11 setting).
const GRAD_BITS: f64 = 2.6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    CkptEncode,
    Load,
    GradStep,
    KvCache,
}

impl Name {
    pub const ALL: [Name; 4] = [Name::CkptEncode, Name::Load, Name::GradStep, Name::KvCache];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::CkptEncode => "ckpt-encode",
            Name::Load => "load",
            Name::GradStep => "grad-step",
            Name::KvCache => "kv-cache",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// `count` tensors (or steps) of `rows × cols` values.
#[derive(Debug, Clone, Copy)]
pub struct Dims {
    pub count: usize,
    pub rows: usize,
    pub cols: usize,
}

/// Input sizes of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Weight matrices, one cold encode each.
    pub ckpt: Dims,
    /// Archive tensors.
    pub load: Dims,
    /// Whole-archive decodes per pass.
    pub load_requests: usize,
    /// Gradient steps and the gradient shape.
    pub grad: Dims,
    /// Cache steps and the block shape (positions × head dims).
    pub kv: Dims,
    /// Newest blocks each cache step reads.
    pub kv_window: usize,
    /// Set-ups per untraced run, each followed by a pass; `setup_s` is
    /// their median.
    pub setups: usize,
}

/// What the benchmark measures. Each workload has at least 100 requests,
/// so a p90 has ten samples beyond it, and one pass takes 1.5–4 s at one
/// thread on a 2-vCPU x86-64 VM, so a 20 s budget, set-ups included,
/// gives every request three to seven samples.
pub const FULL: Size = Size {
    ckpt: Dims {
        count: 100,
        rows: 64,
        cols: 64,
    },
    load: Dims {
        count: 16,
        rows: 128,
        cols: 128,
    },
    load_requests: 100,
    grad: Dims {
        count: 100,
        rows: 64,
        cols: 64,
    },
    kv: Dims {
        count: 24,
        rows: 128,
        cols: 64,
    },
    kv_window: 32,
    setups: 3,
};

/// A run small enough for the smoke test, with the same request counts
/// but one set-up and so one pass.
#[cfg(test)]
pub const TINY: Size = Size {
    ckpt: Dims {
        count: 100,
        rows: 32,
        cols: 32,
    },
    load: Dims {
        count: 2,
        rows: 64,
        cols: 64,
    },
    load_requests: 100,
    grad: Dims {
        count: 100,
        rows: 32,
        cols: 32,
    },
    kv: Dims {
        count: 4,
        rows: 32,
        cols: 32,
    },
    kv_window: 32,
    setups: 1,
};

/// Bits/value and NMSE of a workload's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub bits_per_value: f64,
    /// Mean over tensors of [`check::nmse`].
    pub nmse: f64,
}

/// Rate-targeted encodes a workload has run, set-up included, and their
/// total time.
#[derive(Debug, Clone, Copy, Default)]
pub struct EncodeLog {
    pub count: usize,
    pub seconds: f64,
}

impl EncodeLog {
    fn add(&mut self, seconds: f64) {
        self.count += 1;
        self.seconds += seconds;
    }
}

pub trait Workload {
    /// Requests in one pass.
    fn requests(&self) -> usize;
    /// f32 input bytes request `i` moves through the codec.
    fn request_bytes(&self, i: usize) -> usize;
    /// Resets state a pass must not inherit from the previous one.
    fn begin_pass(&mut self) {}
    /// Runs request `i`, timing only its codec call.
    fn run(&mut self, i: usize, trace: &mut Trace) -> Outcome;
    /// Bits/value and NMSE over everything the last pass produced.
    fn quality(&self) -> Quality;
    /// The generated inputs.
    fn inputs(&self) -> Vec<&Tensor>;
    /// The tensor streams this workload produced or decodes.
    fn streams(&self) -> Result<Vec<EncodedTensor>, CodecError>;
    fn encodes(&self) -> EncodeLog;
}

/// The codec's default configuration at `threads` workers; workloads
/// run at one. The optional counter counts chunk-level encodes, which
/// for the benchmark's single-chunk tensors are rate-search probes.
pub fn codec(threads: usize, counter: Option<Arc<AtomicU64>>) -> Llm265Codec {
    let mut codec = Llm265Codec::with_config(Llm265Config {
        threads,
        ..Llm265Config::default()
    });
    if let Some(c) = counter {
        codec.set_chunk_encode_counter(c);
    }
    codec
}

/// Generates the workload's inputs from `seed` and runs its set-up:
/// pre-encoding what it later decodes, and one warm-up request so lazy
/// initialisation is not timed. Set-up operations that fail are counted
/// in `tally`.
///
/// # Errors
///
/// Only when the set-up leaves nothing to measure: the load archive
/// failing to encode.
pub fn setup(
    name: Name,
    seed: u64,
    size: &Size,
    codec: Llm265Codec,
    tally: &mut Tally,
) -> Result<Box<dyn Workload>, Failure> {
    // One random stream per workload, so no two share inputs.
    let mut rng = Pcg32::with_stream(seed, name as u64 + 1);
    let mut w: Box<dyn Workload> = match name {
        Name::CkptEncode => Box::new(CkptEncode::prepare(codec, &size.ckpt, &mut rng)),
        Name::Load => Box::new(Load::prepare(codec, size, &mut rng, tally)?),
        Name::GradStep => Box::new(GradStep::prepare(codec, &size.grad, &mut rng)),
        Name::KvCache => Box::new(KvCache::prepare(codec, size, &mut rng, tally)),
    };
    w.begin_pass();
    tally.check(w.run(0, &mut Trace::off()).result.map(drop));
    Ok(w)
}

/// Mean NMSE; NaN (which fails the run) when nothing was decoded.
fn mean_nmse(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Checkpoint compression: cold `encode(t, BitsPerValue(3.0))` of weight
/// matrices, what `Llm265Channel::at_bits(3.0)` runs per tensor.
struct CkptEncode {
    codec: Llm265Codec,
    weights: Vec<Tensor>,
    streams: Vec<Option<EncodedTensor>>,
    nmse: Vec<f64>,
    log: EncodeLog,
}

impl CkptEncode {
    fn prepare(codec: Llm265Codec, d: &Dims, rng: &mut Pcg32) -> Self {
        let weights: Vec<Tensor> = (0..d.count)
            .map(|_| llm_weight(d.rows, d.cols, &WeightProfile::default(), rng))
            .collect();
        CkptEncode {
            codec,
            streams: vec![None; weights.len()],
            nmse: vec![0.0; weights.len()],
            weights,
            log: EncodeLog::default(),
        }
    }
}

impl Workload for CkptEncode {
    fn requests(&self) -> usize {
        self.weights.len()
    }

    fn request_bytes(&self, i: usize) -> usize {
        crate::stats::f32_bytes(self.weights[i].len())
    }

    fn run(&mut self, i: usize, trace: &mut Trace) -> Outcome {
        let t = &self.weights[i];
        let (enc, seconds) = trace.span("codec.encode", Some(i), |_| {
            self.codec.encode(t, RateTarget::BitsPerValue(WEIGHT_BITS))
        });
        self.log.add(seconds);
        let result = enc.map_err(Failure::from).and_then(|enc| {
            check::target(enc.bits_per_value(), WEIGHT_BITS)?;
            let digest = Fnv::default().bytes(enc.bytes()).finish();
            let (out, _) = check::decode(&self.codec, &enc, t.shape(), trace, i);
            self.nmse[i] = check::nmse(t, &out?);
            self.streams[i] = Some(enc);
            Ok(digest)
        });
        Outcome { seconds, result }
    }

    fn quality(&self) -> Quality {
        let bits: u64 = self.streams.iter().flatten().map(EncodedTensor::bits).sum();
        let values: usize = self.weights.iter().map(Tensor::len).sum();
        Quality {
            bits_per_value: bits as f64 / values as f64,
            nmse: mean_nmse(&self.nmse),
        }
    }

    fn inputs(&self) -> Vec<&Tensor> {
        self.weights.iter().collect()
    }

    fn streams(&self) -> Result<Vec<EncodedTensor>, CodecError> {
        Ok(self.streams.iter().flatten().cloned().collect())
    }

    fn encodes(&self) -> EncodeLog {
        self.log
    }
}

/// Model load: a checkpoint saved as one `TensorArchive` at 3.0 bits is
/// decoded whole, again and again.
struct Load {
    codec: Llm265Codec,
    tensors: Vec<(String, Tensor)>,
    archive: TensorArchive,
    requests: usize,
    nmse: Vec<f64>,
    log: EncodeLog,
}

impl Load {
    fn prepare(
        codec: Llm265Codec,
        size: &Size,
        rng: &mut Pcg32,
        tally: &mut Tally,
    ) -> Result<Self, Failure> {
        let d = &size.load;
        let tensors: Vec<(String, Tensor)> = (0..d.count)
            .map(|i| {
                let t = llm_weight(d.rows, d.cols, &WeightProfile::default(), rng);
                (format!("layers.{i}.weight"), t)
            })
            .collect();
        let t0 = Instant::now();
        let archive =
            TensorArchive::encode(&codec, &tensors, RateTarget::BitsPerValue(WEIGHT_BITS))?;
        let seconds = t0.elapsed().as_secs_f64();
        tally.check(check::target(archive.bits_per_value(), WEIGHT_BITS));
        Ok(Load {
            codec,
            log: EncodeLog {
                count: tensors.len(),
                seconds,
            },
            tensors,
            archive,
            requests: size.load_requests,
            nmse: Vec::new(),
        })
    }
}

impl Workload for Load {
    fn requests(&self) -> usize {
        self.requests
    }

    fn request_bytes(&self, _i: usize) -> usize {
        crate::stats::f32_bytes(self.tensors.iter().map(|(_, t)| t.len()).sum())
    }

    fn run(&mut self, i: usize, trace: &mut Trace) -> Outcome {
        let (out, seconds) = trace.span("archive.decode", Some(i), |_| {
            TensorArchive::decode(&self.codec, self.archive.bytes())
        });
        let result = out.map_err(Failure::from).and_then(|out| {
            // The entry count, checked as an (entries × 1) shape.
            check::shape((out.len(), 1), (self.tensors.len(), 1))?;
            let mut h = Fnv::default();
            let mut nmse = Vec::with_capacity(out.len());
            for ((name, got), (want_name, want)) in out.iter().zip(&self.tensors) {
                check::shape(got.shape(), want.shape())?;
                if name != want_name {
                    return Err(Failure::Drift);
                }
                h = h.bytes(name.as_bytes()).tensor(got);
                nmse.push(check::nmse(want, got));
            }
            self.nmse = nmse;
            Ok(h.finish())
        });
        Outcome { seconds, result }
    }

    fn quality(&self) -> Quality {
        Quality {
            bits_per_value: self.archive.bits_per_value(),
            nmse: mean_nmse(&self.nmse),
        }
    }

    fn inputs(&self) -> Vec<&Tensor> {
        self.tensors.iter().map(|(_, t)| t).collect()
    }

    fn streams(&self) -> Result<Vec<EncodedTensor>, CodecError> {
        let bytes = self.archive.bytes();
        let index = ArchiveIndex::parse(bytes)?;
        (0..index.len())
            .map(|i| {
                let s = index.stream(bytes, i)?;
                let (rows, cols) = index.tensor_index(bytes, i)?.shape();
                Ok(EncodedTensor::from_parts(s.to_vec(), rows, cols))
            })
            .collect()
    }

    fn encodes(&self) -> EncodeLog {
        self.log
    }
}

/// The training critical path: `Llm265TrackingChannel` at 2.6 bits on
/// gradients whose range widens as training progresses. Every pass starts
/// from a fresh channel, so step `i` sees the same warm-start state in
/// every pass.
struct GradStep {
    codec: Llm265Codec,
    grads: Vec<Tensor>,
    channel: Llm265TrackingChannel,
    bits: Vec<u64>,
    nmse: Vec<f64>,
    qps: Vec<f64>,
    log: EncodeLog,
}

impl GradStep {
    fn prepare(codec: Llm265Codec, d: &Dims, rng: &mut Pcg32) -> Self {
        let last = d.count.saturating_sub(1).max(1) as f64;
        let grads: Vec<Tensor> = (0..d.count)
            .map(|s| {
                llm_gradient(
                    d.rows,
                    d.cols,
                    &GradientProfile::at_progress(s as f64 / last),
                    rng,
                )
            })
            .collect();
        let n = grads.len();
        GradStep {
            channel: Llm265TrackingChannel::with_codec(codec.clone(), GRAD_BITS),
            codec,
            grads,
            bits: vec![0; n],
            nmse: vec![0.0; n],
            qps: vec![0.0; n],
            log: EncodeLog::default(),
        }
    }
}

impl Workload for GradStep {
    fn requests(&self) -> usize {
        self.grads.len()
    }

    fn request_bytes(&self, i: usize) -> usize {
        crate::stats::f32_bytes(self.grads[i].len())
    }

    fn begin_pass(&mut self) {
        self.channel = Llm265TrackingChannel::with_codec(self.codec.clone(), GRAD_BITS);
    }

    fn run(&mut self, i: usize, trace: &mut Trace) -> Outcome {
        let g = &self.grads[i];
        let channel = &mut self.channel;
        let (out, seconds) = trace.span("channel.transcode", Some(i), |_| {
            panic::catch_unwind(AssertUnwindSafe(|| channel.transcode(g)))
        });
        self.log.add(seconds);
        let result = out.map_err(|_| Failure::Panicked).and_then(|(out, bits)| {
            check::shape(out.shape(), g.shape())?;
            check::target(bits as f64 / g.len() as f64, GRAD_BITS)?;
            self.bits[i] = bits;
            self.nmse[i] = check::nmse(g, &out);
            self.qps[i] = self.channel.current_qp();
            Ok(Fnv::default().tensor(&out).u64(bits).finish())
        });
        Outcome { seconds, result }
    }

    fn quality(&self) -> Quality {
        let values: usize = self.grads.iter().map(Tensor::len).sum();
        Quality {
            bits_per_value: self.bits.iter().sum::<u64>() as f64 / values as f64,
            nmse: mean_nmse(&self.nmse),
        }
    }

    fn inputs(&self) -> Vec<&Tensor> {
        self.grads.iter().collect()
    }

    /// The channel does not hand out its streams; encoding each step at
    /// the QP its search settled on reproduces them.
    fn streams(&self) -> Result<Vec<EncodedTensor>, CodecError> {
        self.grads
            .iter()
            .zip(&self.qps)
            .map(|(g, &qp)| self.codec.encode(g, RateTarget::Qp(qp)))
            .collect()
    }

    fn encodes(&self) -> EncodeLog {
        self.log
    }
}

/// Remote KV-cache reuse: each step writes one block of positions ×
/// head dims with `encode(BitsPerValue(2.9))` and reads back the window
/// of newest blocks, one `decode` each. Set-up fills the window.
struct KvCache {
    codec: Llm265Codec,
    blocks: Vec<Tensor>,
    streams: Vec<Option<EncodedTensor>>,
    window: usize,
    steps: usize,
    nmse: Vec<Option<f64>>,
    read_digest: Vec<Option<u64>>,
    log: EncodeLog,
}

impl KvCache {
    fn prepare(codec: Llm265Codec, size: &Size, rng: &mut Pcg32, tally: &mut Tally) -> Self {
        let d = &size.kv;
        let window = size.kv_window;
        let n_blocks = window + d.count;
        // One continuous sequence cut into blocks, so neighbouring blocks
        // share channel scales the way a real cache's blocks do.
        let slab = kv_cache_slab(n_blocks * d.rows, d.cols, rng);
        let per_block = d.rows * d.cols;
        let blocks: Vec<Tensor> = slab
            .data()
            .chunks_exact(per_block)
            .map(|c| Tensor::from_vec(d.rows, d.cols, c.to_vec()))
            .collect();
        let mut kv = KvCache {
            codec,
            streams: vec![None; n_blocks],
            nmse: vec![None; n_blocks],
            read_digest: vec![None; n_blocks],
            blocks,
            window,
            steps: d.count,
            log: EncodeLog::default(),
        };
        for b in 0..window {
            tally.check(kv.write(b, &mut Trace::off()).1.map(drop));
        }
        kv
    }

    fn write(&mut self, b: usize, trace: &mut Trace) -> (f64, Result<u64, Failure>) {
        let t = &self.blocks[b];
        let (enc, seconds) = trace.span("codec.encode", Some(b), |_| {
            self.codec.encode(t, RateTarget::BitsPerValue(KV_BITS))
        });
        self.log.add(seconds);
        let result = enc.map_err(Failure::from).and_then(|enc| {
            check::target(enc.bits_per_value(), KV_BITS)?;
            let digest = Fnv::default().bytes(enc.bytes()).finish();
            self.streams[b] = Some(enc);
            Ok(digest)
        });
        (seconds, result)
    }

    fn read(&mut self, b: usize, request: usize, trace: &mut Trace) -> (f64, Result<u64, Failure>) {
        // A block is missing only if its write failed, which that write
        // already counted; the read fails too.
        let Some(enc) = &self.streams[b] else {
            let e = CodecError::InvalidInput(format!("block {b} was never written"));
            return (0.0, Err(Failure::Codec(e)));
        };
        let want = self.blocks[b].shape();
        let (out, seconds) = check::decode(&self.codec, enc, want, trace, request);
        let result = out.and_then(|out| {
            let digest = Fnv::default().tensor(&out).finish();
            // Every read of a block must see the same values.
            if self.read_digest[b].is_some_and(|d| d != digest) {
                return Err(Failure::Drift);
            }
            self.read_digest[b] = Some(digest);
            self.nmse[b] = Some(check::nmse(&self.blocks[b], &out));
            Ok(digest)
        });
        (seconds, result)
    }
}

impl Workload for KvCache {
    fn requests(&self) -> usize {
        self.steps * (1 + self.window)
    }

    fn request_bytes(&self, _i: usize) -> usize {
        crate::stats::f32_bytes(self.blocks[0].len())
    }

    fn run(&mut self, i: usize, trace: &mut Trace) -> Outcome {
        let step = i / (1 + self.window);
        let (seconds, result) = match i % (1 + self.window) {
            // The write: the step's new block lands after the window.
            0 => self.write(self.window + step, trace),
            // The reads: blocks step+1 ..= window+step, the newest window.
            j => self.read(step + j, i, trace),
        };
        Outcome { seconds, result }
    }

    fn quality(&self) -> Quality {
        let bits: u64 = self.streams.iter().flatten().map(EncodedTensor::bits).sum();
        let values: usize = self
            .streams
            .iter()
            .flatten()
            .map(|e| {
                let (r, c) = e.shape();
                r * c
            })
            .sum();
        let nmse: Vec<f64> = self.nmse.iter().flatten().copied().collect();
        Quality {
            bits_per_value: bits as f64 / values.max(1) as f64,
            nmse: mean_nmse(&nmse),
        }
    }

    fn inputs(&self) -> Vec<&Tensor> {
        self.blocks.iter().collect()
    }

    fn streams(&self) -> Result<Vec<EncodedTensor>, CodecError> {
        Ok(self.streams.iter().flatten().cloned().collect())
    }

    fn encodes(&self) -> EncodeLog {
        self.log
    }
}
