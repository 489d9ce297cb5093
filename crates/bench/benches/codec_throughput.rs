//! Software codec throughput benchmarks (§6.1 context).
//!
//! The paper measures NVENC at ~1100 MB/s and NVDEC at ~1300 MB/s on
//! tensors. Our software codec is orders of magnitude slower (it is a
//! reference implementation, not silicon); these benches put an exact
//! number on it, and the `hardware::engine` model carries the calibrated
//! NVENC/NVDEC envelope for the system-level results.
//!
//! Run with `cargo bench -p llm265-bench --features bench-harness`.
//!
//! Flags (after `--`):
//!
//! - `--json <path>` — also record the tensor-codec samples into the
//!   repo's perf-trajectory document (`BENCH_codec.json`), creating it or
//!   appending a run. Regressions then show up as diffs, not folklore.
//! - `--label <name>` — run label in the JSON trajectory (e.g.
//!   `after-parallel`, `ci-smoke`). Defaults to `run`.
//! - `--samples <n>` — timing samples per benchmark (default 5).
//!
//! `LLM265_THREADS` overrides the multi-threaded data point's worker
//! count (`0`/unset = the machine's available parallelism). The codec
//! output is bit-identical at every thread count, so thread count is
//! purely a throughput knob here.

use std::path::{Path, PathBuf};

use llm265_bench::json::{self, BenchRun, HardwareTargets, ThreadedSample};
use llm265_bench::microbench::Group;
use llm265_core::{
    Llm265Codec, Llm265Config, Llm265TrackingChannel, RateTarget, TensorCodec, TensorStreamIndex,
};
use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::rng::Pcg32;
use llm265_tensor::synthetic::{llm_weight, WeightProfile};
use llm265_tensor::Tensor;
use llm265_videocodec::{decode_video, encode_video, CodecConfig, Frame};

/// The NVENC/NVDEC tensor-throughput envelope from the paper, carried in
/// the JSON header so every trajectory entry is read against it.
const HARDWARE: HardwareTargets = HardwareTargets {
    encode_mb_s: 1100.0,
    decode_mb_s: 1300.0,
};

struct Args {
    json: Option<PathBuf>,
    label: String,
    samples: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        json: None,
        label: "run".to_string(),
        samples: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            // `cargo bench` appends `--bench` to the harness's argv.
            "--bench" => {}
            "--json" => args.json = Some(PathBuf::from(value("--json"))),
            "--label" => args.label = value("--label"),
            "--samples" => {
                args.samples = value("--samples").parse().unwrap_or_else(|_| {
                    eprintln!("--samples needs an integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: codec_throughput [--json <path>] [--label <name>] [--samples <n>]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Worker count for the parallel data point: `LLM265_THREADS` if set and
/// non-zero, otherwise the machine's available parallelism.
fn parallel_threads() -> usize {
    std::env::var("LLM265_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t: &usize| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

fn weight(seed: u64, n: usize) -> Tensor {
    let mut rng = Pcg32::seed_from(seed);
    llm_weight(n, n, &WeightProfile::default(), &mut rng)
}

fn weight_frame(n: usize, seed: u64) -> Frame {
    let mut rng = Pcg32::seed_from(seed);
    let w = llm_weight(n, n, &WeightProfile::default(), &mut rng);
    let (lo, hi) = w.min_max();
    let scale = (hi - lo).max(1e-9) / 255.0;
    Frame::from_fn(n, n, |x, y| {
        (((w[(y, x)] - lo) / scale) as i32).clamp(0, 255) as u8
    })
}

fn codec_with(max_chunk_pixels: usize, threads: usize) -> Llm265Codec {
    Llm265Codec::with_config(Llm265Config {
        max_chunk_pixels,
        threads,
        ..Llm265Config::default()
    })
}

fn main() {
    let args = parse_args();
    let max_threads = parallel_threads();
    // 1 thread always (the serial baseline every trajectory entry shares),
    // plus one parallel point when the machine has more to give.
    let thread_counts: Vec<usize> = if max_threads > 1 {
        vec![1, max_threads]
    } else {
        vec![1]
    };

    // Frame-level videocodec numbers (console only — thread count does
    // not apply; frames are encoded one CTU row at a time).
    let mut g = Group::new("videocodec_encode", args.samples);
    for &n in &[64usize, 128] {
        let frame = weight_frame(n, 1);
        let cfg = CodecConfig::default().with_qp(30.0);
        g.throughput_bytes((n * n) as u64);
        g.bench(&format!("{n}x{n}_qp30"), || {
            encode_video(std::slice::from_ref(&frame), &cfg).expect("bench encode succeeds")
        });
    }
    g.finish();

    let mut g = Group::new("videocodec_decode", args.samples);
    for &n in &[64usize, 128] {
        let frame = weight_frame(n, 2);
        let cfg = CodecConfig::default().with_qp(30.0);
        let enc = encode_video(std::slice::from_ref(&frame), &cfg).expect("bench encode succeeds");
        g.throughput_bytes((n * n) as u64);
        g.bench(&format!("{n}x{n}_qp30"), || {
            decode_video(&enc.bytes).expect("bench stream decodes")
        });
    }
    g.finish();

    // Tensor-codec trajectory samples — the names match earlier runs in
    // BENCH_codec.json so the before/after diff lines up sample by sample.
    let mut samples: Vec<ThreadedSample> = Vec::new();

    // Multi-chunk tensor: 256x256 (1 MB of f32), 8 chunks of 32 rows —
    // the chunk-parallel fan-out target.
    let big = weight(11, 256);
    // Single-chunk tensor: no fan-out possible; isolates the scratch-reuse
    // and per-block wins.
    let mid = weight(7, 128);
    // Rate-search tensor: 4 chunks; dominated by how many QPs the search
    // probes, not by raw pixel throughput.
    let rate = weight(3, 96);
    // Entropy-bound tensor: iid noise is incompressible, so at QP 0 the
    // stream is dense and decode time is pinned by the entropy stage.
    let dense = {
        let mut rng = Pcg32::seed_from(17);
        llm_weight(128, 128, &WeightProfile::iid(), &mut rng)
    };

    for &t in &thread_counts {
        let mut g = Group::new("codec", args.samples);

        let codec_multi = codec_with(1 << 13, t);
        g.throughput_bytes((big.len() * 4) as u64);
        g.bench(&format!("encode_multichunk_qp30/t{t}"), || {
            codec_multi
                .encode(&big, RateTarget::Qp(30.0))
                .expect("bench encode succeeds")
        });
        let enc_big = codec_multi
            .encode(&big, RateTarget::Qp(30.0))
            .expect("bench encode succeeds");
        g.bench(&format!("decode_multichunk/t{t}"), || {
            codec_multi.decode(&enc_big).expect("bench stream decodes")
        });

        if t == 1 {
            let codec_single = Llm265Codec::with_config(Llm265Config {
                threads: 1,
                ..Llm265Config::default()
            });
            g.throughput_bytes((mid.len() * 4) as u64);
            g.bench("encode_single_qp30/t1", || {
                codec_single
                    .encode(&mid, RateTarget::Qp(30.0))
                    .expect("bench encode succeeds")
            });
        }

        // Single-chunk tiled decode: the tensor fits one chunk, so chunk
        // fan-out gives the pool nothing — the tiles are the only
        // parallelism here (128 rows → 4 CTU rows → 4 tiles).
        let codec_tiled = Llm265Codec::with_config(Llm265Config {
            threads: t,
            ..Llm265Config::default()
        });
        let enc_mid = codec_tiled
            .encode(&mid, RateTarget::Qp(30.0))
            .expect("bench encode succeeds");
        g.throughput_bytes((mid.len() * 4) as u64);
        g.bench(&format!("decode_single_tiled/t{t}"), || {
            codec_tiled.decode(&enc_mid).expect("bench stream decodes")
        });

        // Entropy-bound decode: an incompressible (iid) tensor at QP 0
        // maximizes coded-bin density, so decode time is dominated by the
        // entropy stage rather than the shared reconstruction floor.
        let enc_dense = codec_tiled
            .encode(&dense, RateTarget::Qp(0.0))
            .expect("bench encode succeeds");
        g.throughput_bytes((dense.len() * 4) as u64);
        g.bench(&format!("decode_dense_cabac/t{t}"), || {
            codec_tiled
                .decode(&enc_dense)
                .expect("bench stream decodes")
        });

        let codec_rate = codec_with(96 * 24, t);
        g.throughput_bytes((rate.len() * 4) as u64);
        g.bench(&format!("encode_bits3/t{t}"), || {
            codec_rate
                .encode(&rate, RateTarget::BitsPerValue(3.0))
                .expect("bench encode succeeds")
        });
        g.bench(&format!("encode_nmse02/t{t}"), || {
            codec_rate
                .encode(&rate, RateTarget::MaxNormalizedMse(0.02))
                .expect("bench encode succeeds")
        });
        // The same tensor at the QP the bits search settles on: one full
        // search, so `encode_bits3 / encode_bits3_qp` within one run is
        // what the rate search costs in whole encodes.
        let settled = codec_rate
            .encode(&rate, RateTarget::BitsPerValue(3.0))
            .expect("bench encode succeeds");
        let qp = TensorStreamIndex::parse(settled.bytes())
            .expect("bench stream parses")
            .qp();
        g.bench(&format!("encode_bits3_qp/t{t}"), || {
            codec_rate
                .encode(&rate, RateTarget::Qp(qp))
                .expect("bench encode succeeds")
        });
        // The same tensor through the tracking channel: one `encode_bits3`
        // plus one decode, so `channel_bits3 / encode_bits3` within one
        // run shows whether the channels run `encode`'s search.
        let mut channel = Llm265TrackingChannel::with_codec(codec_rate.clone(), 3.0);
        g.bench(&format!("channel_bits3/t{t}"), || channel.transcode(&rate));

        samples.extend(
            g.finish()
                .into_iter()
                .map(|sample| ThreadedSample { sample, threads: t }),
        );
    }

    if let Some(path) = args.json {
        // Cargo runs bench binaries with the package as cwd; resolve
        // relative paths against the workspace root so `--json
        // BENCH_codec.json` always means the repo-root trajectory file.
        let path = if path.is_absolute() {
            path
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(path)
        };
        let run = BenchRun {
            label: args.label,
            threads_available: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            samples,
        };
        json::write_or_append(&path, "codec_throughput", HARDWARE, &run)
            .expect("bench JSON write succeeds");
        println!("recorded run to {}", path.display());
    }
}
