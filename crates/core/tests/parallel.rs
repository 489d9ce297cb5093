//! Determinism of the parallel chunk pipeline.
//!
//! The distributed-training simulator re-encodes the same tensor on every
//! rank and compares streams byte for byte, so parallel encode/decode must
//! be bit-identical at every thread count — and identical to what the
//! serial pre-pool encoder produced (pinned below by FNV-1a hashes
//! captured from the serial implementation).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use llm265_core::{pool, CodecError, Llm265Codec, Llm265Config, RateTarget, TensorCodec};
use llm265_tensor::rng::Pcg32;
use llm265_tensor::synthetic::{llm_weight, WeightProfile};
use llm265_tensor::Tensor;

fn weight(seed: u64, n: usize) -> Tensor {
    let mut rng = Pcg32::seed_from(seed);
    llm_weight(n, n, &WeightProfile::default(), &mut rng)
}

fn codec(max_chunk_pixels: usize, threads: usize) -> Llm265Codec {
    Llm265Codec::with_config(Llm265Config {
        max_chunk_pixels,
        threads,
        ..Llm265Config::default()
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Streams must be bit-identical at every thread count. Any drift here
/// is a format or determinism regression, not a refactor detail.
#[test]
fn fixed_qp_streams_match_serial_golden_hashes() {
    let t = weight(42, 96);
    for threads in [1, 2, 8] {
        let enc = codec(96 * 24, threads)
            .encode(&t, RateTarget::Qp(24.0))
            .expect("encode");
        // Re-pinned for the coarse-to-fine mode decision and format v5:
        // one 22-byte tensor header, then 16 bytes of record (affine
        // map, one tile length, checksum) per single-tile (one CTU row)
        // chunk.
        assert_eq!(enc.bytes().len(), 3439, "threads {threads}");
        assert_eq!(
            fnv1a(enc.bytes()),
            0x9762_a680_4737_bf98,
            "threads {threads}"
        );
    }

    let t = weight(7, 64);
    for threads in [1, 2, 8] {
        let enc = Llm265Codec::with_config(Llm265Config {
            threads,
            ..Llm265Config::default()
        })
        .encode(&t, RateTarget::Qp(30.0))
        .expect("encode");
        assert_eq!(enc.bytes().len(), TILED_64_LEN, "threads {threads}");
        assert_eq!(fnv1a(enc.bytes()), TILED_64_FNV, "threads {threads}");
    }
}

#[test]
fn rate_searches_are_identical_across_thread_counts_and_runs() {
    let t = weight(13, 96);
    for target in [
        RateTarget::BitsPerValue(3.0),
        RateTarget::MaxNormalizedMse(0.02),
    ] {
        let reference = codec(96 * 24, 1).encode(&t, target).expect("encode");
        for threads in [1, 2, 8] {
            let c = codec(96 * 24, threads);
            let a = c.encode(&t, target).expect("encode");
            let b = c.encode(&t, target).expect("encode");
            assert_eq!(a.bytes(), b.bytes(), "run-to-run, threads {threads}");
            assert_eq!(
                a.bytes(),
                reference.bytes(),
                "threads {threads} vs serial, target {target:?}"
            );
        }
    }
}

/// Golden pins of the two rate-targeted streams above. The rate search
/// picks the QP the stream is coded at, and its later probes search
/// below its first probe's coding trees, so any change to where it
/// probes, which probe it accepts or how a probe reuses the first one's
/// trees moves these bytes. The pins hold at every thread count: the
/// rate model's analysis pass, like the probes and the kept trees, must
/// not depend on scheduling. (Re-pinned for the tree reuse: the bits
/// stream's answer is a later probe; the error stream's answer is its
/// first probe, a full search, and kept its bytes.)
#[test]
fn rate_targeted_streams_match_golden_hashes() {
    let t = weight(13, 96);
    for (target, len, fnv) in [
        (RateTarget::BitsPerValue(3.0), 3436, 0xd3d9_fca7_00bb_c9f8),
        (
            RateTarget::MaxNormalizedMse(0.02),
            3790,
            0xc78b_e60d_573f_059a,
        ),
    ] {
        for threads in [1, 2, 8] {
            let enc = codec(96 * 24, threads).encode(&t, target).expect("encode");
            assert_eq!(enc.bytes().len(), len, "{target:?}, threads {threads}");
            assert_eq!(fnv1a(enc.bytes()), fnv, "{target:?}, threads {threads}");
        }
    }
}

#[test]
fn parallel_decode_matches_serial_decode() {
    let t = weight(21, 128);
    let enc = codec(1 << 12, 1)
        .encode(&t, RateTarget::Qp(26.0))
        .expect("encode");
    let serial = codec(1 << 12, 1).decode(&enc).expect("decode");
    for threads in [2, 8] {
        let parallel = codec(1 << 12, threads).decode(&enc).expect("decode");
        assert_eq!(parallel, serial, "threads {threads}");
    }
}

/// Golden pin of a two-tile default-config stream: 64 rows at CTU 32 is
/// two CTU rows, so the default eight-tile request clamps to two. The
/// same bytes must come out at every thread count (tile count is pure
/// geometry) — see `fixed_qp_streams_match_serial_golden_hashes`, which
/// checks threads 1/2/8 against these values.
const TILED_64_LEN: usize = 453;
const TILED_64_FNV: u64 = 0xf423_4a5d_2d5a_7b98;

#[test]
fn zero_threads_resolves_to_machine_parallelism_and_stays_exact() {
    let t = weight(42, 96);
    let auto = codec(96 * 24, 0)
        .encode(&t, RateTarget::Qp(24.0))
        .expect("encode");
    assert_eq!(fnv1a(auto.bytes()), 0x9762_a680_4737_bf98);
    let dec = codec(96 * 24, 0).decode(&auto).expect("decode");
    assert_eq!(dec.shape(), t.shape());
}

/// Tiled streams must be bit-identical at every thread count and every
/// tile count: the tile geometry is derived from the chunk alone, never
/// from scheduling, and the (chunk, tile) fan-out joins in task order.
/// Single-chunk tensors of 1, 2, 4 and 10 CTU rows give 1, 2, 4 and 8
/// tiles (the request clamps to the CTU-row count).
#[test]
fn tiled_streams_are_bit_identical_across_thread_counts() {
    for (rows, expect_tiles) in [(32, 1), (64, 2), (128, 4), (320, 8)] {
        let mut rng = Pcg32::seed_from(9);
        let t = llm_weight(rows, 128, &WeightProfile::default(), &mut rng);
        let codec = |threads| {
            Llm265Codec::with_config(Llm265Config {
                threads,
                ..Llm265Config::default()
            })
        };
        let reference = codec(1).encode(&t, RateTarget::Qp(24.0)).expect("encode");
        let index = llm265_core::TensorStreamIndex::parse(reference.bytes()).expect("index");
        assert_eq!(index.n_chunks(), 1, "rows {rows}");
        assert_eq!(index.n_tiles(0), expect_tiles, "rows {rows}");
        let serial = codec(1).decode(&reference).expect("decode");
        for threads in [2, 8] {
            let c = codec(threads);
            let enc = c.encode(&t, RateTarget::Qp(24.0)).expect("encode");
            assert_eq!(
                enc.bytes(),
                reference.bytes(),
                "rows {rows}, threads {threads}"
            );
            assert_eq!(
                c.decode(&enc).expect("decode"),
                serial,
                "rows {rows}, threads {threads}"
            );
        }
    }
}

/// A worker panic must surface as [`CodecError::Internal`], never as a
/// process abort or a hung scope.
#[test]
fn pool_worker_panic_surfaces_as_codec_error() {
    let err = pool::run_ordered(8, 4, |i| {
        if i == 5 {
            panic!("worker bug");
        }
        i
    })
    .expect_err("panic must become an error");
    assert!(matches!(err, CodecError::Internal(_)), "{err:?}");
}

/// The rate search must stay lazy: per rate-targeted encode it probes
/// only the QPs its rate model places, starting from a prior for the
/// QP-51 size instead of a QP-51 probe, and never the expensive QP-0 end
/// unless that is the answer. The bounds are the worst cases measured
/// over these tensors (3 and 3; 4 and 4 with the QP-51 anchor probe).
#[test]
fn rate_search_encode_counts_stay_lazy() {
    let n_chunks = 4; // 96 rows / 24-row bands
    for seed in [3, 4, 5, 6] {
        let t = weight(seed, 96);
        for (target, bound) in [
            (RateTarget::BitsPerValue(3.0), 3),
            (RateTarget::MaxNormalizedMse(0.02), 3),
        ] {
            let counter = Arc::new(AtomicU64::new(0));
            let mut c = codec(96 * 24, 1);
            c.set_chunk_encode_counter(Arc::clone(&counter));
            c.encode(&t, target).expect("encode");
            #[allow(
                clippy::disallowed_methods,
                reason = "the encode has joined every pool worker, so the count is final"
            )]
            let probes = counter.load(Ordering::Relaxed) / n_chunks;
            assert!(
                probes <= bound,
                "seed {seed}, {target:?}: {probes} probed QPs"
            );
        }
    }
}

/// Fixed-QP encodes probe exactly once per chunk: the probe writes the
/// stream it returns, so nothing re-encodes a chunk afterwards.
#[test]
fn fixed_qp_encodes_once_per_chunk() {
    let t = weight(3, 96);
    let counter = Arc::new(AtomicU64::new(0));
    let mut c = codec(96 * 24, 1);
    c.set_chunk_encode_counter(Arc::clone(&counter));
    c.encode(&t, RateTarget::Qp(28.0)).expect("encode");
    #[allow(
        clippy::disallowed_methods,
        reason = "the encode has joined every pool worker, so the count is final"
    )]
    let probes = counter.load(Ordering::Relaxed);
    assert_eq!(probes, 4);
}
