//! Cross-run determinism: the encoder must be a pure function of its
//! inputs. Bit-exactness of the stream across repeated encodes is what the
//! `xtask lint` determinism pass enforces structurally (no hash-order or
//! clock dependence on codec paths); these tests pin the behaviour
//! end-to-end so a regression fails loudly even if a nondeterministic
//! construct slips past the static gate.

use llm265_videocodec::{decode_video, encode_video, CodecConfig, Frame, PipelineConfig, Profile};

fn textured_frame(seed: u64, w: usize, h: usize) -> Frame {
    Frame::from_fn(w, h, |x, y| {
        let v = (x * 7 + y * 13 + (x * y) / 3) as u64 + seed * 31;
        (v % 256) as u8
    })
}

/// Encoding the same frames twice must produce byte-identical streams —
/// any divergence means something on the encode path depends on process
/// state (hash seeds, time, thread scheduling).
#[test]
fn repeated_encodes_are_byte_identical() {
    let frames = [
        textured_frame(1, 48, 48),
        textured_frame(2, 48, 48),
        textured_frame(3, 48, 48),
    ];
    for profile in [Profile::h264(), Profile::h265(), Profile::av1()] {
        let cfg = CodecConfig::default().with_profile(profile).with_qp(27.5);
        let a = encode_video(&frames, &cfg).expect("encode");
        let b = encode_video(&frames, &cfg).expect("encode");
        assert_eq!(a.bytes, b.bytes, "stream differs across runs");
        for (fa, fb) in a.recon.iter().zip(&b.recon) {
            assert_eq!(fa, fb, "reconstruction differs across runs");
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The tile payloads of a video stream, concatenated in stream order:
/// the 24-byte header states the tile count, then each frame is one
/// little-endian `u32` length per tile, the payloads and a `u32`
/// checksum.
fn tile_payloads(stream: &[u8], n_frames: usize) -> Vec<u8> {
    let n_tiles = usize::from(u16::from_le_bytes([stream[22], stream[23]]));
    let len_at = |at: usize| u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
    let mut pos = 24;
    let mut out = Vec::new();
    for _ in 0..n_frames {
        let total: usize = (0..n_tiles).map(|t| len_at(pos + 4 * t)).sum();
        pos += 4 * n_tiles;
        out.extend_from_slice(&stream[pos..pos + total]);
        pos += total + 4;
    }
    assert_eq!(pos, stream.len(), "tile tables cover the stream");
    out
}

/// Golden hashes pin video streams across builds and target CPUs, not
/// just across runs in one process: the FNV-1a of the concatenated tile
/// payloads and the whole stream's length and hash. Three profiles,
/// three tile counts, the inter path on. Re-pinned once for the
/// coarse-to-fine mode decision and the format v5 frame checksum.
#[test]
fn video_streams_match_golden_hashes() {
    let frames = [
        textured_frame(17, 56, 72),
        textured_frame(18, 56, 72),
        textured_frame(17, 56, 72),
    ];
    let cases = [
        (
            Profile::h265(),
            2,
            0x89f7_b829_eb6c_d7aeu64,
            2249,
            0x1a37_d991_8e18_a839u64,
        ),
        (
            Profile::h264(),
            3,
            0x0d77_7915_f23b_488a,
            2409,
            0xbd43_149e_5f19_fb60,
        ),
        (
            Profile::av1(),
            1,
            0xe6aa_8116_e43f_e398,
            2124,
            0xf0eb_1739_0647_9265,
        ),
    ];
    for (profile, tiles, payload_fnv, len, stream_fnv) in cases {
        let cfg = CodecConfig::default()
            .with_profile(profile)
            .with_pipeline(PipelineConfig::full_video())
            .with_qp(24.25)
            .with_tiles(tiles);
        let enc = encode_video(&frames, &cfg).expect("encode");
        let name = cfg.profile.kind().name();
        assert_eq!(
            fnv1a(&tile_payloads(&enc.bytes, frames.len())),
            payload_fnv,
            "{name} tile payloads"
        );
        assert_eq!(enc.bytes.len(), len, "{name} stream length");
        assert_eq!(fnv1a(&enc.bytes), stream_fnv, "{name} stream");
    }
}

/// Every pipeline ablation point must also be deterministic, not just the
/// full configuration.
#[test]
fn all_pipeline_configs_are_deterministic() {
    let frames = [textured_frame(7, 32, 32), textured_frame(8, 32, 32)];
    for byte in 0..PipelineConfig::COUNT {
        let pipeline = PipelineConfig::from_byte(byte).expect("defined switches");
        let cfg = CodecConfig::default().with_pipeline(pipeline).with_qp(30.0);
        let a = encode_video(&frames, &cfg).expect("encode");
        let b = encode_video(&frames, &cfg).expect("encode");
        assert_eq!(a.bytes, b.bytes, "pipeline byte {byte} nondeterministic");
    }
}

/// A smooth ramp with a little texture: flat enough that large leaves
/// win (H.264's 16×16 CUs then code four 8×8 TUs), textured enough that
/// small ones do too.
fn ramp_frame(shift: usize, w: usize, h: usize) -> Frame {
    Frame::from_fn(w, h, |x, y| {
        let x = x + shift;
        ((x * 3 + y * 2) / 2 + (x * y) % 7) as u8
    })
}

/// Golden hashes of every pipeline switch combination on every profile
/// at one QP: the FNV-1a of the whole stream, one per profile ×
/// pipeline byte. These pin the paths the video-stream goldens above do
/// not reach: the fixed 8×8 grid (adaptive partition off), transform
/// skip, intra off, and H.264's multi-TU leaves. The second frame is
/// the first moved one pixel, so the inter bytes code P-frame leaves.
#[test]
fn every_pipeline_matches_its_golden_hash() {
    let frames = [ramp_frame(0, 48, 40), ramp_frame(1, 48, 40)];
    let cases: [(Profile, [u64; PipelineConfig::COUNT as usize]); 3] = [
        (
            Profile::h264(),
            [
                0x7a9a_a0b3_17f3_9b74,
                0xacc5_98c0_9e00_2606,
                0xd095_d135_5909_771e,
                0x915b_7286_04e4_d595,
                0xd104_6519_785d_1081,
                0x574c_75c8_7700_e4d7,
                0x9b04_5064_f71e_e85b,
                0x6266_b7c0_63ee_d5c7,
                0x6eea_ef3b_cf4f_3a20,
                0x71a9_3fe9_a2a6_6762,
                0xc04a_d741_2de5_67ef,
                0x2aec_f2c4_2fb1_c8c5,
                0x362a_6daa_0b8b_5d4c,
                0x3f04_e862_ca70_c510,
                0x7bfd_e05a_5c1a_4319,
                0x2775_a5a7_f825_7dfd,
            ],
        ),
        (
            Profile::h265(),
            [
                0xfa87_2c88_3671_e476,
                0x7573_1a2e_ef7e_bf71,
                0x7def_97ab_7022_f6ca,
                0x4220_393e_557d_18a5,
                0x73a9_e0c8_37b8_ab42,
                0x5df3_70d6_153f_291e,
                0x9f6a_1737_615e_e12b,
                0x6f86_ad09_e3b6_0cb1,
                0x3c2d_d852_acf9_210d,
                0xa655_f596_94c0_9217,
                0x2f36_5016_dfc5_b1e4,
                0x888f_dd1d_0e77_cd38,
                0xcec3_a2d8_af5b_cd26,
                0xcf70_a3d5_0871_c1e6,
                0x1951_0e23_a338_0125,
                0x3480_8393_2cb6_858d,
            ],
        ),
        (
            Profile::av1(),
            [
                0x707a_fba9_4920_31c3,
                0xf13e_36bd_7f73_ff09,
                0xb235_a0eb_b2ba_85e3,
                0xc254_1f7c_e390_1ee3,
                0x9c56_bafd_5721_1167,
                0x9500_6518_5cde_8d0a,
                0xb8ab_efa7_1fcf_d666,
                0xc623_2b31_3d2d_e05a,
                0x6a94_6507_47eb_8538,
                0x2ea4_f907_faa5_45cf,
                0xf664_f65f_c88a_d958,
                0xcec3_5f6b_d10c_e458,
                0x0927_e424_48bc_4242,
                0xb801_6d10_a9fd_a6ad,
                0x2aac_a1d6_26f2_0676,
                0x5560_3859_4680_d86c,
            ],
        ),
    ];
    for (profile, golden) in cases {
        let name = profile.kind().name();
        for (byte, &want) in (0..PipelineConfig::COUNT).zip(&golden) {
            let pipeline = PipelineConfig::from_byte(byte).expect("defined switches");
            let cfg = CodecConfig::default()
                .with_profile(profile.clone())
                .with_pipeline(pipeline)
                .with_qp(30.0);
            let enc = encode_video(&frames, &cfg).expect("encode");
            assert_eq!(fnv1a(&enc.bytes), want, "{name} pipeline byte {byte}");
        }
    }
}

/// Decode must be deterministic too: the same stream decodes to the same
/// frames on every run.
#[test]
fn repeated_decodes_are_identical() {
    let frames = [textured_frame(11, 40, 24)];
    let enc = encode_video(&frames, &CodecConfig::default().with_qp(24.0)).expect("encode");
    let a = decode_video(&enc.bytes).expect("decode failed");
    let b = decode_video(&enc.bytes).expect("decode failed");
    assert_eq!(a, b);
}

/// The encoder's committed reconstruction must equal the decoder's output
/// exactly. The tensor codec's rate search relies on this: it measures
/// reconstruction error from `EncodedVideo::recon` without a decode
/// round-trip, so any drift here silently skews every MSE-targeted
/// search. Cover intra-only and inter paths at several QPs, including a
/// fractional one.
#[test]
fn encoder_recon_is_bit_exact_with_decoder_output() {
    let frames = [
        textured_frame(17, 56, 40),
        textured_frame(18, 56, 40),
        textured_frame(17, 56, 40), // repeat favours inter prediction
    ];
    for qp in [8.0, 24.25, 38.0, 51.0] {
        let cfg = CodecConfig::default().with_qp(qp);
        let enc = encode_video(&frames, &cfg).expect("encode");
        let dec = decode_video(&enc.bytes).expect("decode failed");
        assert_eq!(enc.recon.len(), dec.len());
        for (i, (r, d)) in enc.recon.iter().zip(&dec).enumerate() {
            assert_eq!(r, d, "frame {i} at qp {qp}");
        }
    }
}

/// Non-CTU-aligned frame sizes exercise the padding/cropping path; the
/// recon/decoder identity and run-to-run determinism must hold there too.
#[test]
fn odd_sizes_stay_deterministic_and_recon_exact() {
    for (w, h) in [(33, 17), (1, 64), (80, 9)] {
        let frames = [textured_frame(5, w, h)];
        let cfg = CodecConfig::default().with_qp(28.0);
        let a = encode_video(&frames, &cfg).expect("encode");
        let b = encode_video(&frames, &cfg).expect("encode");
        assert_eq!(a.bytes, b.bytes, "{w}x{h} stream differs across runs");
        let dec = decode_video(&a.bytes).expect("decode failed");
        assert_eq!(a.recon[0], dec[0], "{w}x{h} recon != decode");
    }
}
