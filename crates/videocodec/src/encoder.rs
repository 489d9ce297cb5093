//! The frame/video encoder.
//!
//! Encoding is two-phase per frame:
//!
//! 1. **Decide** — walk CTUs in raster order, recursively choosing quad-tree
//!    splits, prediction modes and quantized levels by rate-distortion cost
//!    (`cost = SSD + λ·bits`, bits estimated by `syntax::BitCounter` on
//!    cloned contexts). A coarse-to-fine SAD sweep (`ModeSweep`) and a
//!    SATD re-rank narrow the intra modes to two before RD, and a split
//!    stops as soon as it cannot beat the unsplit leaf. Reconstruction is
//!    committed as decisions are made, so later blocks predict from
//!    exactly what the decoder will see.
//! 2. **Emit** — replay the decision tree into the real CABAC coder.
//!
//! Because the cost counter evolves context models identically to the real
//! coder, both phases see the same probability state. The encoder adds
//! only the forward transform and quantizer to the decoder's own TU
//! reconstruction ([`crate::recon::Recon`]), so its reconstruction is the
//! decoder's output by construction.

use llm265_bitstream::bytes;
use llm265_bitstream::cabac::CabacEncoder;
use llm265_bitstream::crc32::Crc32;

use crate::inter::{compensate, motion_search, MotionVector};
use crate::intra::{PredMode, RefSamples, SweepLines};
use crate::quant::lambda;
use crate::recon::Recon;
use crate::syntax::{code_eg, code_levels, BinSink, BitCounter, Contexts};
use crate::tile::{self, wire_u32, TileLayout};
use crate::transform::{satd, DctPlans};
use crate::{CodecConfig, CodecError, EncodedVideo, Frame};

/// Magic number at the start of every bitstream ("L265").
pub(crate) const MAGIC: u32 = 0x4C32_3635;
/// Bitstream format version; the decoder accepts no other. Every frame
/// is one tile table of entropy-coded tile payloads (see [`crate::tile`])
/// and a checksum ([`write_frame_record`]).
pub(crate) const VERSION: u8 = 5;
/// Intra modes the SAD sweep keeps for the SATD re-rank.
const SAD_CANDIDATES: usize = 6;
/// Intra modes of the SATD re-rank taken to full RD evaluation.
const RD_CANDIDATES: usize = 2;
/// Upper bound on a profile's mode count (the sweep's fixed arrays).
const MAX_MODES: usize = 64;

/// How a leaf coding unit is predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CuKind {
    /// Constant mid-gray prediction (intra stage disabled).
    Flat,
    /// Intra prediction with the profile's mode at this index.
    Intra(u8),
    /// Motion-compensated prediction from the previous frame.
    Inter(MotionVector),
}

/// A decided leaf: prediction kind plus quantized levels per TU.
#[derive(Debug, Clone)]
pub(crate) struct LeafData {
    pub kind: CuKind,
    /// Levels for each transform unit, raster TU order.
    pub tus: Vec<Vec<i32>>,
}

/// A node of the decided coding quad-tree.
#[derive(Debug, Clone)]
pub(crate) enum CuNode {
    Split(Vec<CuNode>),
    Leaf(LeafData),
}

/// The split shape of one tile's decided coding trees: the split flag
/// of every node that codes one (`size > min_cu` on an adaptive tree),
/// in coding order. Nothing else of the decision is kept — no modes, no
/// levels — so a shape costs one byte per flag.
///
/// A rate search keeps its first probe's shapes and hands them to every
/// later probe as a ceiling ([`crate::tile::probe_tile`]): a
/// kept split is forced, and a kept leaf searches itself and the one
/// level below it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CuShape {
    splits: Vec<bool>,
}

impl CuShape {
    /// Appends the flags of `node`, a `size`-square CU.
    fn record(&mut self, node: &CuNode, size: usize, min_cu: usize, adaptive: bool) {
        if adaptive && size > min_cu {
            self.splits.push(matches!(node, CuNode::Split(_)));
        }
        if let CuNode::Split(children) = node {
            for child in children {
                self.record(child, size / 2, min_cu, adaptive);
            }
        }
    }
}

/// How far [`FrameCoder::decide_cu`] searches below a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Search {
    /// Every split the profile allows, down to `min_cu`.
    Full,
    /// The kept shape's next node: a kept split is forced (no leaf is
    /// evaluated, its flag is still counted), and a kept leaf weighs
    /// itself against one split into [`Search::Floor`] quadrants.
    Kept,
    /// One level below a kept leaf: a leaf, whose split flag of 0 is
    /// counted wherever it is coded.
    Floor,
}

/// Coder state that must stay in lock-step between decide and emit: the
/// CABAC contexts plus the previous-mode predictor.
#[derive(Debug, Clone)]
pub(crate) struct CoderState {
    pub ctxs: Contexts,
    pub prev_mode: u8,
}

impl CoderState {
    pub fn new() -> Self {
        CoderState {
            ctxs: Contexts::new(),
            prev_mode: 0,
        }
    }
}

/// One RD candidate's outcome: levels per TU and the reconstructed CU.
#[derive(Default)]
struct Trial {
    tus: Vec<Vec<i32>>,
    recon: Vec<i32>,
}

/// The coarse-to-fine intra mode sweep of one leaf, after the HM
/// reference encoder's rough mode decision. It SAD-scores every
/// non-angular mode, the angular modes `m` with `(m - 2) % 4 == 0` and
/// the most probable mode, then the modes ±2 around the best angular
/// mode so far, then ±1 around the best after that: about 16 of
/// H.265's 35 modes. H.264's angular modes are all `≡ 2 (mod 4)`, so it
/// keeps its whole set. Fixed-size arrays throughout: a leaf allocates
/// nothing here.
struct ModeSweep {
    /// Whether `modes[i]` has been scored.
    swept: [bool; MAX_MODES],
    /// The `SAD_CANDIDATES` smallest `(SAD, mode index)` keys so far, in
    /// ascending order; the first `n` are filled.
    top: [(u64, u8); SAD_CANDIDATES],
    n: usize,
    /// The smallest key among scored angular modes.
    best_angular: Option<(u64, u8)>,
}

impl ModeSweep {
    /// Runs the sweep over `modes` with most probable mode `mpm`:
    /// `score(which, sweep)` must [`Self::record`] the SAD of every mode
    /// index in `which` into `sweep`.
    fn run(modes: &[PredMode], mpm: u8, mut score: impl FnMut(&[u8], &mut Self)) -> Self {
        let mut sweep = ModeSweep {
            swept: [false; MAX_MODES],
            top: [(u64::MAX, u8::MAX); SAD_CANDIDATES],
            n: 0,
            best_angular: None,
        };
        let mut which = [0u8; MAX_MODES];
        let mut n = 0;
        for (i, &mode) in modes.iter().enumerate().take(MAX_MODES) {
            let coarse = !matches!(mode, PredMode::Angular(m) if m % 4 != 2);
            if coarse || i == usize::from(mpm) {
                // `take(MAX_MODES)` keeps the index within a byte.
                which[n] = (i & 0xFF) as u8;
                n += 1;
            }
        }
        score(&which[..n], &mut sweep);
        for step in [2, 1] {
            let Some((_, best)) = sweep.best_angular else {
                break;
            };
            let PredMode::Angular(m) = modes[usize::from(best)] else {
                break;
            };
            let mut n = 0;
            for near in [m.saturating_sub(step), m.saturating_add(step)] {
                let found = modes.iter().position(|&p| p == PredMode::Angular(near));
                if let Some(i) = found.filter(|&i| i < MAX_MODES && !sweep.swept[i]) {
                    which[n] = (i & 0xFF) as u8;
                    n += 1;
                }
            }
            score(&which[..n], &mut sweep);
        }
        sweep
    }

    /// Records mode `i`'s SAD.
    fn record(&mut self, modes: &[PredMode], i: u8, sad: u64) {
        if let Some(s) = self.swept.get_mut(usize::from(i)) {
            *s = true;
        }
        let key = (sad, i);
        if matches!(modes[usize::from(i)], PredMode::Angular(_))
            && self.best_angular.is_none_or(|b| key < b)
        {
            self.best_angular = Some(key);
        }
        // Keys are unique (the index breaks ties), so insertion keeps
        // exactly the head of the fully sorted list.
        if self.n < SAD_CANDIDATES {
            self.n += 1;
        } else if key >= self.top[SAD_CANDIDATES - 1] {
            return;
        }
        // The slot at `n - 1` holds a placeholder or the evicted key, both
        // larger than `key`, so `p` lands inside.
        let p = self.top[..self.n].partition_point(|&t| t < key);
        self.top[p..self.n].rotate_right(1);
        self.top[p] = key;
    }

    /// The kept `(SAD, mode index)` keys, best first.
    fn top(&self) -> &[(u64, u8)] {
        &self.top[..self.n]
    }
}

/// Per-frame scratch: forward-path TU buffers plus the CU-sized staging
/// blocks used by the decide loop. Nothing here outlives one
/// `decide_leaf` call.
#[derive(Default)]
struct Scratch {
    /// Spatial residual of the TU being quantized, `tu * tu` values.
    residual: Vec<i32>,
    /// Forward-transform output / quantizer input.
    coeffs: Vec<f64>,
    /// Original pixels of the CU being decided, and their transpose (the
    /// SAD sweep compares horizontal modes column-wise against it).
    leaf_orig: Vec<i32>,
    leaf_t: Vec<i32>,
    /// Prediction blocks of the SAD survivors, then of the inter
    /// candidate (slot `SAD_CANDIDATES`).
    preds: Vec<Vec<i32>>,
    /// The candidate being evaluated and the best one so far.
    cur: Trial,
    best: Trial,
    /// The SAD sweep's reference lines, refilled once per leaf.
    lines: SweepLines,
}

/// Everything a single frame encode needs: the source, the RD
/// multiplier and scratch around the reconstruction the decoder runs.
struct FrameCoder<'a> {
    orig: &'a Frame,
    lambda: f64,
    scratch: Scratch,
    rc: Recon<'a>,
    /// The split flags of the kept shape this encode searches below
    /// (empty for a full search), and the position of the next one.
    kept: &'a [bool],
    kept_pos: usize,
    /// Rollback buffers of the nodes that weigh a leaf against a split:
    /// the region before the leaf trial, then the leaf's reconstruction.
    /// Such a node takes a pair and returns it before it returns, so the
    /// stack holds one pair per tree depth, at most log2(ctu / min_cu).
    regions: Vec<[Vec<u8>; 2]>,
}

impl FrameCoder<'_> {
    /// Runs the residual path of candidate `k` (prediction
    /// `scratch.preds[k]` against `scratch.leaf_orig`) for a whole CU,
    /// splitting into TUs as the profile requires. Leaves the levels per
    /// TU and the reconstructed block in `scratch.cur` and returns the
    /// SSD distortion against the original.
    fn quantize_cu_residual(&mut self, size: usize, k: usize) -> f64 {
        let rc = &mut self.rc;
        let tu = rc.tu_size(size);
        let per_side = size / tu;
        let s = &mut self.scratch;
        let (orig, pred) = (&s.leaf_orig, &s.preds[k]);
        s.cur.tus.resize_with(per_side * per_side, Vec::new);
        s.cur.recon.resize(size * size, 0);
        for ty in 0..per_side {
            for tx in 0..per_side {
                s.residual.resize(tu * tu, 0);
                for y in 0..tu {
                    let idx = (ty * tu + y) * size + tx * tu;
                    for ((r, &o), &p) in s.residual[y * tu..(y + 1) * tu]
                        .iter_mut()
                        .zip(&orig[idx..idx + tu])
                        .zip(&pred[idx..idx + tu])
                    {
                        *r = o - p;
                    }
                }
                let levels = &mut s.cur.tus[ty * per_side + tx];
                if rc.cfg.pipeline.transform {
                    let plan = rc.plans.get(tu);
                    plan.forward_into(&s.residual, &mut rc.dct_tmp, &mut s.coeffs);
                    rc.quant.quantize_block_into(&s.coeffs, levels);
                } else {
                    // Transform skip: quantize the spatial residual directly.
                    levels.clear();
                    let quant = &rc.quant;
                    levels.extend(s.residual.iter().map(|&r| quant.quantize(f64::from(r))));
                }
                rc.reconstruct_tu(levels, tu);
                rc.add_tu(pred, &mut s.cur.recon, size, tx, ty);
            }
        }
        // Integer SSD: at most 32² · 255² < 2^32, so the u32 sum and its
        // f64 value are exact.
        let dist: u32 = orig
            .iter()
            .zip(&s.cur.recon)
            .map(|(&a, &b)| (a - b).unsigned_abs().pow(2))
            .sum();
        f64::from(dist)
    }

    /// Codes (or counts) the syntax of one leaf.
    fn code_leaf<S: BinSink>(
        &self,
        sink: &mut S,
        state: &mut CoderState,
        kind: CuKind,
        tus: &[Vec<i32>],
        size: usize,
    ) {
        if self.rc.frame_inter {
            let is_inter = matches!(kind, CuKind::Inter(_));
            sink.bit(&mut state.ctxs.inter_flag, is_inter);
        }
        match kind {
            CuKind::Inter(mv) => {
                code_signed_eg(sink, mv.dx as i32);
                code_signed_eg(sink, mv.dy as i32);
            }
            CuKind::Intra(idx) => {
                let is_mpm = idx == state.prev_mode;
                sink.bit(&mut state.ctxs.mpm, is_mpm);
                if !is_mpm {
                    sink.bypass_bits(u64::from(idx), self.rc.mode_bits);
                }
                state.prev_mode = idx;
            }
            CuKind::Flat => {}
        }
        let tu = self.rc.tu_size(size);
        for levels in tus {
            code_levels(
                sink,
                &mut state.ctxs,
                levels,
                tu,
                !self.rc.cfg.pipeline.transform,
            );
        }
    }

    /// Evaluates and commits the best leaf for this CU. Updates `state`
    /// and the reconstruction; returns the decided leaf and its RD cost.
    fn decide_leaf(
        &mut self,
        x0: usize,
        y0: usize,
        size: usize,
        state: &mut CoderState,
    ) -> (LeafData, f64) {
        let area = size * size;
        let s = &mut self.scratch;
        s.leaf_orig.resize(area, 0);
        self.orig.read_block(x0, y0, size, &mut s.leaf_orig);
        s.preds.resize_with(SAD_CANDIDATES + 1, Vec::new);

        // RD candidates: each one's kind and the slot of `s.preds` that
        // holds its prediction.
        let mut cands = [(CuKind::Flat, 0); RD_CANDIDATES + 1];
        let mut n_cands = 0;
        if self.rc.cfg.pipeline.intra {
            let refs = RefSamples::gather(&self.rc.frame, x0, y0, size);
            // SAD-score the coarse-to-fine mode set straight from the
            // line kernels (no prediction blocks).
            s.leaf_t.resize(area, 0);
            for (y, row) in s.leaf_orig.chunks_exact(size).enumerate() {
                for (x, &v) in row.iter().enumerate() {
                    s.leaf_t[x * size + y] = v;
                }
            }
            let modes = self.rc.cfg.profile.modes();
            let mpm = state.prev_mode;
            let mut sad = refs.sad_sweep(&mut s.lines, &s.leaf_orig, &s.leaf_t);
            let sweep = ModeSweep::run(modes, mpm, |which, sweep| {
                sad.score(modes, which, |i, sad| sweep.record(modes, i, sad));
            });
            // Predict the SAD survivors and re-rank them by SATD plus the
            // mode's own bits; `(cost, SAD rank)` keys are unique.
            let top = sweep.top();
            let sqrt_lambda = self.lambda.sqrt();
            let mut ranked = [(0.0, 0); SAD_CANDIDATES];
            for (k, (&(_, i), pred)) in top.iter().zip(&mut s.preds).enumerate() {
                refs.predict_into(modes[usize::from(i)], pred);
                let bits = if i == mpm { 1 } else { 1 + self.rc.mode_bits };
                let cost = satd(&s.leaf_orig, pred, size) as f64 + sqrt_lambda * f64::from(bits);
                ranked[k] = (cost, k);
            }
            let ranked = &mut ranked[..top.len()];
            ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for (cand, &(_, k)) in cands.iter_mut().zip(ranked.iter().take(RD_CANDIDATES)) {
                *cand = (CuKind::Intra(top[k].1), k);
                n_cands += 1;
            }
        } else {
            s.preds[0].clear();
            s.preds[0].resize(area, 128);
            n_cands = 1;
        }
        if self.rc.frame_inter {
            if let Some(prev) = self.rc.prev {
                let (mv, _) = motion_search(self.orig, prev, x0, y0, size);
                compensate(prev, x0, y0, size, mv, &mut s.preds[SAD_CANDIDATES]);
                cands[n_cands] = (CuKind::Inter(mv), SAD_CANDIDATES);
                n_cands += 1;
            }
        }

        // RD: keep the cheapest candidate's levels, reconstruction and
        // post-coding contexts (the commit state, so nothing is recounted).
        let mut best: Option<(CuKind, f64, CoderState)> = None;
        for &(kind, k) in &cands[..n_cands] {
            let dist = self.quantize_cu_residual(size, k);
            let mut trial_state = state.clone();
            let mut counter = BitCounter::new();
            self.code_leaf(
                &mut counter,
                &mut trial_state,
                kind,
                &self.scratch.cur.tus,
                size,
            );
            let cost = dist + self.lambda * counter.bits();
            if best.as_ref().is_none_or(|(_, c, _)| cost < *c) {
                best = Some((kind, cost, trial_state));
                let s = &mut self.scratch;
                std::mem::swap(&mut s.cur, &mut s.best);
            }
        }
        // lint:allow(panic): `n_cands >= 1` — the intra and flat
        // branches above always push at least one candidate.
        let (kind, cost, committed) = best.expect("at least one candidate");

        // Commit: context evolution + reconstruction.
        *state = committed;
        let best = &self.scratch.best;
        self.rc.frame.write_block(x0, y0, size, &best.recon);
        // The decided tree keeps the levels: clone them at their exact
        // size rather than hand over scratch sized for the largest TU.
        let tus = best.tus.clone();
        (LeafData { kind, tus }, cost)
    }

    /// Recursively decides the coding tree for a CU, searching as deep as
    /// `search` allows.
    fn decide_cu(
        &mut self,
        x0: usize,
        y0: usize,
        size: usize,
        state: &mut CoderState,
        search: Search,
    ) -> (CuNode, f64) {
        if size <= self.rc.min_cu {
            let (leaf, cost) = self.decide_leaf(x0, y0, size, state);
            return (CuNode::Leaf(leaf), cost);
        }
        if !self.rc.cfg.pipeline.adaptive_partition {
            // Implied splits down to the fixed grid; no flags coded.
            return self.decide_split(x0, y0, size, state, 0.0, f64::INFINITY, search);
        }
        let below = match search {
            Search::Full => Some(Search::Full),
            Search::Floor => None,
            // A shape recorded on this tile's geometry has a flag here; a
            // missing one reads as a leaf.
            Search::Kept => {
                let split = self.kept.get(self.kept_pos) == Some(&true);
                self.kept_pos += 1;
                if split {
                    let flag_cost = self.flag_cost(state, true);
                    return self.decide_split(
                        x0,
                        y0,
                        size,
                        state,
                        flag_cost,
                        f64::INFINITY,
                        search,
                    );
                }
                Some(Search::Floor)
            }
        };

        // One level below a kept leaf: the leaf alone.
        let Some(below) = below else {
            let flag_cost = self.flag_cost(state, false);
            let (leaf, leaf_cost) = self.decide_leaf(x0, y0, size, state);
            return (CuNode::Leaf(leaf), leaf_cost + flag_cost);
        };

        // Branch A: code as one leaf (split flag = 0).
        let [mut before, mut after] = self.regions.pop().unwrap_or_default();
        self.rc.frame.save_region_into(x0, y0, size, &mut before);
        let mut st_leaf = state.clone();
        let flag_cost = self.flag_cost(&mut st_leaf, false);
        let (leaf, leaf_cost) = self.decide_leaf(x0, y0, size, &mut st_leaf);
        let cost_leaf = leaf_cost + flag_cost;
        self.rc.frame.save_region_into(x0, y0, size, &mut after);

        // Branch B: split into four (split flag = 1).
        self.rc.frame.restore_region(x0, y0, size, &before);
        let flag_cost = self.flag_cost(state, true);
        let (split, cost_split) =
            self.decide_split(x0, y0, size, state, flag_cost, cost_leaf, below);

        let decided = if cost_leaf <= cost_split {
            self.rc.frame.restore_region(x0, y0, size, &after);
            *state = st_leaf;
            (CuNode::Leaf(leaf), cost_leaf)
        } else {
            (split, cost_split)
        };
        self.regions.push([before, after]);
        decided
    }

    /// Counts a split flag into `state`'s contexts and returns its RD
    /// cost, `λ·bits`.
    fn flag_cost(&self, state: &mut CoderState, split: bool) -> f64 {
        let mut counter = BitCounter::new();
        counter.bit(&mut state.ctxs.split, split);
        self.lambda * counter.bits()
    }

    /// Decides the four quadrants of a split CU, adding their costs to
    /// `cost` in quadrant order, and stops before the next quadrant once
    /// the sum reaches `bound` (the unsplit leaf's cost; `f64::INFINITY`
    /// on the fixed grid, where the split is implied).
    ///
    /// The stop is exact. Every quadrant cost is `SSD + λ·bits` with
    /// both terms non-negative, and f64 addition of a non-negative term
    /// never decreases a sum (rounding is monotone), so the full sum
    /// would also be `>= bound`, and `decide_cu`'s `cost_leaf <=
    /// cost_split` would pick the leaf exactly as after the full walk.
    /// The partial tree, state and reconstruction are discarded with the
    /// split branch. Each quadrant searches as deep as `search` allows.
    #[allow(clippy::too_many_arguments)]
    fn decide_split(
        &mut self,
        x0: usize,
        y0: usize,
        size: usize,
        state: &mut CoderState,
        mut cost: f64,
        bound: f64,
        search: Search,
    ) -> (CuNode, f64) {
        let half = size / 2;
        let mut children = Vec::with_capacity(4);
        for (dx, dy) in [(0, 0), (half, 0), (0, half), (half, half)] {
            if cost >= bound {
                break;
            }
            let (node, c) = self.decide_cu(x0 + dx, y0 + dy, half, state, search);
            children.push(node);
            cost += c;
        }
        (CuNode::Split(children), cost)
    }

    /// Emits a decided coding tree into an entropy sink (the CABAC coder).
    fn code_cu<S: BinSink>(&self, node: &CuNode, size: usize, enc: &mut S, state: &mut CoderState) {
        let min = self.rc.min_cu;
        let adaptive = self.rc.cfg.pipeline.adaptive_partition;
        let split = matches!(node, CuNode::Split(_));
        // A `Split` node only exists where the tree may split (`size >
        // min`), so the coded flag is never an implied value.
        if adaptive && size > min {
            enc.bit(&mut state.ctxs.split, split);
        }
        match node {
            CuNode::Split(children) => {
                for child in children {
                    self.code_cu(child, size / 2, enc, state);
                }
            }
            CuNode::Leaf(leaf) => self.code_leaf(enc, state, leaf.kind, &leaf.tus, size),
        }
    }
}

/// Codes a signed value as zig-zag-mapped order-1 exp-Golomb bypass bits
/// (used for motion vectors): 0, 1, −1, 2, −2, … map to 0, 2, 1, 4, 3, ….
pub(crate) fn code_signed_eg<S: BinSink>(sink: &mut S, v: i32) {
    // `unsigned_abs` avoids the sign-changing cast and is well-defined
    // even for i32::MIN, where `-v` would overflow.
    let mapped = if v >= 0 {
        v.unsigned_abs() << 1
    } else {
        (v.unsigned_abs() << 1) - 1
    };
    code_eg(sink, mapped, 1);
}

/// Encodes one frame (already padded to the CTU size) as a standalone
/// entropy-coded payload — in streams, always one tile band of a frame
/// (see [`crate::tile::encode_tile`]). Searches the whole coding tree,
/// or only below `kept`, a shape decided earlier on the same band (see
/// [`CuShape`]). Returns the payload, its padded reconstruction and the
/// decided shape.
pub(crate) fn encode_frame(
    orig: &Frame,
    prev: Option<&Frame>,
    cfg: &CodecConfig,
    plans: &DctPlans,
    frame_idx: usize,
    kept: Option<&CuShape>,
) -> (Vec<u8>, Frame, CuShape) {
    let mut coder = FrameCoder {
        orig,
        lambda: lambda(cfg.qp),
        scratch: Scratch::default(),
        rc: Recon::new(cfg, plans, orig.width(), orig.height(), prev, frame_idx),
        kept: kept.map_or(&[], |k| &k.splits),
        kept_pos: 0,
        regions: Vec::new(),
    };
    let ctu = cfg.profile.ctu();
    let search = if kept.is_some() {
        Search::Kept
    } else {
        Search::Full
    };

    // Phase 1: decide.
    let mut state = CoderState::new();
    let mut trees = Vec::new();
    for cy in (0..orig.height()).step_by(ctu) {
        for cx in (0..orig.width()).step_by(ctu) {
            let (node, _cost) = coder.decide_cu(cx, cy, ctu, &mut state, search);
            trees.push(node);
        }
    }

    // Phase 2: emit.
    let mut enc = CabacEncoder::new();
    code_payload(&coder, &trees, ctu, &mut enc);
    let mut shape = CuShape::default();
    let adaptive = cfg.pipeline.adaptive_partition;
    for node in &trees {
        shape.record(node, ctu, coder.rc.min_cu, adaptive);
    }
    (enc.finish(), coder.rc.frame, shape)
}

/// Replays every decided CTU tree of a frame payload through `enc` — the
/// writer half of the decoder's `parse_payload`.
fn code_payload<S: BinSink>(coder: &FrameCoder<'_>, trees: &[CuNode], ctu: usize, enc: &mut S) {
    let mut state = CoderState::new();
    for node in trees {
        coder.code_cu(node, ctu, enc, &mut state);
    }
}

/// Appends the coding fields both stream headers carry — profile id,
/// pipeline switches, stream flags and QP × 256; the exact mirror of
/// [`crate::decoder::parse_coding_fields`]. `cfg.qp` must already be
/// snapped to the 1/256 grid ([`CodecConfig::snapped`]): the snapped
/// value is what gets written, so the decoder's quantizer matches
/// bit-exactly.
pub fn write_coding_fields(out: &mut Vec<u8>, cfg: &CodecConfig) {
    bytes::write_u8(out, cfg.profile.header_id());
    bytes::write_u8(out, cfg.pipeline.to_byte());
    // Stream flags: no bit is defined, so writers write zero.
    bytes::write_u8(out, 0);
    bytes::write_le_u16(out, cfg.qp_code());
}

/// Appends the 24-byte video stream header — the exact mirror of the
/// decoder's `parse_stream_header`. `cfg.tiles` is written as the tile
/// count of every frame, so it must already be the layout's clamped
/// count.
///
/// # Errors
///
/// `LimitExceeded` when a dimension, the frame count or the tile count
/// overflows its field.
pub(crate) fn write_stream_header(
    out: &mut Vec<u8>,
    cfg: &CodecConfig,
    w: usize,
    h: usize,
    n_frames: usize,
) -> Result<(), CodecError> {
    let tiles = u16::try_from(cfg.tiles).map_err(|_| CodecError::LimitExceeded("tile count"))?;
    bytes::write_le_u32(out, MAGIC);
    bytes::write_u8(out, VERSION);
    write_coding_fields(out, cfg);
    bytes::write_le_u32(out, wire_u32(w, "frame width")?);
    bytes::write_le_u32(out, wire_u32(h, "frame height")?);
    bytes::write_le_u32(out, wire_u32(n_frames, "frame count")?);
    bytes::write_le_u16(out, tiles);
    Ok(())
}

/// Appends one frame — the exact mirror of the decoder's
/// `parse_frame_record`: its tile table ([`tile::write_tiles`]), then the
/// checksum of the stream header (`header`, its hashed state) and the
/// table ([`tile::write_checksum`]).
///
/// # Errors
///
/// `LimitExceeded` when a tile overflows its length field.
pub(crate) fn write_frame_record(
    out: &mut Vec<u8>,
    header: Crc32,
    tiles: &[Vec<u8>],
) -> Result<(), CodecError> {
    let start = out.len();
    tile::write_tiles(out, tiles)?;
    tile::write_checksum(out, header, start);
    Ok(())
}

/// Encodes a video (see [`crate::encode_video`]), refusing the inputs
/// it documents.
pub(crate) fn encode_video(
    frames: &[Frame],
    cfg: &CodecConfig,
) -> Result<EncodedVideo, CodecError> {
    let Some(first) = frames.first() else {
        return Err(CodecError::InvalidInput(
            "cannot encode an empty video".into(),
        ));
    };
    let (w, h) = (first.width(), first.height());
    if w == 0 || h == 0 {
        return Err(CodecError::InvalidInput(
            "frames must have non-zero width and height".into(),
        ));
    }
    if frames.iter().any(|f| (f.width(), f.height()) != (w, h)) {
        return Err(CodecError::InvalidInput(
            "all frames must share one size".into(),
        ));
    }

    let ctu = cfg.profile.ctu();
    // Tile geometry derives from the frame and the requested knob only —
    // never from thread counts — so streams stay bit-identical however
    // the encode work is scheduled. The header states the clamped count.
    let layout = TileLayout::for_frame(w, h, ctu, cfg.tiles);
    let cfg = &cfg.snapped().with_tiles(layout.n_tiles());
    let mut bytes = Vec::new();
    write_stream_header(&mut bytes, cfg, w, h, frames.len())?;
    let header_crc = Crc32::new().update(&bytes);

    let plans = DctPlans::new();
    let mut recon_frames = Vec::with_capacity(frames.len());
    let mut prev_padded: Option<Frame> = None;
    for (i, f) in frames.iter().enumerate() {
        let padded = f.padded_to(ctu);
        // Each band is its own mini-frame; stitching the band recons
        // reproduces the padded frame recon because bands are whole CTU
        // rows.
        let mut tiles = Vec::with_capacity(layout.n_tiles());
        let mut data = Vec::with_capacity(padded.width() * padded.height());
        for t in 0..layout.n_tiles() {
            let (payload, band) =
                tile::encode_tile(&padded, prev_padded.as_ref(), cfg, &plans, &layout, t, i);
            tiles.push(payload);
            data.extend_from_slice(band.data());
        }
        write_frame_record(&mut bytes, header_crc, &tiles)?;
        let recon_padded = Frame::from_vec(padded.width(), padded.height(), data);
        recon_frames.push(recon_padded.cropped(w, h));
        prev_padded = Some(recon_padded);
    }
    Ok(EncodedVideo {
        bytes,
        recon: recon_frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{probe_tile, TileLayout};
    use crate::Profile;
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::synthetic::{llm_gradient, llm_weight, GradientProfile, WeightProfile};
    use llm265_tensor::Tensor;

    /// A tensor mapped to 8 bits as the tensor codec's chunker maps it.
    fn tensor_frame(t: &Tensor) -> Frame {
        let (lo, hi) = t.min_max();
        let scale = (hi - lo).max(1e-9) / 255.0;
        Frame::from_fn(t.cols(), t.rows(), |x, y| {
            (((t[(y, x)] - lo) / scale).round() as i32).clamp(0, 255) as u8
        })
    }

    /// Weight and gradient frames, two CTU rows each.
    fn frames() -> Vec<Frame> {
        let mut rng = Pcg32::seed_from(11);
        vec![
            tensor_frame(&llm_weight(64, 96, &WeightProfile::default(), &mut rng)),
            tensor_frame(&llm_gradient(64, 96, &GradientProfile::default(), &mut rng)),
        ]
    }

    /// The leaves of a shape recorded on a `w × h` padded band, as
    /// `(x, y, size)`.
    fn leaves(
        shape: &CuShape,
        w: usize,
        h: usize,
        ctu: usize,
        min_cu: usize,
    ) -> Vec<(usize, usize, usize)> {
        fn walk(
            flags: &mut std::slice::Iter<'_, bool>,
            (x, y, size): (usize, usize, usize),
            min_cu: usize,
            out: &mut Vec<(usize, usize, usize)>,
        ) {
            if size > min_cu && *flags.next().expect("a flag per node") {
                let half = size / 2;
                for (dx, dy) in [(0, 0), (half, 0), (0, half), (half, half)] {
                    walk(flags, (x + dx, y + dy, half), min_cu, out);
                }
            } else {
                out.push((x, y, size));
            }
        }
        let mut flags = shape.splits.iter();
        let mut out = Vec::new();
        for y in (0..h).step_by(ctu) {
            for x in (0..w).step_by(ctu) {
                walk(&mut flags, (x, y, ctu), min_cu, &mut out);
            }
        }
        assert!(flags.next().is_none(), "flags left over");
        out
    }

    /// Encodes every tile of `frame` at `qp`, below `kept` when given;
    /// returns the total bits, the SSE and the shapes.
    fn encode_tiles(
        frame: &Frame,
        cfg: &CodecConfig,
        qp: f64,
        kept: Option<&[CuShape]>,
    ) -> (usize, u64, Vec<CuShape>) {
        let ctu = cfg.profile.ctu();
        let layout = TileLayout::for_frame(frame.width(), frame.height(), ctu, 8);
        let padded = frame.padded_to(ctu);
        let cfg = cfg.clone().with_qp(qp);
        let plans = DctPlans::new();
        let (mut bits, mut sse, mut shapes) = (0, 0, Vec::new());
        for t in 0..layout.n_tiles() {
            let shape = kept.map(|k| &k[t]);
            let (payload, recon, decided) = probe_tile(&padded, &cfg, &plans, &layout, t, shape);
            let (y0, band_h) = layout.band(t);
            bits += 8 * payload.len();
            sse += crate::tile::band_of(&padded, y0, band_h).ssd(&recon);
            shapes.push(decided);
        }
        (bits, sse, shapes)
    }

    /// At the QP its shape was kept at, a probe that searches below the
    /// shape lands within 1% of the full search in bits and in SSE. On a
    /// fixed grid the shape is empty and the probe is the full search.
    #[test]
    fn a_kept_shape_reproduces_the_full_search_at_its_own_qp() {
        let fixed_grid = CodecConfig {
            pipeline: crate::PipelineConfig {
                adaptive_partition: false,
                ..crate::PipelineConfig::default()
            },
            ..CodecConfig::default()
        };
        for frame in frames() {
            let (bits, sse, shapes) = encode_tiles(&frame, &fixed_grid, 26.0, None);
            assert!(shapes.iter().all(|s| s.splits.is_empty()));
            let reused = encode_tiles(&frame, &fixed_grid, 26.0, Some(&shapes));
            assert_eq!((reused.0, reused.1), (bits, sse));
        }
        for profile in [Profile::h265(), Profile::av1()] {
            let cfg = CodecConfig {
                profile,
                ..CodecConfig::default()
            };
            for (f, frame) in frames().iter().enumerate() {
                for qp in [18.0, 26.0, 34.0] {
                    let (bits, sse, shapes) = encode_tiles(frame, &cfg, qp, None);
                    let (kept_bits, kept_sse, _) = encode_tiles(frame, &cfg, qp, Some(&shapes));
                    let d_bits = kept_bits.abs_diff(bits) as f64 / bits as f64;
                    let d_sse = kept_sse.abs_diff(sse) as f64 / sse as f64;
                    assert!(
                        d_bits <= 0.01,
                        "frame {f} qp {qp}: bits {bits} vs {kept_bits}"
                    );
                    assert!(d_sse <= 0.01, "frame {f} qp {qp}: sse {sse} vs {kept_sse}");
                }
            }
        }
    }

    /// Below a kept shape, every decided leaf lies inside one kept leaf
    /// (no kept split is undone) and is that leaf or one of its quarters.
    #[test]
    fn reused_leaves_sit_at_or_one_level_below_the_kept_leaves() {
        let cfg = CodecConfig::default();
        let (ctu, min_cu) = (cfg.profile.ctu(), cfg.profile.min_cu());
        let mut moved = 0;
        for frame in frames() {
            let (w, h) = (frame.width().div_ceil(ctu) * ctu, frame.height());
            let (_, _, kept) = encode_tiles(&frame, &cfg, 26.0, None);
            for qp in [14.0, 22.0, 30.0, 40.0] {
                let (_, _, reused) = encode_tiles(&frame, &cfg, qp, Some(&kept));
                for (k, r) in kept.iter().zip(&reused) {
                    let band_h = h / kept.len();
                    let kept_leaves = leaves(k, w, band_h, ctu, min_cu);
                    for &(x, y, size) in &leaves(r, w, band_h, ctu, min_cu) {
                        let (_, _, outer) = kept_leaves
                            .iter()
                            .copied()
                            .find(|&(kx, ky, ks)| {
                                (kx..kx + ks).contains(&x) && (ky..ky + ks).contains(&y)
                            })
                            .expect("a kept leaf covers every pixel");
                        assert!(
                            size == outer || 2 * size == outer,
                            "qp {qp}: leaf {size} at ({x},{y}) under a kept {outer}"
                        );
                        moved += usize::from(size != outer);
                    }
                }
            }
        }
        // The floor is searched, not just allowed.
        assert!(moved > 0, "no reused leaf went below its kept leaf");
    }

    /// Runs the sweep on synthetic SADs; returns it and how often each
    /// mode was scored.
    fn sweep(modes: &[PredMode], mpm: u8, sad: impl Fn(u8) -> u64) -> (ModeSweep, Vec<u32>) {
        let mut scored = vec![0; modes.len()];
        let sw = ModeSweep::run(modes, mpm, |which, sw| {
            for &i in which {
                scored[usize::from(i)] += 1;
                sw.record(modes, i, sad(i));
            }
        });
        (sw, scored)
    }

    #[test]
    fn coarse_to_fine_set_holds_every_non_angular_mode_and_the_mpm() {
        for profile in [Profile::h264(), Profile::h265(), Profile::av1()] {
            let modes = profile.modes();
            let name = profile.kind().name();
            for mpm in 0..modes.len() as u8 {
                for seed in 0..16u64 {
                    // Arbitrary SADs, different for every seed.
                    let sad = |i: u8| (u64::from(i) + 1).wrapping_mul(0x9E37_79B9 + seed) % 997;
                    let (sw, scored) = sweep(modes, mpm, sad);
                    assert!(
                        scored.iter().all(|&n| n <= 1),
                        "{name}: a mode scored twice"
                    );
                    assert_eq!(scored[usize::from(mpm)], 1, "{name}: mpm {mpm}");
                    for (i, m) in modes.iter().enumerate() {
                        if !matches!(m, PredMode::Angular(_)) {
                            assert_eq!(scored[i], 1, "{name}: {m:?}");
                        }
                    }
                    let n_scored = scored.iter().sum::<u32>() as usize;
                    if name == "H.264" {
                        assert_eq!(n_scored, modes.len(), "H.264 keeps its whole set");
                    } else {
                        // Non-angular, 9 coarse angles, 4 refinements, mpm.
                        let non_angular = modes.len() - 33;
                        assert!(n_scored <= non_angular + 9 + 4 + 1, "{name}: {n_scored}");
                    }
                    // The kept keys are the smallest scored ones, in order.
                    let mut want: Vec<(u64, u8)> = (0..modes.len() as u8)
                        .filter(|&i| scored[usize::from(i)] == 1)
                        .map(|i| (sad(i), i))
                        .collect();
                    want.sort_unstable();
                    want.truncate(SAD_CANDIDATES);
                    assert_eq!(sw.top(), &want[..], "{name}");
                }
            }
        }
    }

    /// On SADs that fall towards one angle the refinement steps reach it,
    /// though the coarse grid skips it.
    #[test]
    fn refinement_finds_the_best_angle_between_coarse_modes() {
        let profile = Profile::h265();
        let modes = profile.modes();
        for target in 2..=34u8 {
            let sad = |i: u8| match modes[usize::from(i)] {
                PredMode::Angular(m) => u64::from(m.abs_diff(target)),
                _ => 1000,
            };
            let (sw, _) = sweep(modes, 0, sad);
            assert_eq!(sw.top()[0].0, 0, "angle {target}");
        }
    }
}
