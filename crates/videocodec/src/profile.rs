//! Codec profiles and pipeline ablation switches.
//!
//! The paper compares three hardware codec families (H.264, H.265, AV1,
//! Fig 6 / Table 2) and ablates individual pipeline stages (Fig 2b). A
//! [`Profile`] captures what differs between codec generations — block
//! sizes and prediction-mode sets — while [`PipelineConfig`] toggles whole
//! stages on and off.

use crate::intra::PredMode;

/// Which codec family a profile emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// H.264/AVC-like: 16×16 macroblocks, small transforms, 9-ish modes.
    H264,
    /// H.265/HEVC-like: 32×32 CTUs, transforms to 32×32, 35 intra modes.
    H265,
    /// AV1-like: H.265 block structure plus Paeth and Smooth predictors.
    Av1,
}

impl ProfileKind {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ProfileKind::H264 => "H.264",
            ProfileKind::H265 => "H.265",
            ProfileKind::Av1 => "AV1",
        }
    }

    fn id(self) -> u8 {
        match self {
            ProfileKind::H264 => 0,
            ProfileKind::H265 => 1,
            ProfileKind::Av1 => 2,
        }
    }

    fn from_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(ProfileKind::H264),
            1 => Some(ProfileKind::H265),
            2 => Some(ProfileKind::Av1),
            _ => None,
        }
    }
}

/// Block-structure and mode-set parameters of a codec generation.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    kind: ProfileKind,
    ctu: usize,
    min_cu: usize,
    max_tu: usize,
    modes: Vec<PredMode>,
}

impl Profile {
    /// H.264-like profile: 16×16 macroblocks, 4–8 px transforms, the
    /// classic 9-direction mode set.
    pub fn h264() -> Self {
        Profile {
            kind: ProfileKind::H264,
            ctu: 16,
            min_cu: 4,
            max_tu: 8,
            modes: PredMode::h264_set(),
        }
    }

    /// H.265-like profile: 32×32 CTUs, transforms to 32×32, DC + Planar +
    /// 33 angular modes.
    pub fn h265() -> Self {
        Profile {
            kind: ProfileKind::H265,
            ctu: 32,
            min_cu: 4,
            max_tu: 32,
            modes: PredMode::h265_set(),
        }
    }

    /// AV1-like profile: H.265 block structure plus Paeth and Smooth
    /// predictors.
    pub fn av1() -> Self {
        Profile {
            kind: ProfileKind::Av1,
            ctu: 32,
            min_cu: 4,
            max_tu: 32,
            modes: PredMode::av1_set(),
        }
    }

    /// Builds the profile for a [`ProfileKind`].
    pub fn of(kind: ProfileKind) -> Self {
        match kind {
            ProfileKind::H264 => Profile::h264(),
            ProfileKind::H265 => Profile::h265(),
            ProfileKind::Av1 => Profile::av1(),
        }
    }

    /// Which family this profile emulates.
    pub fn kind(&self) -> ProfileKind {
        self.kind
    }

    /// Coding-tree-unit (largest block) size.
    pub fn ctu(&self) -> usize {
        self.ctu
    }

    /// Smallest coding-unit size.
    pub fn min_cu(&self) -> usize {
        self.min_cu
    }

    /// Largest transform size; larger CUs split their residual into TUs.
    pub fn max_tu(&self) -> usize {
        self.max_tu
    }

    /// The intra prediction modes this profile may choose from.
    pub fn modes(&self) -> &[PredMode] {
        &self.modes
    }

    /// Serialization id for the bitstream header.
    pub fn header_id(&self) -> u8 {
        self.kind.id()
    }

    /// Rebuilds a profile from its header id.
    pub(crate) fn from_header_id(id: u8) -> Option<Self> {
        ProfileKind::from_id(id).map(Profile::of)
    }
}

impl Default for Profile {
    fn default() -> Self {
        Profile::h265()
    }
}

/// Per-stage switches over the encoding pipeline, reproducing the paper's
/// Fig 2(b) ablation.
///
/// Entropy coding is always on (the paper's stage-1 raw 8-bit baseline
/// needs no codec; see [`crate::ablation`]). Semantics:
/// - `transform = false`: residuals are quantized in the spatial domain
///   ("transform skip") instead of the DCT domain.
/// - `adaptive_partition = false`: a fixed 8×8 coding grid replaces the
///   RD-optimised quad-tree.
/// - `intra = false`: prediction is the constant mid-gray level.
/// - `inter = true`: P-frames may motion-compensate against the previous
///   reconstructed frame. The paper found this *hurts* tensors, so the
///   default is intra-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// DCT transform coding.
    pub transform: bool,
    /// RD-optimised quad-tree partitioning.
    pub adaptive_partition: bool,
    /// Intra-frame prediction.
    pub intra: bool,
    /// Inter-frame motion prediction.
    pub inter: bool,
}

impl Default for PipelineConfig {
    /// The paper's tensor-codec configuration: everything on except inter.
    fn default() -> Self {
        PipelineConfig {
            transform: true,
            adaptive_partition: true,
            intra: true,
            inter: false,
        }
    }
}

impl PipelineConfig {
    /// Full video configuration (inter enabled), for Fig 2(b) stage 6.
    pub fn full_video() -> Self {
        PipelineConfig {
            inter: true,
            ..Self::default()
        }
    }

    /// Number of distinct configurations: one header bit per switch.
    pub const COUNT: u8 = 16;

    /// Packs the switches into a header byte (also handy for enumerating
    /// every configuration in tests). Bits 4–7 are always zero.
    pub fn to_byte(self) -> u8 {
        u8::from(self.transform)
            | u8::from(self.adaptive_partition) << 1
            | u8::from(self.intra) << 2
            | u8::from(self.inter) << 3
    }

    /// Unpacks a header byte, or `None` if any bit outside the four
    /// switches is set: a corrupted byte must not decode as a clean one.
    pub fn from_byte(b: u8) -> Option<Self> {
        (b < Self::COUNT).then_some(PipelineConfig {
            transform: b & 1 != 0,
            adaptive_partition: b & 2 != 0,
            intra: b & 4 != 0,
            inter: b & 8 != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parameters_are_sane() {
        for p in [Profile::h264(), Profile::h265(), Profile::av1()] {
            assert!(p.ctu() >= p.min_cu());
            assert!(p.max_tu() <= p.ctu());
            assert!(p.ctu().is_power_of_two());
            assert!(p.min_cu().is_power_of_two());
            assert!(!p.modes().is_empty());
        }
    }

    #[test]
    fn h264_has_fewer_modes_than_h265() {
        assert!(Profile::h264().modes().len() < Profile::h265().modes().len());
        assert!(Profile::av1().modes().len() > Profile::h265().modes().len());
    }

    #[test]
    fn profile_header_roundtrip() {
        for kind in [ProfileKind::H264, ProfileKind::H265, ProfileKind::Av1] {
            let p = Profile::of(kind);
            let back = Profile::from_header_id(p.header_id()).unwrap();
            assert_eq!(back.kind(), kind);
        }
        assert!(Profile::from_header_id(99).is_none());
    }

    #[test]
    fn pipeline_byte_roundtrip() {
        for b in 0..PipelineConfig::COUNT {
            let cfg = PipelineConfig::from_byte(b).expect("defined switches");
            assert_eq!(cfg.to_byte(), b);
        }
        for b in PipelineConfig::COUNT..=u8::MAX {
            assert_eq!(PipelineConfig::from_byte(b), None, "byte {b:#04x}");
        }
    }

    #[test]
    fn default_pipeline_is_intra_only() {
        let cfg = PipelineConfig::default();
        assert!(cfg.transform && cfg.adaptive_partition && cfg.intra);
        assert!(!cfg.inter, "the paper enforces intra-only for tensors");
        assert!(PipelineConfig::full_video().inter);
    }
}
