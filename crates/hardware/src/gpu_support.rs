//! GPU codec-support matrix (the paper's Table 2).
//!
//! Static capability data from the NVIDIA Video Codec SDK matrix the
//! paper cites: which GPU generations provide hardware encode/decode for
//! each codec, and up to what resolution. VP9 is decode-only everywhere,
//! which is why the paper excludes it (LLM.265 needs both directions in
//! hardware).

/// A GPU generation row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuGeneration {
    /// Ada Lovelace (RTX 40).
    AdaLovelace,
    /// Ampere (RTX 30 / A100).
    Ampere,
    /// Volta (V100).
    Volta,
}

impl GpuGeneration {
    /// All generations, newest first (the table's order).
    pub fn all() -> [GpuGeneration; 3] {
        [
            GpuGeneration::AdaLovelace,
            GpuGeneration::Ampere,
            GpuGeneration::Volta,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GpuGeneration::AdaLovelace => "Ada Lovelace",
            GpuGeneration::Ampere => "Ampere",
            GpuGeneration::Volta => "Volta",
        }
    }
}

/// A codec column of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecStandard {
    /// H.264 / AVC.
    H264,
    /// H.265 / HEVC.
    H265,
    /// AV1.
    Av1,
    /// VP9.
    Vp9,
}

impl CodecStandard {
    /// All codecs, in the table's order.
    pub fn all() -> [CodecStandard; 4] {
        [
            CodecStandard::H264,
            CodecStandard::H265,
            CodecStandard::Av1,
            CodecStandard::Vp9,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CodecStandard::H264 => "H.264",
            CodecStandard::H265 => "H.265",
            CodecStandard::Av1 => "AV1",
            CodecStandard::Vp9 => "VP9",
        }
    }
}

/// Hardware support level for one (generation, codec) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Support {
    /// Hardware encode and decode up to this resolution (in "K").
    EncodeDecode(u8),
    /// Hardware decode only, up to this resolution.
    DecodeOnly(u8),
    /// No hardware support.
    None,
}

impl Support {
    /// Table-cell rendering ("8K Enc/Dec.", "8K Dec", "-").
    pub fn label(self) -> String {
        match self {
            Support::EncodeDecode(k) => format!("{k}K Enc/Dec."),
            Support::DecodeOnly(k) => format!("{k}K Dec"),
            Support::None => "-".to_string(),
        }
    }

    /// Whether both directions exist in hardware — the requirement for
    /// LLM.265.
    pub fn usable_for_tensors(self) -> bool {
        matches!(self, Support::EncodeDecode(_))
    }
}

/// The support matrix (Table 2).
pub fn support(gen: GpuGeneration, codec: CodecStandard) -> Support {
    use CodecStandard::*;
    use GpuGeneration::*;
    match (gen, codec) {
        (_, H264) => Support::EncodeDecode(4),
        (_, H265) => Support::EncodeDecode(8),
        (AdaLovelace, Av1) => Support::EncodeDecode(8),
        (_, Av1) => Support::None,
        (_, Vp9) => Support::DecodeOnly(8),
    }
}

/// Codecs usable for LLM.265 on a generation.
pub fn tensor_codecs_for(gen: GpuGeneration) -> Vec<CodecStandard> {
    CodecStandard::all()
        .into_iter()
        .filter(|&c| support(gen, c).usable_for_tensors())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h265_universal_encode_decode() {
        // The paper adopts H.265 because every generation encodes and
        // decodes it, at the highest resolution.
        for gen in GpuGeneration::all() {
            assert_eq!(support(gen, CodecStandard::H265), Support::EncodeDecode(8));
        }
    }

    #[test]
    fn vp9_is_decode_only_everywhere() {
        for gen in GpuGeneration::all() {
            let s = support(gen, CodecStandard::Vp9);
            assert!(!s.usable_for_tensors(), "{}: {:?}", gen.name(), s);
        }
    }

    #[test]
    fn av1_only_on_ada() {
        assert!(support(GpuGeneration::AdaLovelace, CodecStandard::Av1).usable_for_tensors());
        assert_eq!(
            support(GpuGeneration::Ampere, CodecStandard::Av1),
            Support::None
        );
        assert_eq!(
            support(GpuGeneration::Volta, CodecStandard::Av1),
            Support::None
        );
    }

    #[test]
    fn tensor_codec_counts() {
        assert_eq!(tensor_codecs_for(GpuGeneration::AdaLovelace).len(), 3);
        assert_eq!(tensor_codecs_for(GpuGeneration::Ampere).len(), 2);
        assert_eq!(tensor_codecs_for(GpuGeneration::Volta).len(), 2);
    }

    #[test]
    fn labels_render_like_the_paper() {
        assert_eq!(Support::EncodeDecode(8).label(), "8K Enc/Dec.");
        assert_eq!(Support::DecodeOnly(8).label(), "8K Dec");
        assert_eq!(Support::None.label(), "-");
    }
}
