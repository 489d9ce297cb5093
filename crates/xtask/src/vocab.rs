//! The gate's one wire vocabulary: what reads the wire, what writes it,
//! which buffers hold untrusted input, and which functions parse it.
//!
//! Every pass asks the same questions of this module instead of keeping
//! its own name list: the dataflow engine takes its taint sources and
//! consuming reads from [`PRIMITIVES`], the interval domain its source
//! intervals (from each primitive's [`Yield`]), the wire-schema extractor
//! its reader and writer terminals, and panic-reach, wire-taint and
//! termination their roots ([`is_decode_root`]).

use crate::ast::index::{FnEntry, Index};

/// Buffer names that conventionally hold untrusted input.
pub const INPUT_NAMES: &[&str] = &["data", "bytes", "input", "payload", "buf", "src", "stream"];

/// Projections whose result is trusted even on a tainted receiver: the
/// *length* of a wire-filled buffer is the decoder's own bookkeeping.
pub const TRUSTED_PROJECTIONS: &[&str] = &["len", "is_empty", "capacity"];

/// Function-name prefixes that mark untrusted-input parsing code.
pub const DECODE_PREFIXES: &[&str] = &["decode", "parse", "decompress", "read"];

/// Whether a function name marks untrusted-input parsing code.
#[must_use]
pub fn is_decode_name(name: &str) -> bool {
    DECODE_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// The one root rule of the call-graph passes: a decode-shaped function
/// (public or not) defined in one of `crates`.
#[must_use]
pub fn is_decode_root(entry: &FnEntry, crates: &[&str]) -> bool {
    crates.contains(&entry.krate.as_str()) && is_decode_name(&entry.item.name)
}

/// Indices of every [`is_decode_root`] function in the index.
#[must_use]
pub fn decode_roots(index: &Index, crates: &[&str]) -> Vec<usize> {
    (0..index.fns.len())
        .filter(|&id| is_decode_root(&index.fns[id], crates))
        .collect()
}

/// What one call of a wire primitive yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Yield {
    /// A field as many bits wide as the call's last argument.
    Width,
    /// One little-endian integer of this type.
    Fixed(&'static str),
    /// One bin; `ctx` when the first argument is its adaptive context.
    Bin {
        /// Context-coded rather than equiprobable.
        ctx: bool,
    },
}

/// One wire primitive: the element `FORMAT.md` names, its reader and
/// writer calls, and what one call moves across the wire.
#[derive(Debug)]
pub struct Primitive {
    /// The grammar token `FORMAT.md` renders a call as.
    pub token: &'static str,
    /// The reader's method or function name.
    pub reader: &'static str,
    /// The writer partner's name.
    pub writer: &'static str,
    /// What one call yields.
    pub yields: Yield,
    /// A syntax-layer bin: the token is also the `BinSource` and
    /// `BinSink` method for it, and a reader call consumes nothing. The
    /// bit and byte getters fail with `Truncated` at end of input, so a
    /// call that returns `Ok` has consumed input; the arithmetic decoder
    /// zero-fills past the end of its buffer, so its bins never fail and
    /// a loop over them alone can spin.
    pub bin: bool,
}

/// A bit or byte field read by a getter that fails at end of input.
const fn field(
    token: &'static str,
    reader: &'static str,
    writer: &'static str,
    yields: Yield,
) -> Primitive {
    Primitive {
        token,
        reader,
        writer,
        yields,
        bin: false,
    }
}

/// A CABAC bin: `token` is the syntax-layer method, `reader`/`writer`
/// the `CabacDecoder`/`CabacEncoder` methods behind it.
const fn bin(
    token: &'static str,
    reader: &'static str,
    writer: &'static str,
    yields: Yield,
) -> Primitive {
    Primitive {
        token,
        reader,
        writer,
        yields,
        bin: true,
    }
}

/// Every wire primitive.
pub const PRIMITIVES: &[Primitive] = &[
    field("bits", "read_bits", "write_bits", Yield::Width),
    field("byte", "read_u8", "write_u8", Yield::Fixed("u8")),
    field("le16", "read_le_u16", "write_le_u16", Yield::Fixed("u16")),
    field("le32", "read_le_u32", "write_le_u32", Yield::Fixed("u32")),
    field("le64", "read_le_u64", "write_le_u64", Yield::Fixed("u64")),
    bin("bit", "decode_bit", "encode_bit", Yield::Bin { ctx: true }),
    bin(
        "bypass",
        "decode_bypass",
        "encode_bypass",
        Yield::Bin { ctx: false },
    ),
    bin(
        "bypass_bits",
        "decode_bypass_bits",
        "encode_bypass_bits",
        Yield::Width,
    ),
];

impl Primitive {
    /// Whether a call of this name reads the primitive.
    #[must_use]
    pub fn reads(&self, name: &str) -> bool {
        name == self.reader || (self.bin && name == self.token)
    }

    /// Whether a call of this name writes the primitive.
    #[must_use]
    pub fn writes(&self, name: &str) -> bool {
        name == self.writer || (self.bin && name == self.token)
    }

    /// Argument count of a reader call that has this shape; `None` for
    /// the fixed-width getters, which come as methods and as free
    /// functions over `(data, pos)`.
    #[must_use]
    pub fn reader_arity(&self) -> Option<usize> {
        match self.yields {
            Yield::Width | Yield::Bin { ctx: true } => Some(1),
            Yield::Bin { ctx: false } => Some(0),
            Yield::Fixed(_) => None,
        }
    }
}

/// The primitive read by a call of this name, if any.
#[must_use]
pub fn reader(name: &str) -> Option<&'static Primitive> {
    PRIMITIVES.iter().find(|p| p.reads(name))
}

/// Whether a call of this name consumes input whenever it returns `Ok`.
#[must_use]
pub fn consumes(name: &str) -> bool {
    reader(name).is_some_and(|p| !p.bin)
}
