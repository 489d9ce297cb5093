//! Encoder half of the dirty fixture.

/// Wire-schema (pairing): writes a syntax element no reader parses.
pub fn write_ghost() {}

/// Wire-schema: writes the probe gap, then the terminator bit. The
/// reader in `decoder.rs` parses them in the opposite order — the
/// exp-Golomb-terminator desync shape — so the duality prover fires.
pub fn code_probe_mark<S: BinSink>(sink: &mut S, gap: u64) {
    sink.bypass_bits(gap, 4);
    sink.bypass(false);
}

/// Quiet twin: `parse_probe_quiet` reads these fields in matching
/// order, so the pair proves dual.
pub fn code_probe_quiet<S: BinSink>(sink: &mut S, gap: u64) {
    sink.bypass_bits(gap, 4);
    sink.bypass(false);
}
