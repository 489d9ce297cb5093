//! One use of each item the workspace `clippy.toml` bans, and nothing
//! else. Clippy run with that config must reject this crate with exactly
//! one `use of a disallowed …` error per config entry:
//!
//! ```text
//! CLIPPY_CONF_DIR=$PWD cargo clippy --offline \
//!     --manifest-path crates/xtask/tests/fixtures/hazards/Cargo.toml \
//!     --target-dir target/hazards -- -D warnings
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

pub fn hash_map() -> usize {
    std::collections::HashMap::<u8, u8>::new().len()
}

pub fn hash_set() -> usize {
    std::collections::HashSet::<u8>::new().len()
}

pub fn random_state() -> std::hash::RandomState {
    Default::default()
}

pub fn default_hasher() -> std::hash::DefaultHasher {
    Default::default()
}

pub fn instant() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

pub fn system_time() -> bool {
    std::time::SystemTime::now().elapsed().is_ok()
}

pub fn mutex() -> u8 {
    std::sync::Mutex::new(1u8).into_inner().unwrap_or(0)
}

pub fn rw_lock() -> u8 {
    std::sync::RwLock::new(1u8).into_inner().unwrap_or(0)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn thread_spawn() -> bool {
    std::thread::spawn(|| 1).join().is_ok()
}

pub fn builder_spawn() -> bool {
    std::thread::Builder::new().spawn(|| 1).is_ok()
}

pub fn builder_spawn_scoped() -> bool {
    std::thread::scope(|s| std::thread::Builder::new().spawn_scoped(s, || 1).is_ok())
}

pub fn scope_spawn() -> bool {
    std::thread::scope(|s| s.spawn(|| 1).join().is_ok())
}

pub fn atomic_usize_load() -> usize {
    AtomicUsize::new(1).load(Ordering::Relaxed)
}

pub fn atomic_u64_load() -> u64 {
    AtomicU64::new(1).load(Ordering::Relaxed)
}

pub fn atomic_bool_load() -> bool {
    AtomicBool::new(true).load(Ordering::Relaxed)
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub fn x86_feature_detected() -> bool {
    is_x86_feature_detected!("avx2")
}
