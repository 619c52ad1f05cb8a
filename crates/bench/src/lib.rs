//! Support crate for the paper experiment binaries in `src/bin/*`.
pub mod harness;
