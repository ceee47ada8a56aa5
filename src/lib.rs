//! # skelcl-suite — workspace umbrella
//!
//! This package exists to own the workspace-level artefacts:
//!
//! * the cross-crate integration tests in `tests/` (the paper's listings and
//!   figures exercised end to end),
//! * the runnable examples in `examples/` (`cargo run --example quickstart`).
//!
//! The library itself only re-exports the member crates for convenience in
//! those tests and examples.

pub use dopencl;
pub use mandelbrot;
pub use oclsim;
pub use osem;
pub use skelcl;
