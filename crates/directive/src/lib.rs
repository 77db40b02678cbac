//! `lp-directive` — directive-based programming support for GPU Lazy
//! Persistency (§VI of the paper).
//!
//! The paper proposes two pragmas a programmer adds to an otherwise
//! unmodified CUDA program:
//!
//! ```text
//! #pragma nvm lpcuda_init(checksum_tab_id, nelems, selem)        // host side
//! #pragma nvm lpcuda_checksum(type, checksum_tab_id, key1, ...)  // kernel side
//! ```
//!
//! This crate is the compiler front end that consumes them: a lexer and a
//! lightweight parser for the CUDA subset the pragmas interact with, a
//! semantic pass that turns the pragmas into an [`plan::LpPlan`], a
//! backward **program slice** (§VI cites slicing to reconstruct the
//! protected store's address computation), and three code generators:
//!
//! 1. the *instrumented kernel* — checksum reset, per-store update, block
//!    reduction, checksum-table store (what Listing 2 adds by hand);
//! 2. the *check-and-recovery kernel* (Listing 7) — recomputes the
//!    protected locations from the slice, validates against the table and
//!    re-invokes the recovery function on mismatch;
//! 3. the *host initialisation call* replacing `lpcuda_init`.
//!
//! Old compilers ignore unknown pragmas, so annotated sources still build
//! unchanged — the property the paper leans on for portability. The same
//! holds here: [`compile`] on a pragma-free source is the identity.
//!
//! # Example
//!
//! ```
//! let src = r#"
//! __global__ void scale(float *out, float *in, int n) {
//!     int i = blockIdx.x * blockDim.x + threadIdx.x;
//!     float v = in[i] * 2.0f;
//! #pragma nvm lpcuda_checksum(+, tab, blockIdx.x)
//!     out[i] = v;
//! }
//! "#;
//! let out = lp_directive::compile(src).unwrap();
//! assert_eq!(out.plans.len(), 1);
//! assert!(out.instrumented.contains("lpcuda_update_checksum"));
//! assert!(out.recovery_kernels[0].source.contains("crscale"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod codegen;
pub mod error;
pub mod fixtures;
pub mod kernel_scan;
pub mod lexer;
pub mod lint;
pub mod plan;
pub mod pragma;
pub mod slice;

mod compile_impl;
mod suggest;

pub use compile_impl::{compile, CompiledLp, RecoveryKernel};
pub use error::{apply_fixes, CompileError, Diagnostic, Edit, Span, Suggestion};
pub use lint::lint;
pub use plan::{ChecksumOp, LpPlan};
