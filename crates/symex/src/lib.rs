#![warn(missing_docs)]
//! A dynamic symbolic execution engine over the `strsum` IR — the stand-in
//! for KLEE in the paper's pipeline.
//!
//! The engine executes an IR function on symbolic inputs, forking at every
//! branch whose condition is not decided by the path constraints, checking
//! feasibility of each side with the bit-vector solver, and collecting one
//! [`PathResult`] per terminated path. It provides the building blocks used
//! by the paper's Algorithm 2: creating symbolic memory objects, assuming
//! constraints, concretising values against a model, checking
//! `IsAlwaysTrue`, and path merging (realised by folding path results into
//! a single if-then-else term — see `merged_return_term`).
//!
//! # Example
//!
//! ```
//! use strsum_symex::{Engine, SymOutcome};
//! use strsum_smt::TermPool;
//!
//! let func = strsum_cfront::compile_one(
//!     "char* f(char* s) { while (*s == ' ') s++; return s; }",
//! ).unwrap();
//! let mut pool = TermPool::new();
//! let mut engine = Engine::new(&mut pool);
//! let run = engine.run_on_symbolic_string(&func, 2).unwrap();
//! // Strings of length ≤ 2: "", " ", "x", "  ", " x", "x?" … → 3 return paths
//! // (0, 1, or 2 spaces skipped).
//! let offsets: Vec<_> = run
//!     .paths
//!     .iter()
//!     .filter(|p| matches!(p.outcome, SymOutcome::Ret(_)))
//!     .collect();
//! assert_eq!(offsets.len(), 3);
//! ```

pub mod concrete;
pub mod engine;
pub mod memory;
pub mod session;
pub mod value;

pub use concrete::{
    bounded_strings, concrete_outcome, loop_signature, INT_TAG, MEM_TAG, UNSAFE_SENTINEL,
};
pub use engine::{Engine, Exhaustion, PathResult, RunStats, SymOutcome, SymbolicRun};
pub use memory::{SymMemory, SymObject};
pub use session::SymbolicSession;
pub use value::SymVal;
