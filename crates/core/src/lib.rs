#![warn(missing_docs)]
//! The paper's primary contribution: counterexample-guided synthesis of
//! loop summaries over the gadget vocabulary, with bounded equivalence
//! checking lifted to all string lengths by the small-model theorems of §3.
//!
//! Pipeline (§2):
//!
//! 1. Extract a loop as a `char* loopFunction(char*)` IR function
//!    (`strsum-cfront`).
//! 2. Check memorylessness on strings of length ≤ 3 ([`memoryless`]).
//! 3. Run CEGIS ([`cegis`], Algorithm 2): find program bytes consistent
//!    with all counterexamples so far (a bit-vector query over the
//!    symbolic-program interpreter encoding), then verify bounded
//!    equivalence against the loop on all strings of length ≤
//!    `max_ex_size` (a validity query combining the loop's symbolic paths
//!    with the program's guarded outcomes); a failed check yields a new
//!    counterexample.
//! 4. §3's Memoryless Truncate/Squeeze/Equivalence theorems ([`theory`])
//!    justify stopping at length 3.
//!
//! # Example
//!
//! ```
//! use strsum_core::{synthesize, SynthesisConfig};
//!
//! let func = strsum_cfront::compile_one(
//!     "char* f(char* s) { while (*s == ' ' || *s == '\\t') s++; return s; }",
//! ).unwrap();
//! let result = synthesize(&func, &SynthesisConfig::default());
//! let prog = result.program.expect("synthesises");
//! // Behaves as `return s + strspn(s, " \t");` on all strings:
//! use strsum_gadgets::interp::{run_bytes, Outcome};
//! assert_eq!(run_bytes(&prog.encode(), Some(b"  \tword")), Outcome::Ptr(3));
//! assert_eq!(run_bytes(&prog.encode(), Some(b"word")), Outcome::Ptr(0));
//! ```

pub mod budget;
pub mod cegis;
pub mod deepening;
pub mod equivalence;
pub mod memoryless;
pub mod oracle;
pub mod recur;
pub mod screen;
pub mod session;
pub mod theory;
pub mod vocab;

pub use budget::{Budget, BudgetKind, CancelToken, LoopOutcome, Stop};
pub use cegis::{
    minimize, minimize_screened, minimize_with, synthesize, synthesize_with_cancel, SynthStats,
    SynthesisConfig, SynthesisResult,
};
pub use deepening::{synthesize_deepening, DeepeningConfig};
pub use equivalence::{check_equivalence, verify_summary, EquivalenceResult};
pub use memoryless::{check_memoryless, Direction, MemorylessReport};
pub use oracle::{LoopOracle, OracleOutcome};
pub use recur::{
    summarize_loop, verify_closed_form, CfValue, ClosedForm, SummarizeResult, Summary, SummaryKind,
    CLOSED_FORM_TAG,
};
pub use screen::{loop_alphabet, loop_fingerprint, ConcreteScreen, ScreenStats, ScreenVerdict};
pub use session::{SolverTelemetry, SynthSession};
pub use theory::{MemorylessSpec, OffsetSpec};
pub use vocab::Vocab;
