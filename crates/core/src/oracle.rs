//! The `Original(·)` oracle of Algorithm 2: concrete execution of the
//! extracted loop function, with outcomes in the summary domain.

use std::collections::HashMap;
use strsum_gadgets::symbolic::{
    INVALID_SENTINEL, INVALID_SENTINEL8, NULL_SENTINEL, NULL_SENTINEL8,
};
use strsum_ir::interp::{run_loop_function, run_loop_function_null};
use strsum_ir::Func;

/// Outcome of running the original loop on one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleOutcome {
    /// Returned `input + offset`.
    Ptr(usize),
    /// Returned NULL.
    Null,
    /// Execution faulted (out-of-bounds read, null deref, non-termination,
    /// foreign pointer) — an *unsafe* execution in the sense of §3.
    Unsafe,
}

impl OracleOutcome {
    /// Encodes as the 64-bit sentinel domain shared with the gadget
    /// interpreter encodings.
    pub fn encode(self) -> u64 {
        match self {
            OracleOutcome::Ptr(o) => o as u64,
            OracleOutcome::Null => NULL_SENTINEL,
            OracleOutcome::Unsafe => INVALID_SENTINEL,
        }
    }

    /// Encodes into the 8-bit circuit domain used during candidate search.
    pub fn encode8(self) -> u64 {
        match self {
            OracleOutcome::Ptr(o) => o as u64,
            OracleOutcome::Null => NULL_SENTINEL8,
            OracleOutcome::Unsafe => INVALID_SENTINEL8,
        }
    }

    /// The outcome recorded as `value` in a loop signature
    /// ([`strsum_symex::loop_signature`]), which [`LoopOracle::run`]
    /// would compute for the same input: a NULL return, an unsafe run, an
    /// integer return (unsafe here: a memoryless loop returns a pointer)
    /// or an offset into the untouched input. `None` for a pointer into a
    /// rewritten buffer, whose offset the signature hashes away.
    pub fn from_signature(value: u64) -> Option<OracleOutcome> {
        match value {
            NULL_SENTINEL => Some(OracleOutcome::Null),
            strsum_symex::UNSAFE_SENTINEL => Some(OracleOutcome::Unsafe),
            v if v & strsum_symex::MEM_TAG != 0 => None,
            v if v & strsum_symex::INT_TAG != 0 => Some(OracleOutcome::Unsafe),
            v => Some(OracleOutcome::Ptr(v as usize)),
        }
    }

    /// Converts a gadget-interpreter outcome into the same domain.
    pub fn from_gadget(o: strsum_gadgets::Outcome) -> OracleOutcome {
        match o {
            strsum_gadgets::Outcome::Ptr(p) => OracleOutcome::Ptr(p),
            strsum_gadgets::Outcome::Null => OracleOutcome::Null,
            strsum_gadgets::Outcome::Invalid => OracleOutcome::Unsafe,
        }
    }
}

/// A memoising oracle around one loop function.
#[derive(Debug)]
pub struct LoopOracle<'a> {
    func: &'a Func,
    cache: HashMap<Option<Vec<u8>>, OracleOutcome>,
}

impl<'a> LoopOracle<'a> {
    /// Creates an oracle for `func` (shape `char* f(char*)`).
    pub fn new(func: &'a Func) -> LoopOracle<'a> {
        LoopOracle {
            func,
            cache: HashMap::new(),
        }
    }

    /// The wrapped function.
    pub fn func(&self) -> &'a Func {
        self.func
    }

    /// Runs the loop on `input` (`None` = NULL pointer).
    pub fn run(&mut self, input: Option<&[u8]>) -> OracleOutcome {
        let key: Option<Vec<u8>> = input.map(<[u8]>::to_vec);
        if let Some(&o) = self.cache.get(&key) {
            return o;
        }
        let outcome = match input {
            None => match run_loop_function_null(self.func) {
                Ok(None) => OracleOutcome::Null,
                Ok(Some(_)) | Err(_) => OracleOutcome::Unsafe,
            },
            Some(s) => match run_loop_function(self.func, s) {
                Ok(None) => OracleOutcome::Null,
                Ok(Some(off)) if off >= 0 && (off as usize) <= s.len() => {
                    OracleOutcome::Ptr(off as usize)
                }
                // Pointers outside [s, s+len] cannot come from a memoryless
                // loop; treat as unsafe.
                Ok(Some(_)) => OracleOutcome::Unsafe,
                Err(_) => OracleOutcome::Unsafe,
            },
        };
        self.cache.insert(key, outcome);
        outcome
    }

    /// Whether the loop tolerates a NULL input (returns NULL rather than
    /// faulting). Loops without a `p && …` guard are excluded from NULL
    /// equivalence checking, mirroring the paper's safe-execution notion.
    pub fn null_safe(&mut self) -> bool {
        self.run(None) != OracleOutcome::Unsafe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsum_cfront::compile_one;

    #[test]
    fn oracle_outcomes() {
        let f =
            compile_one("char* f(char* s) { if (!s) return s; while (*s == ' ') s++; return s; }")
                .unwrap();
        let mut o = LoopOracle::new(&f);
        assert_eq!(o.run(Some(b"  x")), OracleOutcome::Ptr(2));
        assert_eq!(o.run(None), OracleOutcome::Null);
        assert!(o.null_safe());
    }

    #[test]
    fn unsafe_null() {
        let f = compile_one("char* f(char* s) { while (*s == ' ') s++; return s; }").unwrap();
        let mut o = LoopOracle::new(&f);
        assert_eq!(o.run(None), OracleOutcome::Unsafe);
        assert!(!o.null_safe());
    }

    #[test]
    fn encode_domain() {
        assert_eq!(OracleOutcome::Ptr(3).encode(), 3);
        assert_eq!(OracleOutcome::Null.encode(), NULL_SENTINEL);
        assert_eq!(OracleOutcome::Unsafe.encode(), INVALID_SENTINEL);
    }
}
