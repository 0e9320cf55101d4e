//! Bounded *concrete* evaluation of a loop function — the cheap
//! counterpart of [`crate::Engine::run_on_symbolic_string`].
//!
//! The concrete-first synthesis pipeline needs the loop's behaviour over a
//! small, fixed input grid twice: once to screen candidate programs without
//! any solver work, and once to key the cross-loop summary store by a
//! *semantic fingerprint* (two loops that agree on the whole grid almost
//! certainly agree everywhere, and a cache hit is re-verified by the
//! bounded checker anyway, so fingerprint collisions cost only wasted
//! work, never soundness).
//!
//! Outcomes are encoded in the same 64-bit sentinel domain the symbolic
//! engine uses ([`crate::engine::NULL_SENTINEL`]), with unsafe executions
//! mapped to [`UNSAFE_SENTINEL`].

use crate::engine::NULL_SENTINEL;
use strsum_ir::interp::{Interp, Memory};
use strsum_ir::{Func, RtVal};

/// 64-bit sentinel for an unsafe execution (out-of-bounds read, NULL
/// dereference, non-termination budget, foreign pointer). Matches
/// `strsum_gadgets::symbolic::INVALID_SENTINEL`.
pub const UNSAFE_SENTINEL: u64 = 0xffff_ffff_ffff_fff3;

/// Tag bit for integer-return outcomes. Offsets are bounded by the grid
/// string length and sentinels have bit 63 set, so `[2^62, 2^63)` is
/// free for the accumulator lane's outcome domain.
pub const INT_TAG: u64 = 1 << 62;

/// Tag bit for mutated-memory (builder) outcomes: bit 63 set, bit 62
/// clear, so the range `[2^63, 2^63 + 2^62)` is disjoint from offsets,
/// integer outcomes, and the (high-bits-saturated) sentinels.
pub const MEM_TAG: u64 = 1 << 63;

/// Payload bits available under either tag.
const PAYLOAD_MASK: u64 = (1 << 62) - 1;

/// Multiplicative mixer (the 64-bit golden-ratio constant): spreads
/// small accumulator values across the payload bits so nearby results
/// don't collide after masking.
fn mix(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// FNV-1a over a byte buffer — the mutated-memory digest.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `func` concretely on `input` (`None` models a NULL `char*`) and
/// encodes the result:
///
/// - a pointer `input + o` with the buffer untouched as `o` — the
///   legacy memoryless encoding, byte-identical to every fingerprint
///   computed before the recurrence lane existed;
/// - a NULL return as [`NULL_SENTINEL`];
/// - an integer return `v` in the [`INT_TAG`] domain (mixed with the
///   return type's width, and folded with the buffer digest if the loop
///   also wrote memory);
/// - a pointer return over a *mutated* buffer in the [`MEM_TAG`] domain
///   (offset mixed with the final buffer contents — the builder lane);
/// - anything unsafe as [`UNSAFE_SENTINEL`].
///
/// The domains are pairwise disjoint, so an accumulator loop can never
/// collide with a scan, a builder, or a sentinel on any grid string.
pub fn concrete_outcome(func: &Func, input: Option<&[u8]>) -> u64 {
    let mut mem = Memory::new();
    let (arg, obj) = match input {
        None => (RtVal::Null, None),
        Some(s) => {
            let obj = mem.alloc_cstr(s);
            (RtVal::Ptr { obj, off: 0 }, Some(obj))
        }
    };
    let ret = match Interp::new(func, &mut mem).run(&[arg]) {
        Ok(Some(v)) => v,
        Ok(None) | Err(_) => return UNSAFE_SENTINEL,
    };
    // Did the loop rewrite its input? (NULL input allocates nothing, so
    // a NULL-guarded early return is never flagged as mutation.)
    let mutated = match (obj, input) {
        (Some(obj), Some(s)) => {
            let bytes = mem.bytes(obj);
            bytes.len() != s.len() + 1 || &bytes[..s.len()] != s || bytes[s.len()] != 0
        }
        _ => false,
    };
    match ret {
        RtVal::Null => NULL_SENTINEL,
        RtVal::Int(v) => {
            // The return width is part of the function: an `int` and a
            // `long` counter agree on every grid string yet overflow
            // differently, and no summary of one verifies for the other.
            let width = func.ret_ty.map_or(0, |t| u64::from(t.bits()));
            let mut payload = mix(v as u64) ^ mix(width);
            if let (true, Some(obj)) = (mutated, obj) {
                payload ^= fnv(mem.bytes(obj));
            }
            INT_TAG | (payload & PAYLOAD_MASK)
        }
        RtVal::Ptr { obj: o, off } => {
            let Some(obj) = obj else {
                return UNSAFE_SENTINEL; // pointer return on NULL input
            };
            let len = input.map(<[u8]>::len).unwrap_or(0);
            if o != obj || off < 0 || off as usize > len {
                return UNSAFE_SENTINEL; // foreign or out-of-range pointer
            }
            if mutated {
                let payload = mix(off as u64).wrapping_add(fnv(mem.bytes(obj)));
                MEM_TAG | (payload & PAYLOAD_MASK)
            } else {
                off as u64
            }
        }
    }
}

/// Every string of length ≤ `max_len` over `alphabet`, in breadth-first
/// (shortest-first, alphabet-order) order — the small-model input grid.
///
/// The order is a pure function of the arguments, so signatures computed
/// from the same alphabet are comparable across loops and across runs.
pub fn bounded_strings(alphabet: &[u8], max_len: usize) -> Vec<Vec<u8>> {
    debug_assert!(!alphabet.contains(&0), "grid strings must be NUL-free");
    let mut out: Vec<Vec<u8>> = vec![Vec::new()];
    let mut start = 0;
    for _ in 0..max_len {
        let end = out.len();
        for i in start..end {
            for &c in alphabet {
                let mut s = out[i].clone();
                s.push(c);
                out.push(s);
            }
        }
        start = end;
    }
    out
}

/// The loop's semantic fingerprint: its encoded outcome on the NULL input
/// followed by its outcome on every grid string from
/// [`bounded_strings`]`(alphabet, max_len)`.
///
/// Two loops that are semantically identical up to renaming produce the
/// same alphabet (their compared-against constants) and therefore the same
/// signature; the converse does not hold, which is why cache hits keyed on
/// this signature must always be re-verified.
pub fn loop_signature(func: &Func, alphabet: &[u8], max_len: usize) -> Vec<u64> {
    let mut sig = Vec::with_capacity(1 + alphabet.len().pow(max_len as u32));
    sig.push(concrete_outcome(func, None));
    for s in bounded_strings(alphabet, max_len) {
        sig.push(concrete_outcome(func, Some(&s)));
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsum_cfront::compile_one;

    #[test]
    fn outcome_encoding() {
        let f = compile_one("char* f(char* s) { while (*s == ' ') s++; return s; }").unwrap();
        assert_eq!(concrete_outcome(&f, Some(b"  x")), 2);
        assert_eq!(concrete_outcome(&f, None), UNSAFE_SENTINEL);
        let g = compile_one("char* f(char* s) { if (!s) return s; return s; }").unwrap();
        assert_eq!(concrete_outcome(&g, None), NULL_SENTINEL);
    }

    #[test]
    fn grid_is_shortest_first_and_complete() {
        let grid = bounded_strings(b"ab", 2);
        assert_eq!(
            grid,
            vec![
                b"".to_vec(),
                b"a".to_vec(),
                b"b".to_vec(),
                b"aa".to_vec(),
                b"ab".to_vec(),
                b"ba".to_vec(),
                b"bb".to_vec(),
            ]
        );
    }

    #[test]
    fn stateful_outcomes_live_in_disjoint_domains() {
        // Accumulator: integer return, INT_TAG domain.
        let count = compile_one(
            "int f(char* s) { int n = 0; while (*s) { n = n + 1; s = s + 1; } return n; }",
        )
        .unwrap();
        let sum = compile_one(
            "int f(char* s) { int t = 0; while (*s) { t = t + *s; s = s + 1; } return t; }",
        )
        .unwrap();
        // Builder: in-place rewrite, MEM_TAG domain.
        let lower = compile_one(
            "char* f(char* s) { while (*s) { *s = tolower(*s); s = s + 1; } return s; }",
        )
        .unwrap();
        // Memoryless scan: legacy offset domain, untouched.
        let scan = compile_one("char* f(char* s) { while (*s == ' ') s++; return s; }").unwrap();

        let c = concrete_outcome(&count, Some(b"ab"));
        let t = concrete_outcome(&sum, Some(b"ab"));
        assert_eq!(c & MEM_TAG, 0);
        assert_ne!(c & INT_TAG, 0, "integer returns are tagged");
        assert_ne!(c, t, "different accumulators, different outcomes");
        assert_eq!(
            c,
            concrete_outcome(&count, Some(b"xy")),
            "same count, same outcome"
        );

        let m = concrete_outcome(&lower, Some(b"AB"));
        assert_ne!(m & MEM_TAG, 0, "mutations are tagged");
        assert_eq!(m & INT_TAG, 0, "builder domain is disjoint from INT_TAG");
        assert_ne!(
            m,
            concrete_outcome(&lower, Some(b"CD")),
            "different rewrites, different outcomes"
        );

        // The legacy ptr encoding is byte-identical: a memoryless loop
        // still fingerprints as the plain returned offset.
        assert_eq!(concrete_outcome(&scan, Some(b"  x")), 2);
        for outcome in [c, t, m] {
            assert_ne!(outcome, UNSAFE_SENTINEL);
            assert_ne!(outcome, NULL_SENTINEL);
            assert!(outcome > 96, "never collides with a grid offset");
        }
    }

    #[test]
    fn integer_return_width_separates_outcomes() {
        let int_count = compile_one(
            "int f(char* s) { int n = 0; while (*s) { n = n + 1; s = s + 1; } return n; }",
        )
        .unwrap();
        let long_count = compile_one(
            "long f(char* s) { long n = 0; while (*s) { n = n + 1; s = s + 1; } return n; }",
        )
        .unwrap();
        for input in [&b""[..], b"a", b"abc"] {
            let i = concrete_outcome(&int_count, Some(input));
            let l = concrete_outcome(&long_count, Some(input));
            assert_ne!(i & INT_TAG, 0);
            assert_ne!(l & INT_TAG, 0);
            assert_ne!(i, l, "same count, different widths: {input:?}");
        }
    }

    #[test]
    fn renamed_loops_share_a_signature() {
        let a = compile_one("char* f(char* s) { while (*s == ' ') s++; return s; }").unwrap();
        let b = compile_one("char* g(char* line) { while (*line == ' ') line++; return line; }")
            .unwrap();
        let c = compile_one("char* f(char* s) { while (*s == ':') s++; return s; }").unwrap();
        let alpha = b" :x";
        assert_eq!(loop_signature(&a, alpha, 3), loop_signature(&b, alpha, 3));
        assert_ne!(loop_signature(&a, alpha, 3), loop_signature(&c, alpha, 3));
    }
}
