// Seeded input makers and hand-written reference implementations for the
// twelve tests/corpus/*.nsc programs.
//
// Every maker respects its program's precondition (sorted inputs for
// merge_sorted, a few sorted distinct edges for histogram, digit-and-space
// text for tokenizer, non-empty segments for trap_division unless a trap
// is asked for), so that no generated request fails except where the
// benchmark wants the trap path.  The references recompute each program's
// result directly in C++; they check full-size results where the NSC
// evaluator would be too slow, and are themselves checked against the
// evaluator on down-sized twins of the same inputs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "object/value.hpp"
#include "support/prng.hpp"

namespace perfbench {

/// Names of the corpus programs the makers know, in file-name order.
const std::vector<std::string>& corpus_programs();

/// A seeded input of about `n` elements for `program`.  `trap` asks
/// trap_division for a segment list with one empty segment (an Omega in
/// the evaluator and the compiled program alike); every other program
/// ignores it.
nsc::ValueRef make_input(const std::string& program, std::size_t n,
                         nsc::SplitMix64& rng, bool trap = false);

/// The size at which one serial run of `program` takes milliseconds to
/// tens of milliseconds (run_large).  Programs whose work grows with the
/// product of two input parts (merge_sorted, nested_join, histogram) get
/// smaller sizes than the linear ones.
std::size_t large_size(const std::string& program);

/// The program's result computed directly in C++.  Throws nsc::EvalError
/// where the program traps (trap_division on an empty segment).
nsc::ValueRef reference(const std::string& program, const nsc::ValueRef& arg);

}  // namespace perfbench
