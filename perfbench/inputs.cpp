#include "inputs.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "support/checked.hpp"
#include "support/error.hpp"

namespace perfbench {

using nsc::SplitMix64;
using nsc::Value;
using nsc::ValueRef;
using Nats = std::vector<std::uint64_t>;

namespace {

std::size_t isqrt_at_least_1(std::size_t n) {
  std::size_t r = 1;
  while ((r + 1) * (r + 1) <= n) ++r;
  return r;
}

Nats sorted_nats(std::size_t n, std::uint64_t bound, SplitMix64& rng) {
  Nats v = rng.vec(n, bound);
  std::sort(v.begin(), v.end());
  return v;
}

/// A ragged [[nat]] of about n elements: isqrt(n) segments whose lengths
/// are uniform in [min_len, 2 * isqrt(n)].
ValueRef ragged(std::size_t n, std::size_t min_len, std::uint64_t bound,
                SplitMix64& rng) {
  const std::size_t r = isqrt_at_least_1(n);
  std::vector<ValueRef> segs;
  segs.reserve(r);
  for (std::size_t i = 0; i < r; ++i) {
    segs.push_back(Value::nat_seq(rng.vec(rng.between(min_len, 2 * r), bound)));
  }
  return Value::seq(std::move(segs));
}

/// Key/value rows with keys below `keys`.
ValueRef rows(std::size_t n, std::uint64_t keys, SplitMix64& rng) {
  std::vector<ValueRef> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ValueRef k = Value::nat(rng.below(keys));
    out.push_back(Value::pair(std::move(k), Value::nat(rng.below(1024))));
  }
  return Value::seq(std::move(out));
}

ValueRef nat_pairs(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ps) {
  std::vector<ValueRef> out;
  out.reserve(ps.size());
  for (const auto& [a, b] : ps) {
    out.push_back(Value::pair(Value::nat(a), Value::nat(b)));
  }
  return Value::seq(std::move(out));
}

std::uint64_t sum_of(const Nats& v) {
  std::uint64_t s = 0;
  for (const std::uint64_t x : v) s = nsc::sat_add(s, x);
  return s;
}

}  // namespace

const std::vector<std::string>& corpus_programs() {
  static const std::vector<std::string> names = {
      "countdown",   "divide_conquer", "histogram",
      "merge_sorted", "nested_join",   "nested_query",
      "quickstart",  "segmented_filter_reduce", "sqrt_blocks",
      "stragglers",  "tokenizer",      "trap_division"};
  return names;
}

ValueRef make_input(const std::string& program, std::size_t n,
                    SplitMix64& rng, bool trap) {
  n = std::max<std::size_t>(n, 4);
  if (program == "countdown") {
    // Trip counts below 32.  The lifted while runs as long as the largest,
    // so one element is always 31: every seed asks for the same T.
    Nats v = rng.vec(n, 32);
    v[rng.below(n)] = 31;
    return Value::nat_seq(v);
  }
  if (program == "divide_conquer" || program == "sqrt_blocks") {
    return Value::nat_seq(rng.vec(n, 1024));
  }
  if (program == "histogram") {
    // A few sorted, distinct left edges starting at 0.
    const std::size_t k = n < 64 ? 4 : 8;
    Nats edges = {0};
    while (edges.size() < k) {
      const std::uint64_t e = rng.between(1, 1023);
      if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
        edges.push_back(e);
      }
    }
    std::sort(edges.begin(), edges.end());
    ValueRef xs = Value::nat_seq(rng.vec(n, 1024));
    return Value::pair(std::move(xs), Value::nat_seq(edges));
  }
  if (program == "merge_sorted") {
    ValueRef a = Value::nat_seq(sorted_nats(n / 2, 1024, rng));
    return Value::pair(std::move(a), Value::nat_seq(sorted_nats(n - n / 2, 1024, rng)));
  }
  if (program == "nested_join") {
    // About four matches per row of R.
    const std::uint64_t keys = std::max<std::uint64_t>(2, n / 8);
    ValueRef r = rows(n / 2, keys, rng);
    return Value::pair(std::move(r), rows(n - n / 2, keys, rng));
  }
  if (program == "nested_query") {
    return ragged(n, 0, 100, rng);
  }
  if (program == "quickstart") {
    return Value::nat_seq(rng.vec(n, 20));
  }
  if (program == "segmented_filter_reduce") {
    ValueRef db = ragged(n, 0, 100, rng);
    return Value::pair(std::move(db), Value::nat(50));
  }
  if (program == "stragglers") {
    // Collatz orbits below 1000 take at most 178 steps, from 871; one
    // element is always 871, so the lifted loop runs 178 rounds.
    Nats v = rng.vec(n, 999);
    for (auto& x : v) x += 1;
    v[rng.below(n)] = 871;
    return Value::nat_seq(v);
  }
  if (program == "tokenizer") {
    // Digit-and-space text: tokens of 1..4 digits separated by 1..2
    // spaces.  Random codes would make tokens ~1000 characters long and
    // the per-token parse loop as deep.
    // The first token has 4 digits, so the parse loop is 4 deep for
    // every seed.
    Nats s;
    s.reserve(n + 8);
    while (s.size() < n) {
      const std::uint64_t digits = s.empty() ? 4 : rng.between(1, 4);
      for (std::uint64_t d = 0; d < digits; ++d) s.push_back(48 + rng.below(10));
      const std::uint64_t spaces = rng.between(1, 2);
      for (std::uint64_t d = 0; d < spaces; ++d) s.push_back(32);
    }
    return Value::nat_seq(s);
  }
  if (program == "trap_division") {
    ValueRef db = ragged(n, 1, 1024, rng);
    if (!trap) return db;
    std::vector<ValueRef> segs = db->elems();
    segs[rng.below(segs.size())] = Value::empty_seq();
    return Value::seq(std::move(segs));
  }
  throw std::invalid_argument("no input maker for program " + program);
}

std::size_t large_size(const std::string& program) {
  static const std::map<std::string, std::size_t> sizes = {
      {"countdown", 3000},     {"divide_conquer", 50000},
      {"histogram", 1000},     {"merge_sorted", 400},
      {"nested_join", 400},    {"nested_query", 10000},
      {"quickstart", 40000},   {"segmented_filter_reduce", 10000},
      {"sqrt_blocks", 4000},   {"stragglers", 500},
      {"tokenizer", 10000},    {"trap_division", 10000}};
  return sizes.at(program);
}

ValueRef reference(const std::string& program, const ValueRef& arg) {
  if (program == "countdown") {
    return Value::nat_seq(Nats(arg->length(), 0));
  }
  if (program == "divide_conquer") {
    return Value::nat(sum_of(arg->as_nat_vector()));
  }
  if (program == "histogram") {
    const Nats xs = arg->first()->as_nat_vector();
    const Nats edges = arg->second()->as_nat_vector();
    Nats counts(edges.size(), 0);
    for (const std::uint64_t x : xs) {
      std::uint64_t below = 0;
      for (const std::uint64_t e : edges) below += e <= x ? 1 : 0;
      if (below >= 1 && below <= counts.size()) ++counts[below - 1];
    }
    return Value::nat_seq(counts);
  }
  if (program == "merge_sorted") {
    const Nats a = arg->first()->as_nat_vector();
    const Nats b = arg->second()->as_nat_vector();
    Nats merged(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(), merged.begin());
    Nats ranks;
    ranks.reserve(a.size());
    for (const std::uint64_t x : a) {
      ranks.push_back(static_cast<std::uint64_t>(
          std::upper_bound(b.begin(), b.end(), x) - b.begin()));
    }
    return Value::pair(Value::nat_seq(merged), Value::nat_seq(ranks));
  }
  if (program == "nested_join") {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const ValueRef& r : arg->first()->elems()) {
      for (const ValueRef& q : arg->second()->elems()) {
        if (q->first()->as_nat() == r->first()->as_nat()) {
          out.emplace_back(r->second()->as_nat(), q->second()->as_nat());
        }
      }
    }
    return nat_pairs(out);
  }
  if (program == "nested_query" || program == "segmented_filter_reduce") {
    const bool query = program == "nested_query";
    const ValueRef& db = query ? arg : arg->first();
    const std::uint64_t t = query ? 0 : arg->second()->as_nat();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const ValueRef& seg : db->elems()) {
      std::uint64_t count = 0, sum = 0;
      for (const std::uint64_t v : seg->as_nat_vector()) {
        if (query ? 50 <= v : t < v) {
          ++count;
          sum = nsc::sat_add(sum, v);
        }
      }
      if (query || count > 0) out.emplace_back(count, sum);
    }
    return nat_pairs(out);
  }
  if (program == "quickstart") {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const std::uint64_t v : arg->as_nat_vector()) {
      if (v < 10) out.emplace_back(out.size(), v * v);
    }
    return nat_pairs(out);
  }
  if (program == "sqrt_blocks") {
    const Nats xs = arg->as_nat_vector();
    const std::uint64_t n = xs.size();
    if (n == 0) return Value::pair(Value::empty_seq(), Value::empty_seq());
    std::uint64_t b = n >> ((nsc::ilog2(n) + 1) / 2);
    if (b == 0) b = 1;
    Nats maxima, positions;
    for (std::uint64_t i = 0; i < n; i += b) {
      maxima.push_back(*std::max_element(
          xs.begin() + static_cast<std::ptrdiff_t>(i),
          xs.begin() + static_cast<std::ptrdiff_t>(std::min(n, i + b))));
      positions.push_back(xs[i]);
    }
    return Value::pair(Value::nat_seq(maxima), Value::nat_seq(positions));
  }
  if (program == "stragglers") {
    Nats steps;
    for (std::uint64_t v : arg->as_nat_vector()) {
      std::uint64_t k = 0;
      while (1 < v) {
        v = v % 2 == 0 ? v / 2 : nsc::sat_add(nsc::sat_mul(3, v), 1);
        ++k;
      }
      steps.push_back(k);
    }
    return Value::nat_seq(steps);
  }
  if (program == "tokenizer") {
    Nats tokens;
    bool in_token = false;
    std::uint64_t value = 0;
    for (const std::uint64_t c : arg->as_nat_vector()) {
      if (c == 32) {
        if (in_token) tokens.push_back(value);
        in_token = false;
        value = 0;
      } else {
        in_token = true;
        value = nsc::sat_add(nsc::sat_mul(value, 10), nsc::monus(c, 48));
      }
    }
    if (in_token) tokens.push_back(value);
    return Value::nat_seq(tokens);
  }
  if (program == "trap_division") {
    Nats means;
    for (const ValueRef& seg : arg->elems()) {
      if (seg->length() == 0) throw nsc::EvalError("division by zero");
      means.push_back(sum_of(seg->as_nat_vector()) / seg->length());
    }
    return Value::nat_seq(means);
  }
  throw std::invalid_argument("no reference for program " + program);
}

}  // namespace perfbench
