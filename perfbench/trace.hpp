// Spans and per-layer totals recorded by the benchmark around its calls
// into each module's public functions.  Spans stay in memory and are
// written as one Chrome trace_event file when the traced run ends; with
// tracing off the recorder takes no timestamps at all, so untraced runs
// time the calls alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the benchmark process started.
std::uint64_t now_ns();

struct Span {
  std::string name;
  std::uint64_t t0_ns = 0;  ///< since process start
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< 0 = the benchmark's main thread, k = service worker k
  std::uint64_t op = 0;   ///< the operation (compile, run, request) the span belongs to
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// The operation id stamped on spans recorded from now on.
  void begin_op(std::uint64_t op) { op_ = op; }

  /// Call f(); when tracing, record a span named `layer` around it (also
  /// when f throws).
  template <typename F>
  decltype(auto) timed(const char* layer, F&& f) {
    if (!on_) return f();
    Scope scope(*this, layer);
    return f();
  }

  /// Record a finished span and add its duration to the layer's total.
  void record(Span s);
  /// Add to a layer's total without keeping a span (per-opcode times,
  /// pass times and other durations the library reports itself).
  void add(const std::string& layer, std::uint64_t ns) { totals_[layer] += ns; }

  std::uint64_t total_ns(const std::string& layer) const;

  /// Chrome trace_event JSON of every kept span; `other_data` is a JSON
  /// object embedded as the trace's otherData (the per-layer metrics).
  void write_chrome(const std::string& path, const std::string& other_data) const;

 private:
  struct Scope {
    Scope(Tracer& t, const char* layer) : t_(t), layer_(layer), t0_(now_ns()) {}
    ~Scope() {
      Span s;
      s.name = layer_;
      s.t0_ns = t0_;
      s.dur_ns = now_ns() - t0_;
      s.op = t_.op_;
      t_.record(std::move(s));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Tracer& t_;
    const char* layer_;
    std::uint64_t t0_;
  };

  static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;

  bool on_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::map<std::string, std::uint64_t> totals_;
};

}  // namespace perfbench
