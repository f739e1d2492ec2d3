#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {
// Initialized during static initialization, before main runs.
const Clock::time_point g_origin = Clock::now();
}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_origin)
          .count());
}

void Tracer::record(Span s) {
  totals_[s.name] += s.dur_ns;
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(std::move(s));
  } else {
    ++dropped_;
  }
}

std::uint64_t Tracer::total_ns(const std::string& layer) const {
  const auto it = totals_.find(layer);
  return it == totals_.end() ? 0 : it->second;
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& other_data) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"args\": {\"name\": \"benchmark\"}}";
  for (const Span& s : spans_) {
    out << ",\n{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.tid << ", \"ts\": " << static_cast<double>(s.t0_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.dur_ns) / 1e3
        << ", \"args\": {\"op\": " << s.op << "}}";
  }
  out << "\n], \"otherData\": {\"dropped_spans\": " << dropped_
      << ", \"layers\": " << other_data << "}}\n";
  if (!out.flush()) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
