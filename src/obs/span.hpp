// RAII phase spans: wall-time per pipeline stage, with nesting.
//
//   obs::Span span{"simulate"};          // inside Span{"run.pplive"}
//
// records one sample under the path "run.pplive/simulate" when the
// scope exits. Nesting is tracked per thread (a pool task never
// migrates mid-span), so span paths — and their counts — are
// deterministic for a fixed seed at any worker count; only the
// recorded durations vary run to run. When a TraceRecorder is
// installed (trace.hpp) the same scope additionally emits a
// begin/end event pair carrying the full path, timestamping the span
// on the trace timeline. With neither a registry nor a tracer
// installed a Span costs two relaxed loads and records nothing.
#pragma once

#include <chrono>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace peerscope::obs {

class TraceRecorder;

class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  MetricsRegistry* registry_ = nullptr;
  TraceRecorder* tracer_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace peerscope::obs

#define PEERSCOPE_SPAN_CONCAT2(a, b) a##b
#define PEERSCOPE_SPAN_CONCAT(a, b) PEERSCOPE_SPAN_CONCAT2(a, b)
/// Named RAII span for the rest of the enclosing scope.
#define PEERSCOPE_SPAN(name) \
  ::peerscope::obs::Span PEERSCOPE_SPAN_CONCAT(ps_span_, __LINE__) { name }
