//===- perfbench/src/Trace.h - Benchmark-side span recorder -------*- C++ -*-===//
//
// Spans recorded by the benchmark's own code around its calls into each
// teapot layer (compile, rewrite, target build, execute, Scanner::run and
// its epochs, the host probe). Spans live in memory and are written once,
// at the end, as a Chrome Trace Event file; selfTimeByLayer() gives each
// layer's self time (a span's duration minus the part its children
// cover). A disabled tracer records nothing, so untraced runs pay one
// branch per span.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  using Clock = std::chrono::steady_clock;

  struct SpanRec {
    std::string Name;
    std::string Layer;
    double StartUs = 0;
    double DurUs = 0;
    int Parent = -1; // index into spans(), -1 for a root
    bool Synthesized = false; // placed from a reported duration
  };

  /// Recording is on only while enabled; spans already recorded stay.
  bool Enabled = false;

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int open(std::string Name, std::string Layer);
  /// Closes span \p Id (no-op for -1).
  void close(int Id);
  /// Records an already-finished child of the innermost open span from a
  /// duration the program reported (per-pass rewrite times), placed right
  /// after the parent's previous synthesized child.
  void addReported(std::string Name, std::string Layer, double Seconds);
  /// Records a finished span with explicit bounds under the innermost
  /// open span (epochs, reported from the campaign thread's callback).
  void addFinished(std::string Name, std::string Layer, Clock::time_point B,
                   Clock::time_point E);

  const std::vector<SpanRec> &spans() const { return Spans; }
  /// Self time per layer, in milliseconds, over spans recorded since
  /// index \p From.
  std::map<std::string, double> selfTimeByLayer(size_t From = 0) const;
  /// Writes the Chrome Trace Event JSON ("traceEvents" array of complete
  /// "X" events) to \p Path. Returns false on an I/O error.
  bool writeChromeTrace(const std::string &Path) const;

private:
  double nowUs(Clock::time_point T) const;

  Clock::time_point Origin = Clock::now();
  std::vector<SpanRec> Spans;
  std::vector<int> Stack;
  std::map<int, double> NextChildUs; // synthesized-child cursor per parent
};

/// RAII span: opens on construction, closes on destruction.
class Span {
public:
  Span(Tracer &T, std::string Name, std::string Layer)
      : T(T), Id(T.open(std::move(Name), std::move(Layer))) {}
  ~Span() { T.close(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  int Id;
};

} // namespace perfbench

#endif
