//===- perfbench/src/Trace.cpp - Benchmark-side span recorder --------------===//

#include "Trace.h"

#include "support/Json.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

double Tracer::nowUs(Clock::time_point T) const {
  return std::chrono::duration<double, std::micro>(T - Origin).count();
}

int Tracer::open(std::string Name, std::string Layer) {
  if (!Enabled)
    return -1;
  SpanRec S;
  S.Name = std::move(Name);
  S.Layer = std::move(Layer);
  S.StartUs = nowUs(Clock::now());
  S.Parent = Stack.empty() ? -1 : Stack.back();
  Spans.push_back(std::move(S));
  int Id = static_cast<int>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void Tracer::close(int Id) {
  if (Id < 0)
    return;
  SpanRec &S = Spans[static_cast<size_t>(Id)];
  S.DurUs = nowUs(Clock::now()) - S.StartUs;
  Stack.pop_back(); // Span closes in LIFO order
}

void Tracer::addReported(std::string Name, std::string Layer,
                         double Seconds) {
  if (!Enabled || Stack.empty())
    return;
  int Parent = Stack.back();
  auto [It, Fresh] = NextChildUs.try_emplace(
      Parent, Spans[static_cast<size_t>(Parent)].StartUs);
  SpanRec S;
  S.Name = std::move(Name);
  S.Layer = std::move(Layer);
  S.StartUs = It->second;
  S.DurUs = Seconds * 1e6;
  S.Parent = Parent;
  S.Synthesized = true;
  It->second += S.DurUs;
  Spans.push_back(std::move(S));
}

void Tracer::addFinished(std::string Name, std::string Layer,
                         Clock::time_point B, Clock::time_point E) {
  if (!Enabled)
    return;
  SpanRec S;
  S.Name = std::move(Name);
  S.Layer = std::move(Layer);
  S.StartUs = nowUs(B);
  S.DurUs = nowUs(E) - S.StartUs;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  Spans.push_back(std::move(S));
}

std::map<std::string, double> Tracer::selfTimeByLayer(size_t From) const {
  std::vector<double> ChildUs(Spans.size(), 0);
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      ChildUs[static_cast<size_t>(Spans[I].Parent)] += Spans[I].DurUs;
  std::map<std::string, double> Ms;
  for (size_t I = From; I < Spans.size(); ++I)
    Ms[Spans[I].Layer] +=
        std::max(0.0, Spans[I].DurUs - ChildUs[I]) / 1000.0;
  return Ms;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  using teapot::json::Value;
  Value Events = Value::array();
  for (const SpanRec &S : Spans) {
    Value E = Value::object();
    E.set("name", S.Name);
    E.set("cat", S.Layer);
    E.set("ph", "X");
    E.set("ts", S.StartUs);
    E.set("dur", S.DurUs);
    E.set("pid", 1);
    E.set("tid", 1);
    Value Args = Value::object();
    Args.set("layer", S.Layer);
    if (S.Synthesized)
      Args.set("reported_duration", true);
    E.set("args", std::move(Args));
    Events.push(std::move(E));
  }
  Value Doc = Value::object();
  Doc.set("traceEvents", std::move(Events));
  Doc.set("displayTimeUnit", "ms");
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Doc.dump() << "\n";
  return static_cast<bool>(Out);
}

} // namespace perfbench
