//===- perfbench/src/Probe.h - Host-speed probe -------------------*- C++ -*-===//
//
// A fixed single-threaded CPU kernel the benchmark runs before and after
// every measured slice. It calls no teapot code, so its reading changes
// only when the host's speed changes (frequency, noisy neighbours on the
// same physical core or shared caches). Scaling a slice's wall time by
// the probe readings taken around it removes most of the between-process
// drift a shared host shows for identical work.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include <cmath>

namespace perfbench {

/// Median probe reading on the reference host: a shared 4-vCPU Intel Xeon
/// container, gcc 12, Release build.
inline constexpr double ReferenceProbeMs = 2.2;

/// A time T measured next to a probe reading P is reported as
/// T * (ReferenceProbeMs / P)^ProbeExponent: what T would have been on
/// the reference host. Under host contention the teapot builds slow down
/// more than the probe: across five sets of 5-10 runs on the reference
/// host their slowdown tracked the probe's to the power 1.5, and that
/// power cut the between-run spread of absolute times on the single-
/// threaded workloads from 11-19% (power 1) to 5-10%.
inline constexpr double ProbeExponent = 1.5;

/// The factor that scales a time measured between probe readings
/// \p Before and \p After to the reference host.
inline double referenceScale(double Before, double After) {
  return std::pow(2 * ReferenceProbeMs / (Before + After), ProbeExponent);
}

/// Runs the probe kernel and returns its wall time in milliseconds (the
/// median of a few back-to-back kernel runs, which drops one-off
/// preemptions inside the probe itself).
double probeMs();

} // namespace perfbench

#endif
