//===- perfbench/src/Driver.cpp - Teapot benchmark driver ------------------===//
//
// Runs one benchmark workload through the public entry points of the
// teapot layers and writes every measured number to a JSON file that
// perfbench/run.py turns into the benchmark's result line.
//
//   perfbench_driver --workload overhead|inject|proggen --seed N
//                    --seconds S --trace 0|1 --out FILE
//                    [--trace-out FILE] [--commit SHA] [--smoke]
//                    [--proggen-base N]
//
// Every workload does the same three things:
//
//   setup     compile (lang) + rewrite (passes) + target build (vm), run
//             SetupReps times; set-up time is the median repetition.
//   detect    a Scanner scan with injected Table 3 gadgets, scored
//             against the Injector ground truth: a fixed-input sweep
//             (overhead) or a coverage-guided campaign (inject, proggen).
//   timing    the five Figure 7 builds (native, specfuzz-baseline,
//             teapot-nodift, teapot, SpecTaint emulator) run the same
//             inputs, build order shuffled per slice; every instrumented
//             run's stop state and output must equal the native run's.
//
// detect + timing form one round; rounds repeat until --seconds have
// passed. Timings are medians over rounds; counts must repeat exactly in
// every round. Every slice of measured work is bracketed by the host-
// speed probe (Probe.h), and each wall time is reported both raw and
// scaled to the reference host.
//
// --seed only shuffles the order of programs and builds. The programs,
// inputs, fuzzing seeds and budgets are fixed, so exact-count metrics
// (recall, gadgets, guest instructions) are comparable between runs
// with different seeds.
//
//===----------------------------------------------------------------------===//

#include "Probe.h"
#include "Trace.h"

#include "api/Scanner.h"
#include "baselines/SpecFuzz.h"
#include "passes/PipelineBuilder.h"
#include "support/Json.h"
#include "workloads/Harness.h"
#include "workloads/Programs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace teapot;
using perfbench::probeMs;
using perfbench::ReferenceProbeMs;
using perfbench::Span;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

namespace {

[[noreturn]] void fail(const std::string &Msg) {
  fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  exit(1);
}

template <typename T> T check(Expected<T> V, const std::string &What) {
  if (!V)
    fail(What + ": " + V.message());
  return std::move(*V);
}

void check(Error E, const std::string &What) {
  if (E)
    fail(What + ": " + E.message());
}

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

// --- Command line -----------------------------------------------------------

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string Out;
  std::string TraceOut;
  std::string Commit = "unknown";
  uint64_t ProgGenBase = 9001;
};

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        fail("missing value for " + A);
      return Argv[++I];
    };
    auto Number = [&]() -> uint64_t {
      std::string V = Value();
      char *End = nullptr;
      unsigned long long N = strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        fail("not a whole number for " + A + ": " + V);
      return N;
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = Number();
    else if (A == "--seconds")
      O.Seconds = static_cast<double>(Number());
    else if (A == "--trace")
      O.Trace = Number() != 0;
    else if (A == "--out")
      O.Out = Value();
    else if (A == "--trace-out")
      O.TraceOut = Value();
    else if (A == "--commit")
      O.Commit = Value();
    else if (A == "--proggen-base")
      O.ProgGenBase = Number();
    else if (A == "--smoke")
      O.Smoke = true;
    else
      fail("unknown argument " + A);
  }
  if (O.Out.empty())
    fail("--out FILE is required");
  return O;
}

// --- Workload definitions ---------------------------------------------------

/// What one workload runs. The three differ in program set, input regime
/// and detection mode; everything else is shared.
struct WorkloadSpec {
  std::vector<std::string> Programs;
  /// Timing inputs: the program's large crafted input (Figure 7), or a
  /// fixed selection from the detection campaign's final corpus.
  bool LargeInputs = false;
  size_t LargeInputBytes = 1500;
  size_t MaxReplayInputs = 12;
  /// Detection: a fixed-input runInputs() sweep, or a campaign.
  bool Campaign = false;
  uint64_t CampaignExecs = 0; // per program, summed over workers
  unsigned Workers = 1;
  uint64_t SyncInterval = 512;
  /// Injected gadgets per program (0 = the workload's published count).
  unsigned InjectCount = 0;
  unsigned SetupReps = 15;
  /// Executions of each timing input per slice: enough that every build's
  /// share of a slice is tens of milliseconds, not a sub-10 ms reading.
  unsigned TimingReps = 1;
  unsigned NativeReps = 10;
};

constexpr uint64_t CampaignSeed = 42;
constexpr uint64_t TimingBudget = 600'000'000;
constexpr unsigned ProgGenPrograms = 8;
constexpr unsigned ProgGenSize = 2;

WorkloadSpec workloadSpec(const Options &O) {
  WorkloadSpec S;
  if (O.Workload == "overhead") {
    for (const workloads::Workload &W : workloads::allWorkloads())
      S.Programs.push_back(W.Name);
    S.LargeInputs = true;
    if (O.Smoke)
      S.LargeInputBytes = 200;
  } else if (O.Workload == "inject") {
    for (const workloads::Workload &W : workloads::allWorkloads())
      if (W.InjectCount != 0)
        S.Programs.push_back(W.Name);
    S.Campaign = true;
    S.CampaignExecs = O.Smoke ? 40 : 200;
    S.SyncInterval = 50;
    S.TimingReps = 2;
  } else if (O.Workload == "proggen") {
    for (unsigned I = 0; I != ProgGenPrograms; ++I)
      S.Programs.push_back("proggen:" + std::to_string(O.ProgGenBase + I) +
                           ":" + std::to_string(ProgGenSize));
    S.Campaign = true;
    S.CampaignExecs = O.Smoke ? 40 : 150;
    S.Workers = 2;
    S.MaxReplayInputs = 6;
    S.SyncInterval = O.Smoke ? 8 : 25;
    S.InjectCount = 4;
  } else {
    fail("unknown workload '" + O.Workload +
         "' (valid: overhead, inject, proggen)");
  }
  if (O.Smoke) {
    S.SetupReps = 2;
    S.NativeReps = 2;
    S.MaxReplayInputs = 2;
  }
  return S;
}

// --- The five Figure 7 builds -------------------------------------------------

enum Build : unsigned { Native, SpecFuzz, NoDift, Teapot, SpecTaint, NumBuilds };
const char *const BuildNames[NumBuilds] = {"native", "specfuzz", "nodift",
                                           "teapot", "spectaint"};
/// The layer whose code dominates each build's execute().
const char *const BuildLayers[NumBuilds] = {"vm", "baselines", "runtime",
                                            "runtime", "baselines"};

/// Section 7.1's run-time configuration: nesting and skipping heuristics
/// off for every implementation.
runtime::RuntimeOptions perfRuntime(runtime::RuntimeOptions O) {
  O.Nesting = runtime::NestingPolicy::Off;
  return O;
}

baselines::SpecTaintOptions perfSpecTaint() {
  baselines::SpecTaintOptions O;
  O.MaxDepth = 1;
  O.Tries = 0x7fffffff;
  return O;
}

struct Outcome {
  vm::StopState Stop;
  std::vector<uint8_t> Output;

  bool operator==(const Outcome &O) const {
    return Stop.Kind == O.Stop.Kind && Stop.ExitStatus == O.Stop.ExitStatus &&
           Stop.Fault == O.Stop.Fault && Stop.FaultAddr == O.Stop.FaultAddr &&
           Output == O.Output;
  }
};

/// One program with its detection scanner and its five timing builds.
/// Held by unique_ptr: the targets keep pointers into the rewrites.
struct Program {
  std::string Name;
  /// Whether the program takes part in detection: it has Table 3
  /// ground truth (openssl publishes none, as in the paper).
  bool HasTruth = false;
  std::unique_ptr<Scanner> Scan;
  core::RewriteResult SF, ND, TP;
  std::unique_ptr<workloads::NativeTarget> NativeT;
  std::unique_ptr<workloads::InstrumentedTarget> SFT, NDT, TPT;
  std::unique_ptr<workloads::EmulatorTarget> STT;
  std::vector<std::vector<uint8_t>> Inputs; // timing inputs
  std::vector<Outcome> Expected;            // native outcome per input

  fuzz::FuzzTarget &target(Build B) {
    switch (B) {
    case Native:
      return *NativeT;
    case SpecFuzz:
      return *SFT;
    case NoDift:
      return *NDT;
    case Teapot:
      return *TPT;
    default:
      return *STT;
    }
  }

  Outcome outcome(Build B) {
    switch (B) {
    case Native:
      return {NativeT->LastStop, NativeT->M.output()};
    case SpecFuzz:
      return {SFT->LastStop, SFT->M.output()};
    case NoDift:
      return {NDT->LastStop, NDT->M.output()};
    case Teapot:
      return {TPT->LastStop, TPT->M.output()};
    default:
      return {STT->LastStop, STT->M.output()};
    }
  }
};

/// A measured slice of work: its wall time, and the factor that scales
/// it to the reference host (from the probe readings taken right before
/// and right after it, see Probe.h).
struct Slice {
  double Ms = 0;
  double Scale = 1;
  double scaled() const { return Ms * Scale; }
};

// --- Host stamp -------------------------------------------------------------

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// --- The benchmark ------------------------------------------------------------

/// Measured values keyed by name: one program's slice, or one round.
using Values = std::map<std::string, double>;

class Bench {
public:
  Bench(Options O)
      : Opts(std::move(O)), Spec(workloadSpec(Opts)), Rng(Opts.Seed) {}

  void run();

private:
  /// Runs \p Fn between two probe readings.
  template <typename Fn> Slice measure(Fn &&F) {
    double P0 = probe();
    auto T0 = Clock::now();
    F();
    double Ms = msSince(T0);
    double P1 = probe();
    return {Ms, perfbench::referenceScale(P0, P1)};
  }
  double probe() {
    Span S(Trace, "probe", "host");
    double P = probeMs();
    ProbeReadings.push_back(P);
    return P;
  }

  std::unique_ptr<Program> setUp(const std::string &Name, Values &Setup);
  void detect(Program &P, Values &V, Values &Counts);
  void chooseReplayInputs(Program &P);
  void timing(Program &P, Values &Acc, Values &Counts);
  Values finishRound(const std::vector<Values> &PerProgram);
  void countOp(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (FailureNotes.size() < 20)
        FailureNotes.push_back(What);
    }
  }
  json::Value hostStamp() const;

  Options Opts;
  WorkloadSpec Spec;
  std::mt19937_64 Rng;
  Tracer Trace;
  std::vector<double> ProbeReadings;
  double WarmUpMs = 0;
  std::vector<double> EpochMs; // scaled epoch durations, this round
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> FailureNotes;
  std::vector<std::unique_ptr<Program>> Progs;
};

std::unique_ptr<Program> Bench::setUp(const std::string &Name,
                                      Values &Setup) {
  Span S(Trace, "setup " + Name, "bench");
  auto P = std::make_unique<Program>();
  P->Name = Name;

  ScanConfig Cfg = check(ScanConfig::preset("teapot"), "preset");
  Cfg.InjectGadgets = true;
  Cfg.Injector.Count = Spec.InjectCount;
  Cfg.Campaign.Seed = CampaignSeed;
  Cfg.Campaign.TotalIterations = std::max<uint64_t>(Spec.CampaignExecs, 1);
  Cfg.Campaign.Workers = Spec.Workers;
  Cfg.Campaign.SyncInterval = Spec.SyncInterval;
  Cfg.Campaign.MaxInputLen = 512;
  P->Scan = std::make_unique<Scanner>(Cfg);

  auto T0 = Clock::now();
  {
    Span C(Trace, "compile", "lang");
    check(P->Scan->loadWorkload(Name), "load " + Name);
  }
  Setup["compile_ms"] += msSince(T0);

  T0 = Clock::now();
  auto Rewrite = [&](const char *Label, passes::PipelineBuilder PB) {
    Span R(Trace, std::string("rewrite ") + Label, "passes");
    core::RewriteResult RW =
        check(passes::runPipeline(*P->Scan->binary(), std::move(PB)),
              std::string("rewrite ") + Label);
    for (const passes::PassStat &PS : RW.Stats.Passes)
      Trace.addReported("pass " + PS.Name, "passes", PS.Seconds);
    return RW;
  };
  const workloads::Workload *W = workloads::findWorkload(Name);
  P->HasTruth = Spec.InjectCount || (W && W->InjectCount);
  if (P->HasTruth) {
    Span R(Trace, "rewrite injected-teapot", "api");
    check(P->Scan->rewrite(), "inject+rewrite " + Name);
    for (const passes::PassStat &PS : P->Scan->rewriteResult()->Stats.Passes)
      Trace.addReported("pass " + PS.Name, "passes", PS.Seconds);
  }
  core::RewriterOptions NoDiftOpts;
  NoDiftOpts.EnableDift = false;
  P->SF = Rewrite("specfuzz", passes::PipelineBuilder::specFuzzBaseline());
  P->ND = Rewrite("nodift", passes::PipelineBuilder::teapot(NoDiftOpts));
  P->TP = Rewrite("teapot", passes::PipelineBuilder::teapot());
  Setup["rewrite_ms"] += msSince(T0);

  {
    Span B(Trace, "build targets", "vm");
    const obj::ObjectFile &Bin = *P->Scan->binary();
    P->NativeT = std::make_unique<workloads::NativeTarget>(Bin, TimingBudget);
    P->SFT = std::make_unique<workloads::InstrumentedTarget>(
        P->SF, perfRuntime(baselines::specFuzzRuntimeOptions()),
        TimingBudget);
    runtime::RuntimeOptions NoDiftRT;
    NoDiftRT.EnableDift = false;
    P->NDT = std::make_unique<workloads::InstrumentedTarget>(
        P->ND, perfRuntime(NoDiftRT), TimingBudget);
    P->TPT = std::make_unique<workloads::InstrumentedTarget>(
        P->TP, perfRuntime({}), TimingBudget);
    P->STT = std::make_unique<workloads::EmulatorTarget>(Bin, perfSpecTaint(),
                                                         TimingBudget);
  }
  return P;
}

/// Runs the program's detection scan, scores it against the injected
/// ground truth into \p Counts, and records a campaign's timing in \p V.
void Bench::detect(Program &P, Values &V, Values &Counts) {
  Scanner &S = *P.Scan;
  ScanResult R;
  if (Spec.Campaign) {
    struct EpochLog {
      Clock::time_point Last;
      std::vector<double> Ms;
      uint64_t ExecsAtLastGadget = 0;
      size_t Gadgets = 0;
    } Log;
    S.OnEpoch = [&](const fuzz::CampaignProgress &CP) {
      auto Now = Clock::now();
      Log.Ms.push_back(
          std::chrono::duration<double, std::milli>(Now - Log.Last).count());
      Trace.addFinished("epoch " + std::to_string(CP.Epoch), "fuzz",
                        Log.Last, Now);
      Log.Last = Now;
      if (CP.UniqueGadgets > Log.Gadgets) {
        Log.Gadgets = CP.UniqueGadgets;
        Log.ExecsAtLastGadget = CP.Executions;
      }
    };
    Slice Sl = measure([&] {
      Span Run(Trace, "Scanner::run " + P.Name, "api");
      Log.Last = Clock::now();
      R = check(S.run(), "scan " + P.Name);
    });
    S.OnEpoch = nullptr;
    V["work_ms"] += Sl.Ms;
    V["work_nms"] += Sl.scaled();
    V["campaign_ms"] += Sl.Ms;
    V["campaign_nms"] += Sl.scaled();
    V["campaign_execs"] += static_cast<double>(R.Executions);
    V["campaign_insts"] += static_cast<double>(R.GuestInsts);
    for (double Ms : Log.Ms)
      EpochMs.push_back(Ms * Sl.Scale);
    Counts["fuzz.epochs"] += static_cast<double>(R.Epochs);
    Counts["fuzz.corpus_size"] += static_cast<double>(R.CorpusSize);
    Counts["fuzz.edges"] +=
        static_cast<double>(R.NormalEdges + R.SpecEdges);
    Counts["fuzz.corpus_adds"] += static_cast<double>(R.CorpusAdds);
    Counts["fuzz.execs_to_last_gadget"] +=
        static_cast<double>(Log.ExecsAtLastGadget);
    Attempted += R.Executions;
    Failed += R.Quarantined;
    if (R.Quarantined)
      FailureNotes.push_back(P.Name + ": campaign quarantined " +
                             std::to_string(R.Quarantined) + " input(s)");
  } else {
    // Fixed-input sweep: the large input with an out-of-bounds and an
    // in-bounds value for the injected user-input slot (the bytes the
    // campaign seed schedule appends).
    std::vector<std::vector<uint8_t>> Inputs;
    const workloads::Workload *W = workloads::findWorkload(P.Name);
    for (uint8_t Poke : {200, 5}) {
      std::vector<uint8_t> In = W->LargeInput(Spec.LargeInputBytes);
      In.insert(In.end(), {Poke, 0, 0, 0, 0, 0, 0, 0});
      Inputs.push_back(std::move(In));
    }
    Span Run(Trace, "Scanner::runInputs " + P.Name, "api");
    R = check(S.runInputs(Inputs), "sweep " + P.Name);
    Attempted += R.Executions;
    Failed += R.Quarantined;
  }

  const workloads::InjectionResult *Inj = S.injection();
  std::set<uint64_t> Markers(Inj->SiteMarkers.begin(),
                             Inj->SiteMarkers.end());
  std::set<uint64_t> Unreachable(Inj->UnreachableMarkers.begin(),
                                 Inj->UnreachableMarkers.end());
  std::set<uint64_t> Hit;
  uint64_t FP = 0;
  for (const runtime::GadgetReport &G : R.Gadgets) {
    if (Markers.count(G.Site))
      Hit.insert(G.Site);
    else
      ++FP;
    // A gadget inside a function the driver never calls cannot be
    // reported by a correct detector.
    countOp(!Unreachable.count(G.Site),
            P.Name + ": reported an unreachable injected gadget");
  }
  Counts["detect.gt"] += static_cast<double>(Inj->SiteMarkers.size());
  Counts["detect.tp"] += static_cast<double>(Hit.size());
  Counts["detect.fp"] += static_cast<double>(FP);
  Counts["gadgets_found"] += static_cast<double>(R.Gadgets.size());
}

/// Fixes the campaign programs' timing inputs: up to MaxReplayInputs
/// entries spread evenly over the detection campaign's final corpus.
void Bench::chooseReplayInputs(Program &P) {
  const auto &Corpus = P.Scan->corpus();
  size_t N = std::min(Spec.MaxReplayInputs, Corpus.size());
  for (size_t I = 0; I != N; ++I)
    P.Inputs.push_back(Corpus[I * Corpus.size() / N]);
}

/// One timing slice: every build runs every timing input of \p P, in a
/// build order shuffled by the seed. Accumulates per-build time, guest
/// instructions and executions into \p Acc.
void Bench::timing(Program &P, Values &Acc, Values &Counts) {
  std::vector<Build> Order = {Native, SpecFuzz, NoDift, Teapot, SpecTaint};
  std::shuffle(Order.begin(), Order.end(), Rng);

  if (P.Expected.empty()) {
    auto T0 = Clock::now();
    // The reference outcomes come from the uninstrumented binary. One
    // untimed pass of every build then fills the engines' block caches
    // and TLBs, so timings and hot-path counters are those of the warm
    // steady state in every round.
    for (const std::vector<uint8_t> &In : P.Inputs) {
      P.NativeT->execute(In);
      P.Expected.push_back(P.outcome(Native));
    }
    for (unsigned B = 0; B != NumBuilds; ++B)
      for (const std::vector<uint8_t> &In : P.Inputs)
        P.target(static_cast<Build>(B)).execute(In);
    WarmUpMs += msSince(T0);
  }

  double BuildMs[NumBuilds] = {};
  uint64_t Execs[NumBuilds] = {};
  uint64_t Insts[NumBuilds] = {};
  const runtime::RuntimeStats Before = P.TPT->RT.Stats;

  Slice Sl = measure([&] {
    Span Sp(Trace, "timing " + P.Name, "bench");
    for (Build B : Order) {
      Span E(Trace, std::string("execute ") + BuildNames[B], BuildLayers[B]);
      fuzz::FuzzTarget &T = P.target(B);
      uint64_t Insts0 = T.executedInsts();
      unsigned Reps = B == Native ? Spec.NativeReps : Spec.TimingReps;
      for (size_t I = 0; I != P.Inputs.size(); ++I)
        for (unsigned Rep = 0; Rep != Reps; ++Rep) {
          auto T0 = Clock::now();
          bool Threw = false;
          try {
            T.execute(P.Inputs[I]);
          } catch (const std::exception &) {
            Threw = true;
          }
          BuildMs[B] += msSince(T0);
          ++Execs[B];
          bool Ok = !Threw && P.outcome(B) == P.Expected[I];
          countOp(Ok, P.Name + ": " + BuildNames[B] + " input " +
                          std::to_string(I) +
                          (Threw ? " threw" : " differs from native"));
        }
      Insts[B] = T.executedInsts() - Insts0;
    }
  });

  for (unsigned B = 0; B != NumBuilds; ++B) {
    std::string K = BuildNames[B];
    double PerExec = BuildMs[B] / static_cast<double>(Execs[B]);
    Acc[K + ".ms"] = PerExec;
    Acc[K + ".nms"] = PerExec * Sl.Scale;
    Acc[K + ".execs"] = static_cast<double>(Execs[B]);
    Acc[K + ".insts"] = static_cast<double>(Insts[B]);
    Counts["total.execs." + K] += static_cast<double>(Execs[B]);
    Counts["total.insts." + K] += static_cast<double>(Insts[B]);
  }
  Acc["work_ms"] += Sl.Ms;
  Acc["work_nms"] += Sl.scaled();
  // Builds measured in the same slice need no scaling for their ratios.
  Acc["teapot_over_specfuzz"] = Acc["teapot.ms"] / Acc["specfuzz.ms"];
  Acc["spectaint_over_teapot"] = Acc["spectaint.ms"] / Acc["teapot.ms"];
  Acc["vm.teapot_over_native"] = Acc["teapot.ms"] / Acc["native.ms"];

  // The teapot build's runtime counters over this slice.
  const runtime::RuntimeStats &After = P.TPT->RT.Stats;
  auto Add = [&](const char *K, uint64_t A, uint64_t B) {
    Counts[K] += static_cast<double>(A - B);
  };
  uint64_t Rb = 0, Rb0 = 0;
  for (size_t I = 0;
       I != static_cast<size_t>(isa::RollbackReason::NumReasons); ++I) {
    Rb += After.Rollbacks[I];
    Rb0 += Before.Rollbacks[I];
  }
  Add("total.simulations", After.Simulations, Before.Simulations);
  Add("total.nested", After.NestedSimulations, Before.NestedSimulations);
  Add("total.rollbacks", Rb, Rb0);
  Add("total.tlb_guest_hits", After.TlbGuestHits, Before.TlbGuestHits);
  Add("total.tlb_runtime_hits", After.TlbRuntimeHits, Before.TlbRuntimeHits);
  Add("total.slow_path_calls", After.TlbSlowPathCalls,
      Before.TlbSlowPathCalls);
  Add("total.fast_path_retires", After.IntrinsicFastPathHits,
      Before.IntrinsicFastPathHits);
}

/// Turns one round's per-program measurements into the round's timing
/// metrics. Per-program figures are combined with the geometric mean
/// (Figure 7 averages ratios); throughputs are pooled sums.
Values Bench::finishRound(const std::vector<Values> &PerProgram) {
  auto Geo = [&](const std::string &K) {
    std::vector<double> Xs;
    for (const Values &V : PerProgram)
      Xs.push_back(V.at(K));
    return geomean(Xs);
  };
  auto Sum = [&](const std::string &K) {
    double S = 0;
    for (const Values &V : PerProgram)
      S += V.at(K);
    return S;
  };

  // A wall time is stored scaled under its name and as measured under
  // "<name>.raw".
  Values M;
  auto Timed = [&](const std::string &Name, const std::string &Build) {
    M[Name] = Geo(Build + ".nms");
    M[Name + ".raw"] = Geo(Build + ".ms");
  };
  Timed("teapot_exec_ms", "teapot");
  Timed("vm.native_exec_ms", "native");
  Timed("runtime.nodift_exec_ms", "nodift");
  Timed("baselines.specfuzz_exec_ms", "specfuzz");
  Timed("baselines.spectaint_exec_ms", "spectaint");
  double N = static_cast<double>(PerProgram.size());
  M["runtime.dift_ms"] = (Sum("teapot.nms") - Sum("nodift.nms")) / N;
  M["runtime.dift_ms.raw"] = (Sum("teapot.ms") - Sum("nodift.ms")) / N;
  for (const char *K : {"teapot_over_specfuzz", "spectaint_over_teapot",
                        "vm.teapot_over_native"})
    M[K] = Geo(K);

  // Throughput: the campaign's, which is what a user of the scan sees;
  // without a campaign, the teapot build's on the fixed inputs.
  double Execs, Insts, Secs = 0, NSecs = 0;
  if (Spec.Campaign) {
    Execs = Sum("campaign_execs");
    Insts = Sum("campaign_insts");
    Secs = Sum("campaign_ms") / 1000;
    NSecs = Sum("campaign_nms") / 1000;
  } else {
    Execs = Sum("teapot.execs");
    Insts = Sum("teapot.insts");
    for (const Values &V : PerProgram) {
      Secs += V.at("teapot.ms") * V.at("teapot.execs") / 1000;
      NSecs += V.at("teapot.nms") * V.at("teapot.execs") / 1000;
    }
  }
  M["execs_per_s"] = Execs / NSecs;
  M["execs_per_s.raw"] = Execs / Secs;
  M["vm.minsts_per_s"] = Insts / NSecs / 1e6;
  M["vm.minsts_per_s.raw"] = Insts / Secs / 1e6;
  M["work_ms"] = Sum("work_nms");
  M["work_ms.raw"] = Sum("work_ms");
  return M;
}

json::Value Bench::hostStamp() const {
  json::Value H = json::Value::object();
  H.set("nproc", static_cast<unsigned>(std::thread::hardware_concurrency()));
  H.set("cpu_model", cpuModel());
  H.set("compiler", PERFBENCH_COMPILER);
  H.set("build_type", PERFBENCH_BUILD_TYPE);
  H.set("commit", Opts.Commit);
  H.set("reference_probe_ms", ReferenceProbeMs);
  H.set("probe_exponent", perfbench::ProbeExponent);
  return H;
}

void Bench::run() {
  // Warm the probe (first touch of its table, cold caches) so the first
  // slice's readings are comparable with later ones.
  for (unsigned I = 0; I != 5; ++I)
    probeMs();

  // --- Set-up, repeated; the last repetition's programs are kept. ---------
  std::vector<double> SetupMs, SetupNms, CompileMs, CompileNms, RewriteMs,
      RewriteNms;
  std::map<std::string, std::vector<double>> SetupSelf; // traced reps
  for (unsigned Rep = 0; Rep != Spec.SetupReps; ++Rep) {
    Trace.Enabled = Opts.Trace && Rep % 2 == 1;
    size_t TraceFrom = Trace.spans().size();
    Progs.clear();
    Values Setup;
    Slice Sl = measure([&] {
      for (const std::string &Name : Spec.Programs)
        Progs.push_back(setUp(Name, Setup));
    });
    SetupMs.push_back(Sl.Ms);
    SetupNms.push_back(Sl.scaled());
    CompileMs.push_back(Setup["compile_ms"]);
    CompileNms.push_back(Setup["compile_ms"] * Sl.Scale);
    RewriteMs.push_back(Setup["rewrite_ms"]);
    RewriteNms.push_back(Setup["rewrite_ms"] * Sl.Scale);
    if (Trace.Enabled)
      for (const auto &[Layer, Ms] : Trace.selfTimeByLayer(TraceFrom))
        SetupSelf[Layer].push_back(Ms);
  }
  Trace.Enabled = false;

  // Rewrite-side counts of the teapot build (deterministic).
  Values Static;
  for (auto &P : Progs) {
    for (const passes::PassStat &PS : P->TP.Stats.Passes)
      Static["passes.insts_added"] += static_cast<double>(PS.InstsAdded);
    Static["passes.branch_sites"] +=
        static_cast<double>(P->TP.Meta.Trampolines.size());
    Static["passes.marker_sites"] +=
        static_cast<double>(P->TP.Meta.MarkerSites.size());
  }

  // --- Rounds of detection + timing until the time is up. -----------------
  std::vector<Values> Rounds;
  std::vector<std::vector<Values>> ProgramRounds; // [round][program]
  std::vector<bool> RoundTraced;
  std::vector<std::map<std::string, double>> RoundSelf;
  Values FirstCounts;
  auto Start = Clock::now();
  const double Budget = Opts.Seconds * 1000;
  const unsigned MinRounds = Opts.Trace ? 2 : 1;
  // The fixed-input sweep is untimed and the same in every round: run it
  // once. Campaigns are timed, so they run in every round.
  if (!Spec.Campaign) {
    Values Untimed;
    for (auto &P : Progs)
      if (P->HasTruth)
        detect(*P, Untimed, Static);
  }
  for (unsigned Round = 0;; ++Round) {
    // Warm-up passes are not measurement; keep them out of the budget.
    double Elapsed = msSince(Start) - WarmUpMs;
    if (Round >= MinRounds && Elapsed + Elapsed / Round > Budget)
      break;
    bool Traced = Opts.Trace && Round % 2 == 1;
    Trace.Enabled = Traced;
    size_t TraceFrom = Trace.spans().size();

    std::vector<size_t> Order(Progs.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    std::shuffle(Order.begin(), Order.end(), Rng);

    Values Counts = Static;
    std::vector<Values> PerProgram(Progs.size());
    EpochMs.clear();
    for (size_t I : Order) {
      Program &P = *Progs[I];
      if (Spec.Campaign)
        detect(P, PerProgram[I], Counts);
      if (P.Inputs.empty()) {
        if (Spec.LargeInputs)
          P.Inputs.push_back(workloads::findWorkload(P.Name)->LargeInput(
              Spec.LargeInputBytes));
        else
          chooseReplayInputs(P);
      }
      timing(P, PerProgram[I], Counts);
    }
    Trace.Enabled = false;

    Values M = finishRound(PerProgram);
    M["fuzz.epoch_ms_p50"] = median(EpochMs);
    M["fuzz.epoch_ms_max"] =
        EpochMs.empty() ? 0 : *std::max_element(EpochMs.begin(), EpochMs.end());
    for (const auto &[K, V] : Counts)
      M[K] = V;
    if (Round == 0)
      FirstCounts = Counts;
    // Inline fast-path retires grow with history: coverage guards stop
    // counting once saturated, so each round retires more of them
    // inline. Round 0 has the same history in every process, so the
    // reported (round 0) value still repeats between runs.
    std::string Differ;
    for (const auto &[K, V] : Counts)
      if (FirstCounts[K] != V && K != "total.fast_path_retires")
        Differ += " " + K;
    countOp(Differ.empty(), "round " + std::to_string(Round) +
                                ": counts differ from round 0:" + Differ);
    fprintf(stderr, "perfbench: round %u: %.0f ms of work (%.0f ms raw)\n",
            Round, M["work_ms"], M["work_ms.raw"]);
    Rounds.push_back(std::move(M));
    ProgramRounds.push_back(std::move(PerProgram));
    RoundTraced.push_back(Traced);
    RoundSelf.push_back(Traced ? Trace.selfTimeByLayer(TraceFrom)
                               : std::map<std::string, double>());
  }

  // --- Aggregate: medians over rounds for times, round 0 for counts. -----
  json::Value Metrics = json::Value::object();
  auto Put = [&](const std::string &Name, double V) {
    json::Value E = json::Value::object();
    E.set("value", V);
    Metrics.set(Name, std::move(E));
  };
  const double ProbeMed = median(ProbeReadings);
  /// A scaled wall time, with its raw value and the probe reading beside.
  auto PutTimed = [&](const std::string &Name, double V, double Raw) {
    json::Value E = json::Value::object();
    E.set("value", V);
    E.set("raw", Raw);
    E.set("probe_ms", ProbeMed);
    Metrics.set(Name, std::move(E));
  };
  auto Med = [&](const std::string &K) {
    std::vector<double> Xs;
    for (const Values &M : Rounds)
      Xs.push_back(M.at(K));
    return median(Xs);
  };
  // Timings: each program's median over rounds, then combined across
  // programs as in a round. Interference hits single slices; a per-
  // program median drops a slow slice without discarding a whole round.
  std::vector<Values> ProgramMedians(Progs.size());
  for (size_t P = 0; P != Progs.size(); ++P)
    for (const auto &[K, V0] : ProgramRounds.front()[P]) {
      std::vector<double> Xs;
      for (const std::vector<Values> &R : ProgramRounds)
        Xs.push_back(R[P].at(K));
      ProgramMedians[P][K] = median(Xs);
    }
  const Values Timings = finishRound(ProgramMedians);
  const Values &C = Rounds.front();
  auto Count = [&](const std::string &K) {
    auto It = C.find(K);
    return It == C.end() ? 0.0 : It->second;
  };

  double GT = Count("detect.gt"), TP = Count("detect.tp"),
         FP = Count("detect.fp");
  Put("recall_pct", GT ? 100.0 * TP / GT : 100.0);
  Put("precision_pct", TP + FP ? 100.0 * TP / (TP + FP) : 100.0);
  Put("gadgets_found", Count("gadgets_found"));
  PutTimed("setup_s", median(SetupNms) / 1000, median(SetupMs) / 1000);
  PutTimed("lang.compile_s", median(CompileNms) / 1000,
           median(CompileMs) / 1000);
  PutTimed("passes.rewrite_s", median(RewriteNms) / 1000,
           median(RewriteMs) / 1000);
  for (const char *K :
       {"teapot_exec_ms", "execs_per_s", "vm.native_exec_ms",
        "vm.minsts_per_s", "runtime.nodift_exec_ms", "runtime.dift_ms",
        "baselines.specfuzz_exec_ms", "baselines.spectaint_exec_ms"})
    PutTimed(K, Timings.at(K), Timings.at(std::string(K) + ".raw"));
  for (const char *K :
       {"teapot_over_specfuzz", "spectaint_over_teapot", "vm.teapot_over_native"})
    Put(K, Timings.at(K));
  for (const char *K : {"fuzz.epoch_ms_p50", "fuzz.epoch_ms_max"})
    Put(K, Med(K));

  for (const char *B : {"native", "specfuzz", "nodift", "teapot"})
    Put(std::string("vm.guest_insts_per_exec.") + B,
        Count(std::string("total.insts.") + B) /
            Count(std::string("total.execs.") + B));
  double TeapotExecs = Count("total.execs.teapot");
  for (const auto &[Name, Total] :
       std::vector<std::pair<const char *, const char *>>{
           {"runtime.simulations_per_exec", "total.simulations"},
           {"runtime.nested_per_exec", "total.nested"},
           {"runtime.rollbacks_per_exec", "total.rollbacks"},
           {"vm.tlb_guest_hits_per_exec", "total.tlb_guest_hits"},
           {"vm.tlb_runtime_hits_per_exec", "total.tlb_runtime_hits"},
           {"vm.slow_path_calls_per_exec", "total.slow_path_calls"},
           {"vm.fast_path_retires_per_exec", "total.fast_path_retires"}})
    Put(Name, Count(Total) / TeapotExecs);
  // Campaign counts are 0 on the overhead workload, which runs none.
  for (const char *K : {"passes.insts_added", "passes.branch_sites",
                        "passes.marker_sites", "fuzz.epochs",
                        "fuzz.corpus_size", "fuzz.edges", "fuzz.corpus_adds",
                        "fuzz.execs_to_last_gadget"})
    Put(K, Count(K));
  Put("host.probe_ms", ProbeMed);
  Put("peak_rss_mb", peakRssMb());
  Put("ok_pct", 100.0 * static_cast<double>(Attempted - Failed) /
                    static_cast<double>(std::max<uint64_t>(Attempted, 1)));

  if (Opts.Trace) {
    // Tracing overhead: scaled work of traced vs untraced rounds.
    std::vector<double> Traced, Untraced;
    std::map<std::string, std::vector<double>> Self;
    for (size_t R = 0; R != Rounds.size(); ++R) {
      (RoundTraced[R] ? Traced : Untraced).push_back(Rounds[R]["work_ms"]);
      for (const auto &[Layer, Ms] : RoundSelf[R])
        Self[Layer].push_back(Ms);
    }
    Put("trace.overhead_pct",
        100.0 * (median(Traced) / median(Untraced) - 1.0));
    // Self time per layer of one set-up repetition plus one round: the
    // work a run does per measured sample.
    for (const char *Layer : {"bench", "host", "lang", "passes", "vm",
                              "runtime", "baselines", "fuzz", "api"})
      Put(std::string("trace.self_ms.") + Layer,
          median(SetupSelf[Layer]) + median(Self[Layer]));
    if (!Opts.TraceOut.empty() && !Trace.writeChromeTrace(Opts.TraceOut))
      fail("cannot write " + Opts.TraceOut);
  }

  json::Value Doc = json::Value::object();
  Doc.set("workload", Opts.Workload);
  Doc.set("seed", Opts.Seed);
  Doc.set("rounds", static_cast<uint64_t>(Rounds.size()));
  Doc.set("setup_reps", Spec.SetupReps);
  Doc.set("host", hostStamp());
  Doc.set("correct", Failed == 0);
  Doc.set("attempted", Attempted);
  Doc.set("failed", Failed);
  json::Value Notes = json::Value::array();
  for (const std::string &N : FailureNotes)
    Notes.push(N);
  Doc.set("failures", std::move(Notes));
  Doc.set("metrics", std::move(Metrics));
  json::Value PerRound = json::Value::array();
  for (const Values &M : Rounds) {
    json::Value R = json::Value::object();
    for (const auto &[K, V] : M)
      if (K.rfind("total.", 0) != 0 && K.rfind("detect.", 0) != 0)
        R.set(K, V);
    PerRound.push(std::move(R));
  }
  Doc.set("round_values", std::move(PerRound));
  json::Value PerProgramRound = json::Value::array();
  for (const std::vector<Values> &R : ProgramRounds) {
    json::Value Row = json::Value::array();
    for (const Values &V : R) {
      json::Value O = json::Value::object();
      for (const auto &[K, X] : V)
        O.set(K, X);
      Row.push(std::move(O));
    }
    PerProgramRound.push(std::move(Row));
  }
  Doc.set("program_rounds", std::move(PerProgramRound));
  std::ofstream Out(Opts.Out, std::ios::binary | std::ios::trunc);
  Out << Doc.dump(true) << "\n";
  if (!Out)
    fail("cannot write " + Opts.Out);
}

} // namespace

int main(int Argc, char **Argv) {
  Bench B(parseArgs(Argc, Argv));
  B.run();
  return 0;
}
