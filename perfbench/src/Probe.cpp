//===- perfbench/src/Probe.cpp - Host-speed probe --------------------------===//
//
// The kernel has the shape of the work it normalizes: an interpreter that
// dispatches 256 distinct handlers through an indirect-call table over a
// pseudo-random program, with data-dependent branches and loads and
// stores into a 1 MiB table. Like the VM and the speculation runtime, it
// is bound by instruction fetch, branch prediction and indirect dispatch.
// On a shared 4-vCPU host those slow down when another tenant shares the
// physical core. A kernel that was only memory-bound or only arithmetic
// tracked the teapot build's slowdowns worse, and sometimes worse than no
// scaling at all.
//
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

constexpr unsigned MemWords = 1u << 18; // 1 MiB of uint32_t
constexpr uint32_t MemMask = MemWords - 1;
constexpr unsigned ProgramLen = 8192;
constexpr unsigned Passes = 10;
constexpr unsigned KernelRuns = 3;

struct State {
  uint64_t R[16];
  uint32_t *Mem;
  uint64_t Acc;
};

/// Handler K: one of four shapes, specialized by K so that every handler
/// is distinct code.
template <int K> __attribute__((noinline)) void handler(State &S, uint32_t Arg) {
  uint64_t A = S.R[(K * 7 + Arg) & 15], B = S.R[(K * 3 + (Arg >> 4)) & 15];
  if constexpr (K % 4 == 0) {
    A += B * (K | 1);
    if (A & (1ULL << (K % 13)))
      A ^= B >> 3;
    else
      A -= B << 2;
  } else if constexpr (K % 4 == 1) {
    A = (A << (K % 17)) | (A >> (64 - (K % 17) - 1));
    A += S.Mem[(A ^ Arg) & MemMask];
  } else if constexpr (K % 4 == 2) {
    for (int I = 0; I < (K % 5) + 1; ++I) {
      A = A * 0x9e3779b97f4a7c15ULL + B;
      if ((A >> (I + K % 7)) & 1)
        B ^= A;
    }
  } else {
    uint32_t Idx = static_cast<uint32_t>((A + B + K) & MemMask);
    S.Mem[Idx] += static_cast<uint32_t>(A);
    A ^= S.Mem[(Idx * 33) & MemMask];
  }
  S.R[(K + Arg) & 15] = A;
  S.Acc += A;
}

using Handler = void (*)(State &, uint32_t);

template <int... Ks>
constexpr std::array<Handler, sizeof...(Ks)>
makeTable(std::integer_sequence<int, Ks...>) {
  return {&handler<Ks>...};
}

const std::array<Handler, 256> Handlers =
    makeTable(std::make_integer_sequence<int, 256>{});

struct KernelData {
  std::vector<uint32_t> Mem = std::vector<uint32_t>(MemWords);
  std::vector<uint32_t> Program = std::vector<uint32_t>(ProgramLen);

  KernelData() {
    uint64_t S = 7;
    for (uint32_t &W : Program) {
      S = S * 6364136223846793005ULL + 1442695040888963407ULL;
      W = static_cast<uint32_t>(S >> 33);
    }
  }
};

volatile uint64_t Sink = 0;

double runKernelMs() {
  static KernelData D;
  // Same table contents every run, so every run does the same work.
  std::fill(D.Mem.begin(), D.Mem.end(), 1);
  State S{};
  S.Mem = D.Mem.data();
  for (unsigned I = 0; I != 16; ++I)
    S.R[I] = I * 12345 + 1;
  auto Start = std::chrono::steady_clock::now();
  for (unsigned P = 0; P != Passes; ++P)
    for (uint32_t W : D.Program)
      Handlers[(W ^ static_cast<uint32_t>(S.Acc)) & 255](S, W >> 8);
  Sink = Sink + S.Acc;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

double probeMs() {
  std::array<double, KernelRuns> Ms{};
  for (double &M : Ms)
    M = runKernelMs();
  std::sort(Ms.begin(), Ms.end());
  return Ms[KernelRuns / 2];
}

} // namespace perfbench
