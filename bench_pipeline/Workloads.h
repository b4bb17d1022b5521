//===- bench_pipeline/Workloads.h - The benchmark's inputs ------*- C++ -*-===//
///
/// \file
/// The inputs of the three workloads: the paper kernels with their
/// hand-written expected cycles (expected_cycles.txt), and the server-mix
/// request stream generated from GmaGen. See README.md for why each
/// workload was chosen.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_BENCH_PIPELINE_WORKLOADS_H
#define DENALI_BENCH_PIPELINE_WORKLOADS_H

#include "driver/Superoptimizer.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace denali {
namespace pipebench {

/// One row of expected_cycles.txt.
struct ExpectedRow {
  std::string Workload, File, Gma;
  unsigned Cycles = 0, MaxCycles = 0;
};

/// Reads \p Path. \returns false with \p Err on a malformed file.
bool readExpected(const std::string &Path, std::vector<ExpectedRow> &Rows,
                  std::string &Err);

/// One kernel source file, compiled once on its own pipeline instance.
struct KernelSource {
  std::string File, Text;
  std::unique_ptr<driver::Superoptimizer> Opt;
};

/// One GMA of a paper workload.
struct Kernel {
  size_t Source = 0;   ///< Index into PaperSet::Sources.
  unsigned Expected = 0;
  gma::GMA G;
  driver::GmaResult First; ///< The set-up (warm-up) compile.
};

struct PaperSet {
  std::vector<KernelSource> Sources;
  std::vector<Kernel> Kernels;
};

/// Set-up of a paper workload: one pipeline per kernel file, built with
/// compileSource, which parses, translates and compiles every GMA once.
/// Instances are built here and never recompiled from source: compileSource
/// appends the module's axioms to the instance on every call.
bool loadPaperSet(const std::string &DataDir, const std::string &Workload,
                  const std::vector<ExpectedRow> &Rows, PaperSet &Out,
                  std::string &Err);

/// The server-mix pipeline options: the E17 compile-server settings.
driver::Options serverPipelineOptions();

struct MixRequest {
  std::string Text;
  uint32_t Skeleton = 0;
  bool Renamed = false; ///< An alpha-renamed repeat (else exact text).
};

/// The server-mix stream. Each skeleton is one session: its first request
/// (a cold compile) followed by its repeats. Clients take whole sessions
/// from one shared queue, so no two clients ever send one skeleton.
struct ServerMix {
  std::vector<std::vector<MixRequest>> Sessions; ///< In queue order.
  size_t Requests = 0;
};

/// The three arms of E17's full-size run (bench_server without --smoke),
/// merged into one stream: the cold arm's distinct skeletons, the warm
/// arm's exact replay of each, and the duplicate-heavy arm's requests over
/// its few skeletons.
constexpr unsigned MixColdArm = 100;    ///< Sessions: cold, exact replay.
constexpr unsigned MixDupSkeletons = 20; ///< Sessions: cold, renamed repeats.
constexpr unsigned MixDupRequests = 1000;
constexpr unsigned MixRequests = 2 * MixColdArm + MixDupRequests;
constexpr unsigned MixSkeletons = MixColdArm + MixDupSkeletons;

/// Generates the mix: MixSkeletons canonically distinct GmaGen kernels from
/// \p CorpusSeed, the first MixDupSkeletons of them in the duplicate-heavy
/// arm (as in E17); the session order comes from \p StreamSeed.
ServerMix makeServerMix(uint64_t CorpusSeed, uint64_t StreamSeed);

} // namespace pipebench
} // namespace denali

#endif // DENALI_BENCH_PIPELINE_WORKLOADS_H
