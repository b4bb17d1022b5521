//===- bench_pipeline/Workloads.cpp ---------------------------------------===//

#include "Workloads.h"

#include "server/Canon.h"
#include "support/StringExtras.h"
#include "verify/GmaGen.h"
#include "verify/GmaText.h"

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace denali;
using namespace denali::pipebench;

bool denali::pipebench::readExpected(const std::string &Path,
                                     std::vector<ExpectedRow> &Rows,
                                     std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read " + Path;
    return false;
  }
  std::string Line;
  for (unsigned LineNo = 1; std::getline(In, Line); ++LineNo) {
    size_t Hash = Line.find('#');
    std::istringstream Fields(Line.substr(0, Hash));
    ExpectedRow R;
    if (!(Fields >> R.Workload))
      continue; // Blank or comment line.
    if (!(Fields >> R.File >> R.Gma >> R.Cycles >> R.MaxCycles) ||
        R.Cycles == 0 || R.MaxCycles < R.Cycles) {
      Err = strFormat("%s:%u: want <workload> <file> <gma> <cycles> "
                      "<max-cycles>, with 0 < cycles <= max-cycles",
                      Path.c_str(), LineNo);
      return false;
    }
    Rows.push_back(R);
  }
  return true;
}

bool denali::pipebench::loadPaperSet(const std::string &DataDir,
                                     const std::string &Workload,
                                     const std::vector<ExpectedRow> &Rows,
                                     PaperSet &Out, std::string &Err) {
  // Kernel files in expected-file order, each with its MaxCycles.
  std::vector<std::pair<std::string, unsigned>> Files;
  for (const ExpectedRow &R : Rows) {
    if (R.Workload != Workload)
      continue;
    if (Files.empty() || Files.back().first != R.File)
      Files.push_back({R.File, R.MaxCycles});
    else if (Files.back().second != R.MaxCycles) {
      Err = "conflicting max-cycles for " + R.File;
      return false;
    }
  }
  if (Files.empty()) {
    Err = "no kernels for workload '" + Workload + "'";
    return false;
  }
  for (const auto &[File, MaxCycles] : Files) {
    KernelSource Src;
    Src.File = File;
    std::ifstream In(DataDir + "/kernels/" + File);
    if (!In) {
      Err = "cannot read kernel " + File;
      return false;
    }
    std::stringstream Text;
    Text << In.rdbuf();
    Src.Text = Text.str();
    driver::Options O;
    O.Search.MaxCycles = MaxCycles;
    Src.Opt = std::make_unique<driver::Superoptimizer>(O);
    driver::CompileResult CR = Src.Opt->compileSource(Src.Text);
    if (!CR.ok()) {
      Err = File + ": " + CR.Error;
      return false;
    }
    size_t Wanted = 0;
    for (const ExpectedRow &R : Rows)
      Wanted += R.Workload == Workload && R.File == File;
    if (CR.Gmas.size() != Wanted) {
      Err = strFormat("%s: %zu GMAs, expected_cycles.txt lists %zu",
                      File.c_str(), CR.Gmas.size(), Wanted);
      return false;
    }
    for (driver::GmaResult &GR : CR.Gmas) {
      Kernel K;
      K.Source = Out.Sources.size();
      for (const ExpectedRow &R : Rows)
        if (R.Workload == Workload && R.File == File && R.Gma == GR.Gma.Name)
          K.Expected = R.Cycles;
      if (K.Expected == 0) {
        Err = File + ": GMA " + GR.Gma.Name + " missing from expected_cycles.txt";
        return false;
      }
      K.G = GR.Gma;
      K.First = std::move(GR);
      Out.Kernels.push_back(std::move(K));
    }
    Out.Sources.push_back(std::move(Src));
  }
  return true;
}

driver::Options denali::pipebench::serverPipelineOptions() {
  driver::Options O;
  O.Search.MaxCycles = 16;
  O.Matching.MaxNodes = 8000;
  O.Matching.MaxRounds = 8;
  return O;
}

namespace {

/// \p G with every scalar input renamed (the memory M keeps its name: it
/// marks the memory target). Canonically equal to \p G.
gma::GMA renamed(ir::Context &Ctx, const gma::GMA &G, const std::string &Tag) {
  std::unordered_map<ir::OpId, ir::TermId> Subst;
  for (ir::OpId In : gma::gmaInputs(Ctx, G)) {
    const std::string &Name = Ctx.Ops.info(In).Name;
    if (Name != "M")
      Subst[In] = Ctx.Terms.makeVar(Name + Tag);
  }
  gma::GMA R = G;
  R.Name = G.Name + Tag;
  for (ir::TermId &T : R.NewVals)
    T = Ctx.Terms.substitute(T, Subst);
  if (R.Guard)
    R.Guard = Ctx.Terms.substitute(*R.Guard, Subst);
  return R;
}

} // namespace

ServerMix denali::pipebench::makeServerMix(uint64_t CorpusSeed,
                                           uint64_t StreamSeed) {
  driver::Superoptimizer Gen(serverPipelineOptions());
  ir::Context &Ctx = Gen.context();
  // Canonically distinct skeletons only: two alpha-equivalent draws would
  // share a cache entry, and the tier counts would depend on timing.
  std::vector<gma::GMA> Corpus;
  std::unordered_set<std::string> Keys;
  verify::GmaGen Draw(Ctx, CorpusSeed);
  while (Corpus.size() < MixSkeletons) {
    gma::GMA G = Draw.next();
    if (Keys.insert(server::canonicalizeGma(Ctx, G).Text).second)
      Corpus.push_back(std::move(G));
  }

  std::mt19937_64 Rng(StreamSeed);
  std::vector<uint32_t> Order(MixSkeletons);
  for (uint32_t I = 0; I < MixSkeletons; ++I)
    Order[I] = I;
  std::shuffle(Order.begin(), Order.end(), Rng);

  ServerMix Mix;
  for (uint32_t S : Order) {
    std::vector<MixRequest> Session;
    Session.push_back({verify::printGma(Ctx, Corpus[S]), S, false});
    if (S >= MixDupSkeletons) {
      // Warm arm: the exact text again.
      Session.push_back(Session.front());
    } else {
      // Duplicate-heavy arm: alpha-renamed repeats, each renamed apart.
      for (unsigned R = 1; R < MixDupRequests / MixDupSkeletons; ++R) {
        gma::GMA G = renamed(Ctx, Corpus[S], strFormat("_r%u", R));
        Session.push_back({verify::printGma(Ctx, G), S, true});
      }
    }
    Mix.Requests += Session.size();
    Mix.Sessions.push_back(std::move(Session));
  }
  return Mix;
}
