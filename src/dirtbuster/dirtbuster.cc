#include "src/dirtbuster/dirtbuster.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace prestore {

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ULL << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (1ULL << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

namespace {

// §7.1's gate is "<10% of their time issuing store instructions". Store
// instructions cost more time than average instructions (they miss), so the
// equivalent instruction-count fraction is calibrated to 5%.
constexpr double kWriteIntensiveFraction = 0.05;
// How many top write functions to instrument in pass 2.
constexpr size_t kTopFunctions = 6;
// Functions below this share of sampled stores are not instrumented.
constexpr double kMinStoreShare = 0.05;

std::string DistanceText(bool finite, double distance) {
  if (!finite) {
    return "inf";
  }
  char buf[32];
  if (distance >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.1fK", distance / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", distance);
  }
  return buf;
}

}  // namespace

std::string DirtBusterReport::ToString() const {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line),
                "store instruction fraction: %.1f%% (%s)\n",
                store_instruction_fraction * 100.0,
                write_intensive ? "write-intensive"
                                : "not write-intensive, skipping steps 2-3");
  os << line;
  for (const FunctionReport& f : functions) {
    os << "\n" << f.name << "\n";
    os << "Location: " << f.location << "\n";
    std::snprintf(line, sizeof(line), "Perc. Seq. Writes: %.0f%%\n",
                  f.analysis.seq_write_fraction * 100.0);
    os << line;
    if (f.analysis.writes_before_fence_fraction > 0.0) {
      std::snprintf(line, sizeof(line),
                    "Writes before fence: %.0f%% (min dist %llu instr)\n",
                    f.analysis.writes_before_fence_fraction * 100.0,
                    static_cast<unsigned long long>(
                        f.analysis.min_fence_distance));
      os << line;
    }
    for (const SizeClassReport& c : f.analysis.classes) {
      if (c.write_share < 0.01) {
        continue;
      }
      std::snprintf(line, sizeof(line),
                    "Size: %s - %.0f%% - re-read %s - re-write %s\n",
                    HumanBytes(c.representative_bytes).c_str(),
                    c.write_share * 100.0,
                    DistanceText(c.reread_finite, c.reread_distance).c_str(),
                    DistanceText(c.rewrite_finite, c.rewrite_distance).c_str());
      os << line;
    }
    os << "Pre-store choice: " << prestore::ToString(f.advice) << "\n";
    for (const std::string& chain : f.top_callchains) {
      os << "  callchain: " << chain << "\n";
    }
  }
  return os.str();
}

Advice DirtBusterReport::OverallAdvice() const {
  // Preference order mirrors the paper's guidance strength: a skip
  // recommendation implies clean works too; demote is specific.
  bool any_skip = false;
  bool any_clean = false;
  bool any_demote = false;
  for (const FunctionReport& f : functions) {
    any_skip |= f.advice == Advice::kSkip;
    any_clean |= f.advice == Advice::kClean;
    any_demote |= f.advice == Advice::kDemote;
  }
  if (any_skip) {
    return Advice::kSkip;
  }
  if (any_clean) {
    return Advice::kClean;
  }
  if (any_demote) {
    return Advice::kDemote;
  }
  return Advice::kNone;
}

uint64_t DirtBuster::TotalIcount() const {
  uint64_t total = 0;
  for (uint32_t i = 0; i < machine_.num_cores(); ++i) {
    total += const_cast<Machine&>(machine_).core(i).icount();
  }
  return total;
}

DirtBusterReport DirtBuster::Analyze(const std::function<void()>& workload) {
  DirtBusterReport report;

  // ---- Pass 1: sampling (§6.2.1) ----
  SamplingProfiler sampler(machine_.registry());
  const uint64_t icount_before = TotalIcount();
  machine_.SetTraceSink(&sampler);
  workload();
  machine_.SetTraceSink(nullptr);
  const SampleProfile profile =
      sampler.Finalize(TotalIcount() - icount_before);

  report.store_instruction_fraction = profile.store_instruction_fraction;
  report.write_intensive =
      profile.store_instruction_fraction >= kWriteIntensiveFraction;
  if (!report.write_intensive) {
    // §7.1: "Adding pre-stores to these applications would have no effect.
    // We did not instrument these applications further."
    return report;
  }

  std::set<uint32_t> selected;
  for (const SampledFunction& f : profile.functions) {
    if (selected.size() >= kTopFunctions) {
      break;
    }
    if (f.store_share < kMinStoreShare) {
      break;  // sorted by stores: everything after is smaller
    }
    selected.insert(f.func_id);
  }

  // ---- Pass 2: binary instrumentation (§6.2.2, §6.2.3) ----
  PatternAnalyzer analyzer(machine_.config().line_size, selected);
  machine_.SetTraceSink(&analyzer);
  workload();
  machine_.SetTraceSink(nullptr);

  std::vector<FunctionAnalysis> analyses = analyzer.Finalize();
  for (FunctionAnalysis& analysis : analyses) {
    FunctionReport fr;
    const auto& info = machine_.registry().Function(analysis.func_id);
    fr.name = info.name;
    fr.location = info.location;
    for (const SampledFunction& f : profile.functions) {
      if (f.func_id == analysis.func_id) {
        fr.store_share = f.store_share;
        for (const auto& [chain_id, count] : f.top_chains) {
          std::string text;
          for (uint32_t func : machine_.registry().Chain(chain_id)) {
            if (!text.empty()) {
              text += " -> ";
            }
            text += machine_.registry().Function(func).name;
          }
          fr.top_callchains.push_back(std::move(text));
        }
        break;
      }
    }
    fr.advice = AdviseFunction(analysis);
    report.sequential_writer =
        report.sequential_writer ||
        analysis.seq_write_fraction >= kAdviceSeqFraction;
    report.writes_before_fence =
        report.writes_before_fence ||
        analysis.writes_before_fence_fraction >= kAdviceFenceFraction;
    fr.analysis = std::move(analysis);
    report.functions.push_back(std::move(fr));
  }
  return report;
}

}  // namespace prestore
