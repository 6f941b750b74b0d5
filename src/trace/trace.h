// Trace substrate: the reproduction's stand-in for perf sampling and Intel
// PIN binary instrumentation (paper §6).
//
// Every memory operation executed on a simulated core can be emitted as a
// TraceRecord. Workloads annotate their "functions" with ScopedFunction so
// records carry a function id and a callchain id — the same information
// DirtBuster extracts from perf callchains and PIN routine instrumentation.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace prestore {

enum class TraceKind : uint8_t {
  kLoad,
  kStore,
  kNtStore,   // non-temporal (cache-skipping) store
  kPrestore,  // demote or clean hint
  kFence,
  kAtomic,  // atomic RMW / CAS: has fence semantics (paper §4.2)
};

struct TraceRecord {
  TraceKind kind;
  uint8_t core_id;
  uint32_t size;
  uint64_t addr;
  uint64_t icount;    // instructions retired by this core so far
  uint32_t func_id;   // innermost annotated function (kInvalidFunc if none)
  uint32_t chain_id;  // interned callchain (kInvalidChain if none)
};

inline constexpr uint32_t kInvalidFunc = 0xffffffff;
inline constexpr uint32_t kInvalidChain = 0xffffffff;

// Receives records from simulated cores (one host thread drives every core,
// so calls never overlap).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Record(const TraceRecord& rec) = 0;
};

// Interns function names ("symbols") and callchains. Shared by all cores of a
// machine.
class FunctionRegistry {
 public:
  struct FunctionInfo {
    std::string name;
    std::string location;  // "file:line" as reported by DirtBuster
  };

  uint32_t Intern(const std::string& name, const std::string& location) {
    auto it = by_name_.find(name);
    if (it != by_name_.end()) {
      return it->second;
    }
    const auto id = static_cast<uint32_t>(functions_.size());
    functions_.push_back(FunctionInfo{name, location});
    by_name_.emplace(name, id);
    return id;
  }

  // Interns a callchain (outermost → innermost function ids).
  uint32_t InternChain(const std::vector<uint32_t>& chain) {
    std::string key;
    key.reserve(chain.size() * 4);
    for (uint32_t f : chain) {
      key.append(reinterpret_cast<const char*>(&f), 4);
    }
    auto it = chain_ids_.find(key);
    if (it != chain_ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<uint32_t>(chains_.size());
    chains_.push_back(chain);
    chain_ids_.emplace(std::move(key), id);
    return id;
  }

  const FunctionInfo& Function(uint32_t id) const {
    return functions_[id];
  }

  std::vector<uint32_t> Chain(uint32_t id) const {
    return chains_[id];
  }

  size_t NumFunctions() const {
    return functions_.size();
  }

 private:
  std::vector<FunctionInfo> functions_;
  std::unordered_map<std::string, uint32_t> by_name_;
  std::vector<std::vector<uint32_t>> chains_;
  std::unordered_map<std::string, uint32_t> chain_ids_;
};

}  // namespace prestore

#endif  // SRC_TRACE_TRACE_H_
