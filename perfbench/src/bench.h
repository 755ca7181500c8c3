// Shared pieces of the end-to-end benchmark program: arguments, the seeded
// request model, statistics, metric output, the span tracer, and the
// reference computations the output checks compare against.
//
// The benchmark only uses the repository's public headers. Everything it
// measures per layer is measured from outside, around calls into that
// layer (see Tracer and TimingOracle below), so the program under test carries no benchmark
// code.

#ifndef ROBUSTQP_PERFBENCH_BENCH_H_
#define ROBUSTQP_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/oracle.h"
#include "optimizer/optimizer.h"
#include "query/query.h"
#include "server/query_service.h"

namespace perfbench {

using robustqp::RobustnessMode;

// ---------------------------------------------------------------- sizing
// Thread budget: the service pool, every ESS build and the sweep each use
// at most this many workers, leaving the rest of a 4-core host free.
constexpr int kWorkers = 2;
// Lower end of every ESS axis (Ess::Config::min_sel's default).
constexpr double kMinSel = 1e-5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// SplitMix64: a fixed, platform-independent generator so that one seed
/// yields one request list everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n).
  int Below(int n);
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(Below(static_cast<int>(i)))]);
    }
  }

 private:
  uint64_t state_;
};

inline double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Percentile (0 <= p <= 100) of `v`, interpolated linearly between the
/// closest ranks; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);
double Median(const std::vector<double>& v);
double Sum(const std::vector<double>& v);
/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// Ordered name -> (value, unit) list printed as the result line.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Records a failed output check; the run then reports correct=false and
/// exits non-zero.
class CheckLog {
 public:
  void Fail(const std::string& what);
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

// --------------------------------------------------------- request model

/// One generated request: which suite query, which mode, which q_a, on
/// which oracle, under which cost-model flavour.
struct BenchRequest {
  std::string query_id;
  RobustnessMode mode = RobustnessMode::kSpillBound;
  std::vector<double> qa;  // empty: engine truth (or the grid midpoint)
  bool use_engine = false;
  bool commercial = false;  // CostModel::CommercialFlavour instead of PG
  bool use_feedback = false;
};

robustqp::ServiceRequest ToServiceRequest(const BenchRequest& r);
/// The TCP line for `r`; selectivities are written with every digit.
std::string ToSubmitLine(const BenchRequest& r);
bool IsDiscovery(RobustnessMode mode);
/// SpillBound's and AlignedBound's guarantee D^2 + 3D.
double PlatformBound(int dims);
int SuiteDims(const std::string& query_id);

// ---------------------------------------------------------------- tracer

/// In-memory span recorder. A span is (request, name, parent, start, end);
/// spans of one request share the request id. Thread-safe.
class Tracer {
 public:
  struct Span {
    int64_t request = -1;
    int name = -1;
    int parent = -1;
    int64_t t0_ns = 0;
    int64_t t1_ns = 0;
  };

  int Begin(int64_t request, const std::string& name, int parent = -1);
  void End(int span);
  void Rename(int span, const std::string& name);
  /// Per request, in request order: the summed duration of its spans named
  /// in `names`, in ms (requests without such spans are skipped).
  std::vector<double> PerRequestMs(const std::vector<std::string>& names) const;
  /// Per request: duration of `name` spans minus the time their direct
  /// children cover, in ms.
  std::vector<double> PerRequestSelfMs(const std::string& name) const;
  /// Durations of every `name` span, in ms.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Writes one JSON object per span.
  bool Write(const std::string& path) const;

 private:
  int NameId(const std::string& name);
  int FindName(const std::string& name) const;

  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, int64_t request, const std::string& name,
             int parent = -1)
      : t_(t), id_(t != nullptr ? t->Begin(request, name, parent) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

/// Execution-oracle decorator: forwards every call to `inner`, wrapping
/// it in a span and counting executions, completions and charged cost.
class TimingOracle : public robustqp::ExecutionOracle {
 public:
  TimingOracle(robustqp::ExecutionOracle* inner, Tracer* tracer,
               int64_t request, int parent, std::string full_span,
               std::string spill_span)
      : inner_(inner),
        tracer_(tracer),
        request_(request),
        parent_(parent),
        full_span_(std::move(full_span)),
        spill_span_(std::move(spill_span)) {}

  robustqp::ExecOutcome ExecuteFull(const robustqp::Plan& plan,
                                    double budget) override;
  robustqp::ExecOutcome ExecuteSpill(const robustqp::Plan& plan, int dim,
                                     double budget,
                                     const std::vector<double>& learned) override;
  int num_shards() const override { return inner_->num_shards(); }
  std::vector<double> ObservedSelectivities() const override {
    return inner_->ObservedSelectivities();
  }

  int64_t executions = 0;
  int64_t spill_executions = 0;
  int64_t completed = 0;
  double charged = 0.0;
  double aborted_charged = 0.0;

 private:
  void Count(const robustqp::ExecOutcome& out);

  robustqp::ExecutionOracle* inner_;
  Tracer* tracer_;
  int64_t request_;
  int parent_;
  std::string full_span_;
  std::string spill_span_;
};

// ------------------------------------------------------------ references

/// Optimizers built apart from any served context, one per (query,
/// flavour), for the reference optimum at a snapped q_a.
class ReferenceOptimizers {
 public:
  /// Optimal cost at the grid point the service snaps `qa` to
  /// (Optimizer::Optimize + PlanCost there). Empty qa = grid midpoint.
  double OptimumAt(const std::string& query_id, bool commercial,
                   const std::vector<double>& qa);

 private:
  struct Slot {
    std::unique_ptr<robustqp::Query> query;
    std::unique_ptr<robustqp::Optimizer> optimizer;
  };
  Slot& Get(const std::string& query_id, bool commercial);
  std::map<std::string, Slot> slots_;
};

/// The engine-mode reference for one query: the plan optimal at the
/// data's true selectivities, executed by the tuple engine.
struct EngineReference {
  int64_t output_rows = 0;
  double cost = 0.0;
};
EngineReference ComputeEngineReference(const std::string& query_id);

/// Bitwise comparison of the deterministic payload of two responses
/// (everything but ids, timings and cache state). Empty when equal,
/// otherwise the first difference.
std::string PayloadDiff(const robustqp::ServiceResponse& a,
                        const robustqp::ServiceResponse& b);
/// A wire answer with its id, cache_hit, queue_ms and run_ms fields
/// removed, for payload comparison.
std::string MaskWireLine(const std::string& line);
/// Value of `key=` in a wire line, or empty.
std::string WireField(const std::string& line, const std::string& key);

}  // namespace perfbench

#endif  // ROBUSTQP_PERFBENCH_BENCH_H_
