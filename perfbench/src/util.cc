#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "exec/executor.h"
#include "harness/true_selectivity.h"
#include "server/context_cache.h"
#include "workloads/queries.h"

namespace perfbench {

using namespace robustqp;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int Rng::Below(int n) {
  return static_cast<int>(Next() % static_cast<uint64_t>(n));
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string Metrics::Json() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    os << (i ? ", " : "") << "\"" << order_[i] << "\": {\"value\": " << buf
       << ", \"unit\": \"" << unit << "\"}";
  }
  os << "}";
  return os.str();
}

void CheckLog::Fail(const std::string& what) {
  // Report the first few in full; the count says how many there were.
  if (failures_ < 20) std::cerr << "CHECK FAILED: " << what << "\n";
  ++failures_;
}

// --------------------------------------------------------- request model

ServiceRequest ToServiceRequest(const BenchRequest& r) {
  ServiceRequest req;
  req.query_id = r.query_id;
  req.mode = r.mode;
  req.qa = r.qa;
  req.use_engine = r.use_engine;
  req.options.ess_threads = kWorkers;
  req.options.use_feedback = r.use_feedback;
  req.options.cost_model =
      r.commercial ? CostModel::CommercialFlavour() : CostModel::PostgresFlavour();
  return req;
}

std::string ToSubmitLine(const BenchRequest& r) {
  std::ostringstream os;
  os << "SUBMIT query=" << r.query_id << " mode=" << RobustnessModeName(r.mode);
  if (!r.qa.empty()) {
    os << " qa=";
    for (size_t d = 0; d < r.qa.size(); ++d) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", r.qa[d]);
      os << (d ? "," : "") << buf;
    }
  }
  if (r.use_engine) os << " use_engine=1";
  if (r.use_feedback) os << " feedback=1";
  return os.str();
}

bool IsDiscovery(RobustnessMode mode) { return mode != RobustnessMode::kNative; }

double PlatformBound(int dims) {
  return static_cast<double>(dims * dims + 3 * dims);
}

int SuiteDims(const std::string& query_id) {
  static std::mutex mu;
  static std::map<std::string, int> dims;
  std::lock_guard<std::mutex> lock(mu);
  auto it = dims.find(query_id);
  if (it == dims.end()) {
    it = dims.emplace(query_id, MakeSuiteQuery(query_id).num_epps()).first;
  }
  return it->second;
}

// ---------------------------------------------------------------- tracer

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

int Tracer::NameId(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int Tracer::FindName(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int Tracer::Begin(int64_t request, const std::string& name, int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.request = request;
  s.name = NameId(name);
  s.parent = parent;
  s.t0_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  const int64_t t = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].t1_ns = t;
}

void Tracer::Rename(int span, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].name = NameId(name);
}

std::vector<double> Tracer::PerRequestMs(const std::vector<std::string>& names) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> ids;
  for (const std::string& name : names) ids.push_back(FindName(name));
  std::map<int64_t, double> per;
  for (const Span& s : spans_) {
    if (std::find(ids.begin(), ids.end(), s.name) != ids.end()) {
      per[s.request] += static_cast<double>(s.t1_ns - s.t0_ns) / 1e6;
    }
  }
  std::vector<double> out;
  for (const auto& [req, ms] : per) out.push_back(ms);
  return out;
}

std::vector<double> Tracer::PerRequestSelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = FindName(name);
  std::map<int64_t, double> per;
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.t1_ns - s.t0_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == id) {
      per[s.request] +=
          static_cast<double>(s.t1_ns - s.t0_ns - child_ns[i]) / 1e6;
    }
  }
  std::vector<double> out;
  for (const auto& [req, ms] : per) out.push_back(ms);
  return out;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = FindName(name);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == id) out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e6);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"request\": %" PRId64
                 ", \"name\": \"%s\", \"parent\": %d, \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 "}\n",
                 i, s.request, names_[static_cast<size_t>(s.name)].c_str(),
                 s.parent, s.t0_ns, s.t1_ns);
  }
  return std::fclose(f) == 0;
}

void TimingOracle::Count(const ExecOutcome& out) {
  ++executions;
  charged += out.cost_charged;
  if (out.completed) {
    ++completed;
  } else {
    aborted_charged += out.cost_charged;
  }
  report_ = inner_->report();
}

ExecOutcome TimingOracle::ExecuteFull(const Plan& plan, double budget) {
  ExecOutcome out;
  {
    ScopedSpan span(tracer_, request_, full_span_, parent_);
    out = inner_->ExecuteFull(plan, budget);
  }
  Count(out);
  return out;
}

ExecOutcome TimingOracle::ExecuteSpill(const Plan& plan, int dim, double budget,
                                       const std::vector<double>& learned) {
  ExecOutcome out;
  {
    ScopedSpan span(tracer_, request_, spill_span_, parent_);
    out = inner_->ExecuteSpill(plan, dim, budget, learned);
  }
  ++spill_executions;
  Count(out);
  return out;
}

// ------------------------------------------------------------ references

namespace {

/// The shared catalog a suite query runs against.
std::shared_ptr<Catalog> SuiteCatalog(const std::string& query_id) {
  return IsJobQuery(query_id) ? ContextCache::JobCatalog()
                              : ContextCache::TpcdsCatalog();
}

}  // namespace

ReferenceOptimizers::Slot& ReferenceOptimizers::Get(const std::string& query_id,
                                                    bool commercial) {
  const std::string key = query_id + (commercial ? "|commercial" : "|pg");
  Slot& slot = slots_[key];
  if (slot.optimizer == nullptr) {
    slot.query = std::make_unique<Query>(MakeSuiteQuery(query_id));
    slot.optimizer = std::make_unique<Optimizer>(
        SuiteCatalog(query_id).get(), slot.query.get(),
        commercial ? CostModel::CommercialFlavour() : CostModel::PostgresFlavour());
  }
  return slot;
}

double ReferenceOptimizers::OptimumAt(const std::string& query_id,
                                      bool commercial,
                                      const std::vector<double>& qa) {
  Slot& slot = Get(query_id, commercial);
  const int dims = slot.query->num_epps();
  const LogAxis axis(kMinSel, DefaultPointsPerDim(dims));
  EssPoint q(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    const int idx = qa.empty() ? axis.points() / 2
                               : axis.NearestIndex(qa[static_cast<size_t>(d)]);
    q[static_cast<size_t>(d)] = axis.value(idx);
  }
  const std::unique_ptr<Plan> plan = slot.optimizer->Optimize(q);
  return slot.optimizer->PlanCost(*plan, q);
}

EngineReference ComputeEngineReference(const std::string& query_id) {
  const std::shared_ptr<Catalog> catalog = SuiteCatalog(query_id);
  const Query query = MakeSuiteQuery(query_id);
  const Optimizer optimizer(catalog.get(), &query, CostModel::PostgresFlavour());
  const std::unique_ptr<Plan> plan =
      optimizer.Optimize(ComputeTrueSelectivities(*catalog, query));
  Executor::Options opts;
  opts.engine = Executor::Engine::kTuple;
  opts.num_threads = 1;
  const Executor executor(catalog.get(), CostModel::PostgresFlavour(), opts);
  Result<ExecutionResult> res = executor.Execute(*plan, -1.0);
  EngineReference ref;
  if (res.ok() && res.value().completed) {
    ref.output_rows = res.value().output_rows;
    ref.cost = res.value().cost_used;
  }
  return ref;
}

// ------------------------------------------------------ payload equality

namespace {

template <typename T>
bool Same(const T& a, const T& b) {
  return a == b;
}
bool Same(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

std::string PayloadDiff(const ServiceResponse& a, const ServiceResponse& b) {
#define RQP_DIFF(field)                                        \
  if (!Same(a.field, b.field)) return std::string(#field);
  RQP_DIFF(status.code());
  RQP_DIFF(algorithm);
  RQP_DIFF(completed);
  RQP_DIFF(cost_used);
  RQP_DIFF(opt_cost);
  RQP_DIFF(suboptimality);
  RQP_DIFF(guarantee);
  RQP_DIFF(feedback_hit);
  RQP_DIFF(warm_started);
  RQP_DIFF(warm_completed);
  RQP_DIFF(feedback_drift);
  RQP_DIFF(discovery.completed);
  RQP_DIFF(discovery.total_cost);
  RQP_DIFF(discovery.final_contour);
  RQP_DIFF(discovery.max_replacement_penalty);
  RQP_DIFF(discovery.warm_cost);
  RQP_DIFF(discovery.steps.size());
  for (size_t i = 0; i < a.discovery.steps.size(); ++i) {
    RQP_DIFF(discovery.steps[i].contour);
    RQP_DIFF(discovery.steps[i].plan_name);
    RQP_DIFF(discovery.steps[i].spill_dim);
    RQP_DIFF(discovery.steps[i].budget);
    RQP_DIFF(discovery.steps[i].cost_charged);
    RQP_DIFF(discovery.steps[i].completed);
    RQP_DIFF(discovery.steps[i].learned_sel);
    RQP_DIFF(discovery.steps[i].qrun.size());
    for (size_t d = 0; d < a.discovery.steps[i].qrun.size(); ++d) {
      RQP_DIFF(discovery.steps[i].qrun[d]);
    }
  }
  RQP_DIFF(execution.completed);
  RQP_DIFF(execution.cost_used);
  RQP_DIFF(execution.output_rows);
  RQP_DIFF(execution.node_stats.size());
  for (size_t i = 0; i < a.execution.node_stats.size(); ++i) {
    RQP_DIFF(execution.node_stats[i].left_in);
    RQP_DIFF(execution.node_stats[i].right_in);
    RQP_DIFF(execution.node_stats[i].out);
    RQP_DIFF(execution.node_stats[i].filter_in);
    RQP_DIFF(execution.node_stats[i].filter_pass);
  }
  RQP_DIFF(robustness.transient_retries);
  RQP_DIFF(robustness.engine_degradations);
#undef RQP_DIFF
  return "";
}

std::string WireField(const std::string& line, const std::string& key) {
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok.size() > key.size() && tok.compare(0, key.size(), key) == 0 &&
        tok[key.size()] == '=') {
      return tok.substr(key.size() + 1);
    }
  }
  return "";
}

std::string MaskWireLine(const std::string& line) {
  std::istringstream is(line);
  std::string tok;
  std::string out;
  while (is >> tok) {
    if (tok.rfind("id=", 0) == 0 || tok.rfind("cache_hit=", 0) == 0 ||
        tok.rfind("queue_ms=", 0) == 0 || tok.rfind("run_ms=", 0) == 0) {
      continue;
    }
    out += (out.empty() ? "" : " ") + tok;
  }
  return out;
}

}  // namespace perfbench
