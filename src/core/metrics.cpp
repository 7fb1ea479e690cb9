#include "core/metrics.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <optional>
#include <unordered_map>

#include "core/errors.hpp"
#include "core/json.hpp"

namespace dpnet::core {

namespace {

/// Prometheus metric name: `dpnet_` prefix, every character outside
/// [a-zA-Z0-9_] (dots in our names) mapped to '_'.
std::string prometheus_name(const std::string& name) {
  std::string out = "dpnet_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void append_line(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_line(std::string& out, const char* fmt, ...) {
  char line[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(line, sizeof line, fmt, ap);
  va_end(ap);
  out += line;
}

/// Prometheus label-value escaping per text exposition format 0.0.4:
/// backslash, double-quote, and line-feed must be escaped; everything
/// else passes through verbatim.  Analyst labels are analyst-chosen
/// strings, so hostile values must never break the line discipline.
std::string prometheus_label_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

/// Splits a per-analyst series name ("budget.spent.<label>") into its
/// family and the analyst label, so the exposition can render the family
/// once with the analyst as a label value instead of minting one mangled
/// metric name per analyst.
struct AnalystSeries {
  std::string_view family;  // "budget.spent"
  std::string_view label;   // analyst label, verbatim
};
std::optional<AnalystSeries> split_analyst_series(const std::string& name) {
  static constexpr std::string_view kFamilies[] = {
      "budget.spent.",     "budget.remaining.", "budget.refusals.",
      "budget.burn_rate.", "budget.eta_s.",
  };
  for (const std::string_view prefix : kFamilies) {
    if (name.size() > prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix) {
      return AnalystSeries{prefix.substr(0, prefix.size() - 1),
                           std::string_view(name).substr(prefix.size())};
    }
  }
  return std::nullopt;
}

/// Emits "# TYPE" once per exposition family (labeled series share one
/// declaration), tracking the last family declared.
void declare_type(std::string& out, const std::string& pname,
                  const char* kind, std::string& last_declared) {
  if (pname == last_declared) return;
  append_line(out, "# TYPE %s %s\n", pname.c_str(), kind);
  last_declared = pname;
}

/// Never-touched `serve.*` series are registered by accessor plumbing in
/// every process but only move when a query server actually runs;
/// suppressing them keeps scrapes of non-server processes clean.
bool suppress_in_prometheus(const std::string& name, bool touched) {
  return !touched && name.rfind("serve.", 0) == 0;
}

}  // namespace

double Histogram::percentile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  // Read the buckets once and rank against that same view, so a
  // concurrent observe() can never push the target rank past the counts
  // being walked.
  std::vector<std::uint64_t> counts(buckets_.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target) {
      // The overflow bucket has no upper edge: report its lower bound.
      if (i >= bounds_.size()) return bounds_.empty() ? 0.0 : bounds_.back();
      const double upper = bounds_[i];
      const double lower = i == 0 ? std::min(0.0, upper) : bounds_[i - 1];
      const double frac =
          (target - cumulative) / static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count();
  s.sum = sum();
  s.p50 = percentile(0.50);
  s.p95 = percentile(0.95);
  s.p99 = percentile(0.99);
  return s;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[std::string(name)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[std::string(name)];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else if (slot->bounds() != bounds) {
    throw InvalidQueryError("histogram '" + std::string(name) +
                            "' re-registered with different bounds");
  }
  return *slot;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.key(name).value(c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.key(name).value(g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot snap = h->snapshot();
    w.key(name).begin_object();
    w.key("count").value(h->count());
    w.key("sum").value(h->sum());
    w.key("p50").value(snap.p50);
    w.key("p95").value(snap.p95);
    w.key("p99").value(snap.p99);
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      w.begin_object();
      w.key("upper_bound");
      if (i < h->bounds().size()) {
        w.value(h->bounds()[i]);
      } else {
        w.null();  // overflow bucket
      }
      w.key("count").value(h->bucket(i));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string MetricsRegistry::to_prometheus() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string last_declared;
  for (const auto& [name, c] : counters_) {
    if (suppress_in_prometheus(name, c->touched())) continue;
    if (const auto split = split_analyst_series(name)) {
      const std::string pname = prometheus_name(std::string(split->family));
      declare_type(out, pname, "counter", last_declared);
      out += pname + "{analyst=\"" + prometheus_label_escape(split->label) +
             "\"} ";
      append_line(out, "%llu\n", static_cast<unsigned long long>(c->value()));
      continue;
    }
    const std::string pname = prometheus_name(name);
    declare_type(out, pname, "counter", last_declared);
    append_line(out, "%s %llu\n", pname.c_str(),
                static_cast<unsigned long long>(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    if (suppress_in_prometheus(name, g->touched())) continue;
    if (const auto split = split_analyst_series(name)) {
      const std::string pname = prometheus_name(std::string(split->family));
      declare_type(out, pname, "gauge", last_declared);
      out += pname + "{analyst=\"" + prometheus_label_escape(split->label) +
             "\"} ";
      append_line(out, "%.17g\n", g->value());
      continue;
    }
    const std::string pname = prometheus_name(name);
    declare_type(out, pname, "gauge", last_declared);
    append_line(out, "%s %.17g\n", pname.c_str(), g->value());
  }
  for (const auto& [name, h] : histograms_) {
    const std::string pname = prometheus_name(name);
    append_line(out, "# TYPE %s histogram\n", pname.c_str());
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      cumulative += h->bucket(i);
      append_line(out, "%s_bucket{le=\"%.17g\"} %llu\n", pname.c_str(),
                  h->bounds()[i],
                  static_cast<unsigned long long>(cumulative));
    }
    cumulative += h->bucket(h->bounds().size());
    append_line(out, "%s_bucket{le=\"+Inf\"} %llu\n", pname.c_str(),
                static_cast<unsigned long long>(cumulative));
    append_line(out, "%s_sum %.17g\n", pname.c_str(), h->sum());
    append_line(out, "%s_count %llu\n", pname.c_str(),
                static_cast<unsigned long long>(h->count()));
  }
  return out;
}

std::string MetricsRegistry::pretty() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  char line[160];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof line, "%-32s %20llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += line;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(line, sizeof line, "%-32s %20.6g\n", name.c_str(),
                  g->value());
    out += line;
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(line, sizeof line, "%-32s count=%llu sum=%.6g\n",
                  name.c_str(), static_cast<unsigned long long>(h->count()),
                  h->sum());
    out += line;
  }
  return out;
}

namespace builtin_metrics {

Counter& queries_executed() {
  static Counter& c = MetricsRegistry::global().counter("queries.executed");
  return c;
}

Counter& refused_charges() {
  static Counter& c = MetricsRegistry::global().counter("budget.refused");
  return c;
}

Counter& noise_draws() {
  static Counter& c = MetricsRegistry::global().counter("noise.draws");
  return c;
}

Counter& queries_aborted() {
  static Counter& c = MetricsRegistry::global().counter("queries.aborted");
  return c;
}

Counter& deadline_exceeded() {
  static Counter& c = MetricsRegistry::global().counter("deadline.exceeded");
  return c;
}

Counter& records_quarantined() {
  static Counter& c =
      MetricsRegistry::global().counter("records.quarantined");
  return c;
}

Counter& faults_injected() {
  static Counter& c = MetricsRegistry::global().counter("faults.injected");
  return c;
}

Counter& bytes_processed() {
  static Counter& c = MetricsRegistry::global().counter("bytes.processed");
  return c;
}

Gauge& serve_sessions_active() {
  static Gauge& g = MetricsRegistry::global().gauge("serve.sessions.active");
  return g;
}

Gauge& serve_queue_depth() {
  static Gauge& g = MetricsRegistry::global().gauge("serve.queue.depth");
  return g;
}

Counter& serve_requests_rejected() {
  static Counter& c =
      MetricsRegistry::global().counter("serve.requests.rejected");
  return c;
}

Counter& serve_requests_shed() {
  static Counter& c =
      MetricsRegistry::global().counter("serve.requests.shed");
  return c;
}

Counter& journal_events_dropped() {
  static Counter& c =
      MetricsRegistry::global().counter("journal.events.dropped");
  return c;
}

namespace {

/// String hash that also takes string_views, for allocation-free lookups.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Resolves a name-keyed handle once per thread: the registry never
/// erases an entry, so the cached pointer stays valid, and a hit takes
/// no registry lock and builds no string.  Each call site instantiates
/// its own cache (`resolve` is a distinct lambda type).
template <typename Metric, typename Resolve>
Metric& cached_handle(std::string_view name, const Resolve& resolve) {
  thread_local std::unordered_map<std::string, Metric*, NameHash,
                                  std::equal_to<>>
      cache;
  if (const auto it = cache.find(name); it != cache.end()) return *it->second;
  Metric& metric = resolve();
  cache.emplace(std::string(name), &metric);
  return metric;
}

}  // namespace

Gauge& eps_charged(std::string_view mechanism) {
  return cached_handle<Gauge>(mechanism, [mechanism]() -> Gauge& {
    return MetricsRegistry::global().gauge("eps.charged." +
                                           std::string(mechanism));
  });
}

namespace {
std::string analyst_series(const char* prefix, std::string_view label) {
  std::string name(prefix);
  name += label.empty() ? std::string_view("unlabeled") : label;
  return name;
}
}  // namespace

Gauge& budget_spent(std::string_view label) {
  return MetricsRegistry::global().gauge(
      analyst_series("budget.spent.", label));
}

Gauge& budget_remaining(std::string_view label) {
  return MetricsRegistry::global().gauge(
      analyst_series("budget.remaining.", label));
}

Counter& budget_refusals(std::string_view label) {
  return MetricsRegistry::global().counter(
      analyst_series("budget.refusals.", label));
}

Gauge& budget_burn_rate(std::string_view label) {
  return MetricsRegistry::global().gauge(
      analyst_series("budget.burn_rate.", label));
}

Gauge& budget_eta_s(std::string_view label) {
  return MetricsRegistry::global().gauge(
      analyst_series("budget.eta_s.", label));
}

Histogram& query_wall_ms() {
  static Histogram& h = MetricsRegistry::global().histogram(
      "query.wall_ms", {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0});
  return h;
}

Histogram& op_wall_ms(std::string_view kind) {
  return cached_handle<Histogram>(kind, [kind]() -> Histogram& {
    return MetricsRegistry::global().histogram(
        "op.wall_ms." + std::string(kind),
        {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0});
  });
}

void observe_op_wall_ms(std::string_view kind, double ms) {
  if (!op_histograms_enabled()) return;
  op_wall_ms(kind).observe(ms);
}

}  // namespace builtin_metrics

}  // namespace dpnet::core
