#include "dpnet_lint/lint.hpp"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "dpnet_lint/index.hpp"
#include "dpnet_lint/tokenizer.hpp"

namespace dpnet::lint {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// True for names that denote privacy parameters: eps, epsilon, eps_*,
/// epsilon_*, *_eps, *_epsilon.
bool epsilon_name(std::string_view name) {
  return name == "eps" || name == "epsilon" || starts_with(name, "eps_") ||
         starts_with(name, "epsilon_") || ends_with(name, "_eps") ||
         ends_with(name, "_epsilon");
}

bool zero_literal(const std::string& text) {
  return std::strtod(text.c_str(), nullptr) == 0.0;
}

// Declaration-specifier keywords that may legitimately precede a
// constructor name; a candidate whose whole prefix is specifiers is a
// constructor, not a value-returning method.
bool specifier(const std::string& t) {
  return t == "explicit" || t == "inline" || t == "constexpr" ||
         t == "static" || t == "friend" || t == "virtual" || t == "typename";
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

class Analysis {
 public:
  Analysis(std::string_view rel_path, const TokenizedFile& file,
           const std::vector<FunctionDef>& functions, const ChargeGraph& graph)
      : path_(rel_path),
        cls_(classify(rel_path)),
        file_(file),
        toks_(file.tokens),
        supp_(file.supp),
        functions_(functions),
        graph_(graph) {}

  std::vector<Finding> run() {
    rule_unsafe_calls();
    rule_raw_randomness();
    rule_nodiscard();
    rule_raw_ownership();
    rule_epsilon_literals();
    rule_telemetry_fields();
    rule_thread_creation();
    rule_exception_text();
    SemanticInput in;
    in.path = path_;
    in.cls = cls_;
    in.file = &file_;
    in.functions = &functions_;
    in.graph = &graph_;
    for (RawFinding& raw : run_semantic_rules(in)) {
      report(raw.rule, raw.line, std::move(raw.message));
    }
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    fingerprint_all();
    return std::move(findings_);
  }

 private:
  void report(const std::string& rule, int line, std::string message) {
    if (supp_.suppressed(rule, line)) return;
    findings_.push_back(
        {std::string(path_), line, rule, std::move(message), {}});
  }

  /// Stable identity for each finding: hashes the rule, the file path, and
  /// the token text of the finding's line — so the fingerprint survives
  /// edits elsewhere in the file that only shift line numbers.  Identical
  /// (rule, line-content) pairs get an occurrence ordinal so SARIF baselines
  /// can track them individually.
  void fingerprint_all() {
    std::unordered_map<std::uint64_t, int> seen;
    for (Finding& f : findings_) {
      std::uint64_t h = fnv1a(f.rule);
      h = fnv1a(f.file, h);
      for (const Token& t : toks_) {
        if (t.line != f.line) continue;
        h = fnv1a(t.text, h);
        h = fnv1a("|", h);
      }
      const int ordinal = seen[h]++;
      h = fnv1a(std::to_string(ordinal), h);
      f.fingerprint = to_hex(h);
    }
  }

  /// R1: *_unsafe() confined to trusted code.
  void rule_unsafe_calls() {
    if (cls_.allow_unsafe) return;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != Kind::Ident || !ends_with(t.text, "_unsafe")) continue;
      if (!next_is(toks_, i, "(")) continue;
      if (supp_.trusted_line(t.line)) continue;
      report("R1", t.line,
             t.text + "() bypasses the privacy curtain; only tests/, "
                      "bench/, src/tracegen/, and '// dpnet-lint: trusted' "
                      "regions may use *_unsafe accessors");
    }
  }

  /// R2: all randomness flows through core::NoiseSource.
  void rule_raw_randomness() {
    if (cls_.is_noise || cls_.harness) return;
    static const std::unordered_set<std::string> kEngines = {
        "random_device", "mt19937",       "mt19937_64",
        "minstd_rand",   "minstd_rand0",  "default_random_engine",
        "ranlux24",      "ranlux48",      "ranlux24_base",
        "ranlux48_base", "knuth_b"};
    static const std::unordered_set<std::string> kCalls = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "srand48"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != Kind::Ident) continue;
      const bool engine = kEngines.count(t.text) > 0;
      const bool call = kCalls.count(t.text) > 0 && next_is(toks_, i, "(");
      if (!engine && !call) continue;
      if (supp_.trusted_line(t.line)) continue;
      report("R2", t.line,
             t.text + " used directly; route randomness through "
                      "core::NoiseSource (src/core/noise.hpp) so draws are "
                      "seedable and auditable");
    }
  }

  /// R3: public aggregation / Queryable-returning declarations in src/
  /// headers must be [[nodiscard]].
  void rule_nodiscard() {
    if (!cls_.in_src || !cls_.is_header) return;
    std::size_t stmt_start = 0;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind == Kind::Punct &&
          (t.text == ";" || t.text == "{" || t.text == "}")) {
        stmt_start = i + 1;
        continue;
      }
      // Access labels reset the statement without ending a declaration.
      if (t.kind == Kind::Ident &&
          (t.text == "public" || t.text == "private" ||
           t.text == "protected") &&
          next_is(toks_, i, ":") && !next_is(toks_, i + 1, ":")) {
        stmt_start = i + 2;
        ++i;
        continue;
      }
      if (t.kind != Kind::Ident || !next_is(toks_, i, "(")) continue;

      const bool agg_name = starts_with(t.text, "noisy_") ||
                            ends_with(t.text, "_mechanism") ||
                            t.text == "exponential_quantile" ||
                            t.text == "exponential_median";
      bool queryable_return = false;
      bool has_nodiscard = false;
      bool is_expr = false;
      bool only_specifiers = true;
      if (i == stmt_start) is_expr = true;  // no return type: expression
      for (std::size_t k = stmt_start; k < i; ++k) {
        const std::string& p = toks_[k].text;
        if (p == "Queryable") queryable_return = true;
        if (p == "nodiscard") has_nodiscard = true;
        if (p == "return" || p == "throw" || p == "=" || p == "co_return") {
          is_expr = true;
        }
        if (toks_[k].kind == Kind::Ident && !specifier(p)) {
          only_specifiers = false;
        }
      }
      if (!agg_name && !queryable_return) continue;
      // Member / qualified / argument-position uses are calls, not decls.
      if (prev_is(toks_, i, ".") || prev_is(toks_, i, "(") ||
          prev_is(toks_, i, ",") || prev_is(toks_, i, ":") ||
          (prev_is(toks_, i, ">") && i >= 2 && toks_[i - 2].text == "-")) {
        continue;
      }
      if (is_expr || only_specifiers || has_nodiscard) continue;
      report("R3", t.line,
             t.text + " returns analyst-visible information; declare it "
                      "[[nodiscard]] so a discarded result (which still "
                      "charges the budget) is a compile-time warning");
    }
  }

  /// R4: no raw owning new/delete/malloc.
  void rule_raw_ownership() {
    static const std::unordered_set<std::string> kAlloc = {
        "malloc", "calloc", "realloc", "free", "strdup"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != Kind::Ident) continue;
      if (t.text == "new" || t.text == "delete") {
        if (prev_is(toks_, i, "operator")) continue;
        if (t.text == "delete" && prev_is(toks_, i, "=")) continue;
        report("R4", t.line,
               "raw '" + t.text + "' — use value semantics or "
                                  "std::make_unique/std::make_shared "
                                  "(C++ Core Guidelines R.11)");
      } else if (kAlloc.count(t.text) > 0 && next_is(toks_, i, "(") &&
                 !prev_is(toks_, i, ".") &&
                 !(prev_is(toks_, i, ">") && i >= 2 &&
                   toks_[i - 2].text == "-")) {
        report("R4", t.line,
               t.text + "() allocates untracked memory; use RAII "
                        "containers or smart pointers");
      }
    }
  }

  /// R5: epsilon values in library code come from the caller's budget
  /// policy, never from a hard-coded literal (zero sentinels are fine).
  void rule_epsilon_literals() {
    if (!cls_.in_src) return;
    for (std::size_t i = 0; i + 2 < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != Kind::Ident || !epsilon_name(t.text)) continue;
      const Token& op = toks_[i + 1];
      if (op.kind != Kind::Punct || (op.text != "=" && op.text != "{")) {
        continue;
      }
      std::size_t v = i + 2;
      if (toks_[v].kind == Kind::Punct && toks_[v].text == "-" &&
          v + 1 < toks_.size()) {
        ++v;
      }
      if (toks_[v].kind != Kind::Number || zero_literal(toks_[v].text)) {
        continue;
      }
      report("R5", t.line,
             "hard-coded epsilon '" + toks_[v].text + "' for '" + t.text +
                 "'; accuracy levels must be chosen by the analyst against "
                 "a PrivacyBudget, not baked into src/");
    }
  }

  /// R6: telemetry serializes only approved fields.  In the files that
  /// build JSON telemetry (traces, metrics, ledgers, bench reports), every
  /// string literal passed to a JsonWriter key() must come from the
  /// approved-field list in docs/observability.md — so a change that would
  /// leak a new field (worst case, record payloads) into the telemetry
  /// stream fails the lint until the field is reviewed and listed here.
  void rule_telemetry_fields() {
    if (!cls_.telemetry) return;
    static const std::unordered_set<std::string> kApprovedFields = {
        // query trace (src/core/trace.cpp)
        "spans", "op", "detail", "stability", "input_rows", "output_rows",
        "eps_requested", "eps_charged", "mechanism", "wall_ms", "children",
        // timeline stamps + Chrome trace_event export (src/core/trace.cpp):
        // microsecond begin/duration, worker lane, and the trace_event
        // envelope — all scheduling metadata, never record contents
        "ts_us", "dur_us", "worker", "traceEvents", "cat", "ph", "ts",
        "dur", "pid", "tid", "args", "displayTimeUnit",
        // metrics snapshot (src/core/metrics.cpp)
        "counters", "gauges", "histograms", "count", "sum", "buckets",
        "upper_bound", "p50", "p95", "p99",
        // audit ledger (src/core/audit.hpp)
        "spent", "entries", "eps", "label", "totals_by_label", "node_id",
        // bench report (bench/common.hpp) and CLI trace output
        "schema", "name", "title", "reproduces", "results", "section", "key",
        "value", "paper", "measured", "trace", "audit", "metrics", "query",
        "threads", "speedup_vs_1thread",
        // robustness counters (docs/robustness.md) — accounting metadata
        "queries.aborted", "deadline.exceeded", "records.quarantined",
        "faults.injected",
        // privacy event journal (src/core/obs/journal.cpp): event kinds,
        // causal keys, and the hash chain — accounting metadata only
        // (label/node_id/eps shared with the ledger above)
        "events", "dropped", "chain", "seq", "kind",
        // resource telemetry (bench/common.hpp, src/core/trace.cpp)
        "peak_rss_kb", "records_per_sec",
        // query-server wire protocol (src/serve/protocol.cpp): frame
        // ids, the analyst principal, sanitized taxonomy error names,
        // and budget positions — accounting metadata only
        "id", "status", "analyst", "error", "retryable", "remaining",
        // query-server ops metrics (src/serve/, docs/robustness.md)
        "serve.sessions.active", "serve.queue.depth",
        "serve.requests.rejected", "serve.requests.shed",
        // structured ops log (src/core/obs/log.cpp): severity plus the
        // per-kind rate-limit suppression count
        "level", "suppressed",
        // live ops snapshot (src/serve/server.cpp, dpnet.ops.v1): queue
        // and budget positions, burn-rate forecasts, latency summary —
        // accounting metadata only, rendered by `dpnet_cli top`
        "uptime_ms", "frames", "sessions", "queue_depth", "in_flight",
        "dataset", "analysts", "burn_rate", "eta_s", "queued", "latency"};
    for (const StringLit& lit : file_.strings) {
      if (lit.token_slot < 2) continue;
      const Token& open = toks_[lit.token_slot - 1];
      const Token& callee = toks_[lit.token_slot - 2];
      if (open.kind != Kind::Punct || open.text != "(") continue;
      if (callee.kind != Kind::Ident || callee.text != "key") continue;
      if (kApprovedFields.count(lit.text) > 0) continue;
      report("R6", lit.line,
             "telemetry field '" + lit.text +
                 "' is not on the approved list; telemetry may only "
                 "serialize accounting metadata, never record contents "
                 "(docs/observability.md)");
    }
  }

  /// R7: threads are created only by the executor.  Ad-hoc std::thread /
  /// std::jthread / std::async use elsewhere would run releases outside
  /// the scheduler that guarantees deterministic noise, merged traces, and
  /// synchronized budget charges — so parallelism is confined to
  /// src/core/exec/ (plus explicitly suppressed harness code).
  void rule_thread_creation() {
    if (cls_.in_exec) return;
    static const std::unordered_set<std::string> kThreadNames = {
        "thread", "jthread", "async"};
    for (std::size_t i = 3; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != Kind::Ident || kThreadNames.count(t.text) == 0) continue;
      if (!(prev_is(toks_, i, ":") && toks_[i - 2].text == ":" &&
            toks_[i - 3].text == "std")) {
        continue;
      }
      // Qualified statics (std::thread::hardware_concurrency(), ::id, ...)
      // query thread facilities without creating threads.
      if (next_is(toks_, i, ":") && i + 2 < toks_.size() &&
          toks_[i + 2].text == ":") {
        continue;
      }
      report("R7", t.line,
             "std::" + t.text +
                 " outside src/core/exec/; all parallelism flows through "
                 "core::exec so noise determinism, trace merging, and "
                 "budget synchronization are enforced in one place");
    }
  }

  /// R8: exception text stays behind the privacy boundary.  An analyst
  /// exception's what() can interpolate record contents, so engine code
  /// in src/ never reads it — core::contain_analyst deliberately discards
  /// it and rethrows a sanitized AnalystCodeError carrying only the
  /// operator name and plan-node id.  Only trusted code (tests/, bench/,
  /// tools/, examples/) may print what(); this rule makes that boundary
  /// mechanical (docs/robustness.md).
  void rule_exception_text() {
    if (!cls_.in_src) return;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != Kind::Ident || t.text != "what") continue;
      if (!next_is(toks_, i, "(")) continue;
      if (supp_.trusted_line(t.line)) continue;
      report("R8", t.line,
             "what() read inside src/; exception text may interpolate "
             "record contents — throw a sanitized error from "
             "core/errors.hpp (node id + operator name only) and leave "
             "printing what() to trusted code outside src/");
    }
  }

  std::string_view path_;
  FileClass cls_;
  const TokenizedFile& file_;
  const std::vector<Token>& toks_;
  const Suppressions& supp_;
  const std::vector<FunctionDef>& functions_;
  const ChargeGraph& graph_;
  std::vector<Finding> findings_;
};

}  // namespace

const std::vector<RuleMeta>& rule_table() {
  static const std::vector<RuleMeta> kRules = {
      {"R1",
       "*_unsafe() accessors only in trusted code (tests/, bench/, "
       "src/tracegen/, trusted regions)"},
      {"R2", "randomness flows through core::NoiseSource, never raw "
             "engines or rand()"},
      {"R3", "analyst-visible declarations in src/ headers carry "
             "[[nodiscard]]"},
      {"R4", "no raw owning new/delete/malloc — RAII and value semantics"},
      {"R5", "no hard-coded epsilon literals in src/"},
      {"R6", "telemetry serializes approved accounting fields only"},
      {"R7", "thread creation confined to src/core/exec/"},
      {"R8", "exception what() never read inside src/"},
      {"R9", "no *_unsafe-derived value reaches a telemetry or exception "
             "sink (taint dataflow)"},
      {"R10", "every noise release is preceded by a budget charge "
              "(charge-before-release)"},
      {"R11", "row-scaled loops in executor/materialization code contain "
              "a guard checkpoint"},
      {"R12", "no NoiseSource captured into lambdas handed to "
              "map_parts/submit"},
  };
  return kRules;
}

bool wants_file(std::string_view rel_path) {
  if (!(ends_with(rel_path, ".cpp") || ends_with(rel_path, ".cc") ||
        ends_with(rel_path, ".hpp") || ends_with(rel_path, ".h") ||
        ends_with(rel_path, ".hh"))) {
    return false;
  }
  // The fixture corpus deliberately violates the rules; the repo gate
  // must not scan it.
  if (starts_with(rel_path, "tests/lint/corpus/")) return false;
  return starts_with(rel_path, "src/") || starts_with(rel_path, "tests/") ||
         starts_with(rel_path, "bench/") ||
         starts_with(rel_path, "examples/") ||
         starts_with(rel_path, "tools/");
}

std::vector<Finding> analyze_file(std::string_view rel_path,
                                  const TokenizedFile& file,
                                  const std::vector<FunctionDef>& functions,
                                  const ChargeGraph& graph) {
  return Analysis(rel_path, file, functions, graph).run();
}

std::vector<Finding> analyze_source(std::string_view rel_path,
                                    std::string_view content) {
  const TokenizedFile file = tokenize(content);
  const std::vector<FunctionDef> functions = scan_functions(file.tokens);
  ChargeGraph graph;
  for (const FunctionFact& fact : collect_facts(functions)) graph.add(fact);
  return analyze_file(rel_path, file, functions, graph);
}

std::string format(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace dpnet::lint
