// dpnet command-line tool: generate, convert, sanitize, and privately
// analyze packet traces from the shell.
//
// Subcommands are described by one table (kSubcommands); the global usage
// text and every per-subcommand `--help` page are generated from it, so
// adding a command means adding one table row plus a handler.
//
// Formats are chosen by extension: .pcap (standard capture) or .dpnt
// (dpnet's native container, keeps exact timestamps and lengths).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/obs/log.hpp"
#include "dpnet.hpp"

namespace {

using namespace dpnet;
using net::Packet;

[[noreturn]] void usage();
[[noreturn]] void usage_for(const std::string& name);

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<Packet> load(const std::string& path) {
  if (ends_with(path, ".pcap")) {
    auto result = net::read_pcap_file(path);
    if (result.skipped > 0) {
      std::fprintf(stderr, "note: skipped %zu non-IPv4/TCP/UDP frames\n",
                   result.skipped);
    }
    return std::move(result.packets);
  }
  if (ends_with(path, ".dpnt")) return net::read_trace_file(path);
  std::fprintf(stderr, "error: unknown input format for %s\n", path.c_str());
  std::exit(2);
}

void save(const std::string& path, const std::vector<Packet>& trace) {
  if (ends_with(path, ".pcap")) {
    net::write_pcap_file(path, trace);
  } else if (ends_with(path, ".dpnt")) {
    net::write_trace_file(path, trace);
  } else {
    std::fprintf(stderr, "error: unknown output format for %s\n",
                 path.c_str());
    std::exit(2);
  }
}

/// Value of `--flag V` in args, or fallback.
std::string flag_value(const std::vector<std::string>& args,
                       const std::string& flag, const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return fallback;
}

/// Shared validation behind every numeric flag: `parse` is one of the
/// std::sto* family, the whole text must be consumed, and any failure
/// becomes one uniform `error: <flag> expects <kind>, got '<text>'`
/// line with exit 2 — the same contract for every subcommand.
template <typename Parse>
auto numeric_flag(const std::vector<std::string>& args,
                  const std::string& flag, const std::string& fallback,
                  const char* kind, Parse parse) {
  const std::string text = flag_value(args, flag, fallback);
  try {
    std::size_t used = 0;
    const auto value = parse(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag.c_str(),
                 kind, text.c_str());
    std::exit(2);
  }
}

std::uint64_t u64_flag(const std::vector<std::string>& args,
                       const std::string& flag, const std::string& fallback) {
  return numeric_flag(args, flag, fallback, "an unsigned integer",
                      [](const std::string& s, std::size_t* used) {
                        // stoull accepts a leading '-' and wraps; an
                        // unsigned flag must reject it instead.
                        if (s.find('-') != std::string::npos) {
                          throw std::invalid_argument(s);
                        }
                        return std::stoull(s, used);
                      });
}

double double_flag(const std::vector<std::string>& args,
                   const std::string& flag, const std::string& fallback) {
  return numeric_flag(args, flag, fallback, "a number",
                      [](const std::string& s, std::size_t* used) {
                        return std::stod(s, used);
                      });
}

bool has_flag(const std::vector<std::string>& args, const std::string& flag) {
  for (const auto& a : args) {
    if (a == flag) return true;
  }
  return false;
}

bool contains(const std::vector<std::string>& set, const std::string& s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

/// Rejects any `--flag` not in the allowed sets with a one-line
/// diagnostic and exit 2, so a typo like `--prometheous` can't silently
/// fall through to the default output mode.
void check_flags(const std::string& command,
                 const std::vector<std::string>& args,
                 const std::vector<std::string>& value_flags,
                 const std::vector<std::string>& bool_flags) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.size() < 2 || a[0] != '-' || a[1] != '-') continue;
    if (contains(value_flags, a)) {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "error: %s expects a value\n", a.c_str());
        std::exit(2);
      }
      ++i;  // skip the value
      continue;
    }
    if (contains(bool_flags, a)) continue;
    std::fprintf(stderr, "error: unknown flag %s for `%s`\n", a.c_str(),
                 command.c_str());
    usage_for(command);
  }
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.empty()) usage_for("gen");
  tracegen::HotspotConfig cfg = has_flag(args, "--full")
                                    ? tracegen::HotspotConfig{}
                                    : tracegen::HotspotConfig::small();
  cfg.seed = u64_flag(args, "--seed", "42");
  tracegen::HotspotGenerator gen(cfg);
  const auto trace = gen.generate();
  save(args[0], trace);
  std::printf("wrote %zu packets to %s (web-heavy hosts: %d)\n",
              trace.size(), args[0].c_str(), gen.web_heavy_hosts());
  return 0;
}

int cmd_convert(const std::vector<std::string>& args) {
  if (args.size() < 2) usage_for("convert");
  const auto trace = load(args[0]);
  save(args[1], trace);
  std::printf("converted %zu packets: %s -> %s\n", trace.size(),
              args[0].c_str(), args[1].c_str());
  return 0;
}

int cmd_stats(const std::vector<std::string>& args) {
  if (args.empty()) usage_for("stats");
  const auto trace = load(args[0]);
  const auto flows = net::compute_flow_stats(trace);
  std::uint64_t bytes = 0;
  std::size_t tcp = 0, udp = 0, with_payload = 0;
  double t_min = trace.empty() ? 0 : trace.front().timestamp;
  double t_max = t_min;
  for (const Packet& p : trace) {
    bytes += p.length;
    if (p.protocol == net::kProtoTcp) ++tcp;
    if (p.protocol == net::kProtoUdp) ++udp;
    if (!p.payload.empty()) ++with_payload;
    t_min = std::min(t_min, p.timestamp);
    t_max = std::max(t_max, p.timestamp);
  }
  std::printf("packets:       %zu (tcp %zu, udp %zu, payloads %zu)\n",
              trace.size(), tcp, udp, with_payload);
  std::printf("bytes:         %llu\n",
              static_cast<unsigned long long>(bytes));
  std::printf("flows:         %zu\n", flows.size());
  std::printf("duration:      %.3f s\n", t_max - t_min);
  std::printf("rtt samples:   %zu\n", net::handshake_rtts(trace).size());
  std::printf("retransmits:   %zu\n",
              net::retransmit_time_diffs_ms(trace).size());
  return 0;
}

int cmd_anonymize(const std::vector<std::string>& args) {
  if (args.size() < 2) usage_for("anonymize");
  net::AnonymizeOptions opt;
  opt.key = u64_flag(args, "--key", "1537228672809129301");
  opt.strip_payloads = !has_flag(args, "--keep-payloads");
  const auto trace = load(args[0]);
  save(args[1], net::anonymize_trace(trace, opt));
  std::printf("anonymized %zu packets (payloads %s) -> %s\n", trace.size(),
              opt.strip_payloads ? "stripped" : "kept", args[1].c_str());
  return 0;
}

void print_cdf(const toolkit::CdfEstimate& cdf, const char* unit) {
  std::printf("%12s %14s\n", unit, "count<=x");
  const std::size_t stride = std::max<std::size_t>(
      1, cdf.boundaries.size() / 20);
  for (std::size_t i = 0; i < cdf.boundaries.size(); i += stride) {
    std::printf("%12lld %14.1f\n",
                static_cast<long long>(cdf.boundaries[i]), cdf.values[i]);
  }
}

/// Runs one named analysis query against the protected view; returns false
/// when `query` is not recognized.  Shared by `analyze` and `trace`.
/// `threads` applies to the partitioned queries (service-mix): the parts
/// fan out through the executor, so a `trace --chrome --threads 4` run
/// renders real per-worker lanes.  threads == 1 is the sequential path.
/// `quiet` suppresses the human-readable answers so machine-readable
/// modes (`trace --json`) keep stdout a pure document.
bool run_analysis_query(core::Queryable<Packet>& packets,
                        const std::string& query, double eps,
                        std::size_t threads = 1, bool quiet = false) {
  if (query == "count") {
    const double count = packets.noisy_count(eps);
    if (!quiet) std::printf("noisy packet count: %.1f\n", count);
  } else if (query == "length-cdf") {
    const auto cdf = analysis::dp_packet_length_cdf(packets, eps, 50);
    if (!quiet) print_cdf(cdf, "bytes");
  } else if (query == "port-cdf") {
    const auto cdf = analysis::dp_port_cdf(packets, eps, 2048);
    if (!quiet) print_cdf(cdf, "port");
  } else if (query == "rtt-cdf") {
    const auto cdf = analysis::dp_rtt_cdf(packets, eps, 20);
    if (!quiet) print_cdf(cdf, "ms");
  } else if (query == "loss-cdf") {
    const auto cdf = analysis::dp_loss_cdf(packets, eps, 50);
    if (!quiet) print_cdf(cdf, "permille");
  } else if (query == "service-mix") {
    const auto clf = net::PacketClassifier::service_mix();
    std::vector<int> keys(clf.labels().size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<int>(i);
    }
    const core::exec::ExecPolicy policy(threads);
    auto parts = packets.partition(
        keys, [&clf](const Packet& p) { return clf.classify_index(p); },
        policy);
    const std::vector<double> counts = core::exec::map_parts(
        policy, keys, parts, [eps](int, const core::Queryable<Packet>& part) {
          return part.noisy_count(eps);
        });
    if (!quiet) {
      for (std::size_t c = 0; c < clf.labels().size(); ++c) {
        std::printf("%-14s %14.1f\n", clf.labels()[c].c_str(), counts[c]);
      }
    }
  } else {
    return false;
  }
  return true;
}

int cmd_analyze(const std::vector<std::string>& args) {
  if (args.size() < 2) usage_for("analyze");
  const double eps = double_flag(args, "--eps", "1.0");
  const double budget_total = double_flag(args, "--budget", "10");
  const auto trace = load(args[0]);
  const std::string query = args[1];

  auto audit = std::make_shared<core::AuditingBudget>(
      std::make_shared<core::RootBudget>(budget_total));
  core::Queryable<Packet> packets(
      trace, audit,
      std::make_shared<core::NoiseSource>(
          u64_flag(args, "--seed", "1")));
  core::ScopedAuditLabel label(*audit, query);

  if (!run_analysis_query(packets, query, eps)) usage_for("analyze");
  std::printf("privacy spent: %.4f of %.4f\n", audit->spent(), budget_total);
  return 0;
}

int cmd_trace(const std::vector<std::string>& args) {
  if (args.size() < 2) usage_for("trace");
  check_flags("trace", args, {"--eps", "--budget", "--seed", "--threads",
                              "--chrome", "--journal"},
              {"--json"});
  const double eps = double_flag(args, "--eps", "1.0");
  const double budget_total = double_flag(args, "--budget", "10");
  const bool want_json = has_flag(args, "--json");
  const auto threads =
      static_cast<std::size_t>(u64_flag(args, "--threads", "1"));
  const std::string chrome_out = flag_value(args, "--chrome", "");
  const std::string journal_out = flag_value(args, "--journal", "");
  // Start the journal from a clean slate so the flushed artifact covers
  // this query only, not whatever an earlier in-process run emitted.
  if (!journal_out.empty()) core::obs::EventJournal::global().clear();
  const auto trace = load(args[0]);
  const std::string query = args[1];

  auto audit = std::make_shared<core::AuditingBudget>(
      std::make_shared<core::RootBudget>(budget_total));
  core::Queryable<Packet> packets(
      trace, audit,
      std::make_shared<core::NoiseSource>(
          u64_flag(args, "--seed", "1")));

  core::QueryTrace query_trace;
  {
    core::TraceSession session(query_trace);
    core::ScopedAuditLabel label(*audit, query);
    if (!run_analysis_query(packets, query, eps, threads, want_json)) {
      usage_for("trace");
    }
  }

  if (!chrome_out.empty()) {
    std::FILE* f = std::fopen(chrome_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", chrome_out.c_str());
      return 1;
    }
    const std::string chrome = query_trace.to_chrome_json();
    std::fwrite(chrome.data(), 1, chrome.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    if (!want_json) {
      std::printf("wrote Chrome trace to %s (open in Perfetto or "
                  "chrome://tracing)\n",
                  chrome_out.c_str());
    }
  }

  if (!journal_out.empty()) {
    core::obs::EventJournal::global().flush_to_file(journal_out);
    if (!want_json) {
      std::printf("wrote event journal to %s (verify with "
                  "`dpnet_cli audit verify`)\n",
                  journal_out.c_str());
    }
  }

  if (want_json) {
    core::JsonWriter w;
    w.begin_object();
    w.key("query").value(query);
    w.key("trace").raw(query_trace.to_json());
    w.key("audit").raw(audit->to_json());
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("\n--- query trace ---\n%s", query_trace.pretty().c_str());
  std::printf("\n--- epsilon by operator ---\n");
  for (const auto& [op, charged] : query_trace.eps_by_op()) {
    if (charged > 0.0) std::printf("%-24s %10.4f\n", op.c_str(), charged);
  }
  std::printf("trace total: %.4f\n", query_trace.total_eps_charged());
  std::printf("privacy spent: %.4f of %.4f\n", audit->spent(), budget_total);
  return 0;
}

/// Writes `text` (plus a trailing newline) to `path`; one sanitized
/// diagnostic and a false return on failure.
bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

/// SIGTERM sets a flag and interrupts the blocking stdin read (the
/// handler is installed without SA_RESTART), so the serve loop falls
/// through to its normal shutdown path: drain, final journal flush,
/// final ops snapshot.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

/// Parses `--log-level` into an OpsLog level; exit 2 on anything else.
core::obs::LogLevel log_level_flag(const std::vector<std::string>& args) {
  const std::string text = flag_value(args, "--log-level", "info");
  if (text == "debug") return core::obs::LogLevel::kDebug;
  if (text == "info") return core::obs::LogLevel::kInfo;
  if (text == "warn") return core::obs::LogLevel::kWarn;
  if (text == "error") return core::obs::LogLevel::kError;
  std::fprintf(stderr,
               "error: --log-level expects debug|info|warn|error, got '%s'\n",
               text.c_str());
  std::exit(2);
}

int cmd_serve(const std::vector<std::string>& args) {
  if (args.empty()) usage_for("serve");
  check_flags("serve", args,
              {"--budget", "--cap", "--threads", "--queue",
               "--analyst-queue", "--deadline-ms", "--max-rows", "--seed",
               "--max-sessions", "--journal", "--ledger", "--trace-out",
               "--ops-snapshot", "--ops-snapshot-interval-ms",
               "--burn-alert-eta-s", "--ops-log", "--log-level"},
              {});
  serve::ServerConfig cfg;
  cfg.dataset_budget = double_flag(args, "--budget", "8");
  cfg.analyst_cap = double_flag(args, "--cap", "1");
  cfg.threads = static_cast<std::size_t>(u64_flag(args, "--threads", "4"));
  cfg.queue_capacity =
      static_cast<std::size_t>(u64_flag(args, "--queue", "64"));
  cfg.analyst_queue_capacity =
      static_cast<std::size_t>(u64_flag(args, "--analyst-queue", "8"));
  cfg.default_deadline_ms = u64_flag(args, "--deadline-ms", "2000");
  cfg.max_total_rows = u64_flag(args, "--max-rows", "0");
  cfg.seed = u64_flag(args, "--seed", "42");
  cfg.max_sessions =
      static_cast<std::size_t>(u64_flag(args, "--max-sessions", "16"));
  cfg.journal_path = flag_value(args, "--journal", "");
  cfg.ops_snapshot_path = flag_value(args, "--ops-snapshot", "");
  cfg.ops_snapshot_interval_ms =
      u64_flag(args, "--ops-snapshot-interval-ms", "1000");
  cfg.burn_alert_eta_s = double_flag(args, "--burn-alert-eta-s", "0");
  const std::string ledger_out = flag_value(args, "--ledger", "");
  const std::string trace_out = flag_value(args, "--trace-out", "");

  // The structured ops log replaces the old ad-hoc stderr narration:
  // one dpnet.log.v1 line per lifecycle transition and (at debug level)
  // per admission decision.  Default sink is stderr; --ops-log owns a
  // file with the schema header, for the CI artifact trail.
  core::obs::OpsLog& ops_log = core::obs::OpsLog::global();
  ops_log.set_min_level(log_level_flag(args));
  if (const std::string log_out = flag_value(args, "--ops-log", "");
      !log_out.empty()) {
    ops_log.open_file(log_out);
  } else {
    ops_log.use_stderr();
  }

  // Construction verifies and replays an existing journal file (crash
  // recovery); a tampered or overspent journal throws DpError, which
  // main() turns into `error: ...` and exit 1 — the server refuses to
  // start rather than refund budget.
  serve::QueryServer server(load(args[0]), cfg);
  for (const serve::RecoveredBudget& r : server.recovered()) {
    core::obs::log_event(core::obs::LogLevel::kInfo, "serve.recovered",
                         r.analyst, r.eps, "journal replay");
  }

  // A SIGTERM interrupts the getline below (no SA_RESTART) and runs the
  // same orderly shutdown as EOF — drain, flush, snapshot.
  struct sigaction sa = {};
  sa.sa_handler = &handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);

  core::obs::log_event(core::obs::LogLevel::kInfo, "serve.started", {}, 0.0,
                       "stdin");

  // Responses from pool workers interleave on stdout; one line each.
  std::mutex out_mutex;
  const serve::QueryServer::ResponseSink sink =
      [&out_mutex](const std::string& line) {
        const std::lock_guard<std::mutex> lock(out_mutex);
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
      };

  std::string line;
  std::size_t frames = 0;
  while (g_stop_requested == 0 && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    server.submit_frame(line, sink);
    ++frames;
  }
  server.drain();
  server.flush_journal();
  if (!ledger_out.empty() && !write_text_file(ledger_out,
                                              server.ledger_json())) {
    return 1;
  }
  if (!trace_out.empty() && !write_text_file(trace_out,
                                             server.trace_json())) {
    return 1;
  }
  std::ostringstream summary;
  summary << "frames=" << frames << " sessions=" << server.sessions();
  if (g_stop_requested != 0) summary << " sigterm";
  core::obs::log_event(core::obs::LogLevel::kInfo, "serve.stopped", {},
                       server.dataset_spent(), summary.str());
  return 0;
}

int cmd_metrics(const std::vector<std::string>& args) {
  if (args.empty()) usage_for("metrics");
  check_flags("metrics", args, {"--eps", "--seed"},
              {"--json", "--prometheus"});
  const double eps = double_flag(args, "--eps", "1.0");
  const bool want_json = has_flag(args, "--json");
  const bool want_prometheus = has_flag(args, "--prometheus");
  if (want_json && want_prometheus) {
    std::fprintf(stderr,
                 "error: --json and --prometheus are mutually exclusive\n");
    return 2;
  }
  const auto trace = load(args[0]);

  auto audit = std::make_shared<core::AuditingBudget>(
      std::make_shared<core::RootBudget>(1e6));
  core::Queryable<Packet> packets(
      trace, audit,
      std::make_shared<core::NoiseSource>(
          u64_flag(args, "--seed", "1")));
  // A small representative workload so the snapshot has something to
  // show.  The machine-readable modes keep stdout pure (JSON document /
  // Prometheus exposition only), so the workload runs silently there.
  const bool machine_readable = want_json || want_prometheus;
  const double noisy_count = packets.noisy_count(eps);
  const auto length_cdf = analysis::dp_packet_length_cdf(packets, eps, 50);
  if (!machine_readable) {
    std::printf("noisy packet count: %.1f\n", noisy_count);
    print_cdf(length_cdf, "bytes");
  }

  // Touch the robustness counters so the snapshot lists them even at
  // zero — operators grep for these names (docs/observability.md).
  core::builtin_metrics::queries_aborted();
  core::builtin_metrics::deadline_exceeded();
  core::builtin_metrics::records_quarantined();
  core::builtin_metrics::faults_injected();
  core::builtin_metrics::serve_sessions_active();
  core::builtin_metrics::serve_queue_depth();
  core::builtin_metrics::serve_requests_rejected();
  core::builtin_metrics::serve_requests_shed();
  core::builtin_metrics::journal_events_dropped();

  if (want_json) {
    std::printf("%s\n", core::MetricsRegistry::global().to_json().c_str());
  } else if (want_prometheus) {
    std::printf("%s",
                core::MetricsRegistry::global().to_prometheus().c_str());
  } else {
    std::printf("\n--- metrics ---\n%s",
                core::MetricsRegistry::global().pretty().c_str());
  }
  return 0;
}

/// Sum of eps over a ledger document's entries.  Accepts both a bare
/// AuditingBudget::to_json() document and the composite `trace --json`
/// output (where the ledger sits under "audit").
double ledger_eps_sum(const core::JsonValue& doc) {
  const core::JsonValue* ledger = doc.find("audit");
  if (ledger == nullptr) ledger = &doc;
  const core::JsonValue* entries = ledger->find("entries");
  if (entries == nullptr || !entries->is_array()) {
    throw core::InvalidQueryError(
        "ledger document has no 'entries' array (expected "
        "AuditingBudget::to_json() or `trace --json` output)");
  }
  double sum = 0.0;
  for (const core::JsonValue& e : entries->array) {
    const core::JsonValue* eps = e.find("eps");
    if (eps == nullptr || !eps->is_number()) {
      throw core::InvalidQueryError("ledger entry missing numeric 'eps'");
    }
    sum += eps->number;
  }
  return sum;
}

double span_eps_sum(const core::JsonValue& span) {
  double total = 0.0;
  const core::JsonValue* charged = span.find("eps_charged");
  if (charged != nullptr && charged->is_number()) total = charged->number;
  const core::JsonValue* children = span.find("children");
  if (children != nullptr && children->is_array()) {
    for (const core::JsonValue& child : children->array) {
      total += span_eps_sum(child);
    }
  }
  return total;
}

/// Sum of eps_charged over a trace document's spans.  Accepts both a
/// bare QueryTrace::to_json() document and `trace --json` output.
double trace_eps_sum(const core::JsonValue& doc) {
  const core::JsonValue* trace = doc.find("trace");
  if (trace == nullptr) trace = &doc;
  const core::JsonValue* spans = trace->find("spans");
  if (spans == nullptr || !spans->is_array()) {
    throw core::InvalidQueryError(
        "trace document has no 'spans' array (expected "
        "QueryTrace::to_json() or `trace --json` output)");
  }
  double total = 0.0;
  for (const core::JsonValue& span : spans->array) {
    total += span_eps_sum(span);
  }
  return total;
}

core::JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw core::InvalidQueryError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return core::parse_json(buf.str());
}

int cmd_audit(const std::vector<std::string>& args) {
  if (args.size() < 2) usage_for("audit");
  const std::string mode = args[0];
  const std::string path = args[1];

  if (mode == "verify") {
    check_flags("audit", args, {"--audit", "--trace"}, {});
    const core::obs::JournalVerification v =
        core::obs::verify_journal_file(path);
    if (!v.ok) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(), v.error.c_str());
      return 1;
    }
    // Offline reconciliation: the journal's charge events, the audit
    // ledger, and the query trace are three independent accounts of the
    // same session; for partition-free sessions all three epsilon sums
    // are exactly equal (docs/observability.md).
    bool reconciled_ledger = false;
    bool reconciled_trace = false;
    if (const std::string ledger = flag_value(args, "--audit", "");
        !ledger.empty()) {
      const double ledger_eps = ledger_eps_sum(parse_json_file(ledger));
      if (ledger_eps != v.charged_eps) {
        std::fprintf(stderr,
                     "error: journal charged eps %.17g != ledger eps %.17g "
                     "(%s)\n",
                     v.charged_eps, ledger_eps, ledger.c_str());
        return 1;
      }
      reconciled_ledger = true;
    }
    if (const std::string trace = flag_value(args, "--trace", "");
        !trace.empty()) {
      const double trace_eps = trace_eps_sum(parse_json_file(trace));
      if (trace_eps != v.charged_eps) {
        std::fprintf(stderr,
                     "error: journal charged eps %.17g != trace eps %.17g "
                     "(%s)\n",
                     v.charged_eps, trace_eps, trace.c_str());
        return 1;
      }
      reconciled_trace = true;
    }
    std::printf("journal ok: %zu event(s), %llu dropped by the ring\n",
                v.events, static_cast<unsigned long long>(v.dropped));
    std::printf("  charges     %8llu  (eps %.6g)\n",
                static_cast<unsigned long long>(v.charges), v.charged_eps);
    std::printf("  refusals    %8llu  (eps %.6g, never consumed)\n",
                static_cast<unsigned long long>(v.refusals), v.refused_eps);
    std::printf("  aborts      %8llu\n",
                static_cast<unsigned long long>(v.aborts));
    std::printf("  tasks       %8llu\n",
                static_cast<unsigned long long>(v.tasks));
    std::printf("  faults      %8llu\n",
                static_cast<unsigned long long>(v.faults));
    std::printf("  quarantined %8llu\n",
                static_cast<unsigned long long>(v.quarantined));
    if (reconciled_ledger || reconciled_trace) {
      std::printf("reconciled: journal eps%s%s (exact)\n",
                  reconciled_ledger ? " == ledger eps" : "",
                  reconciled_trace ? " == trace eps" : "");
    }
    return 0;
  }

  if (mode == "tail") {
    check_flags("audit", args, {"--last"}, {"--json"});
    const auto last = static_cast<std::size_t>(
        u64_flag(args, "--last", "10"));
    const bool want_json = has_flag(args, "--json");
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
      return 1;
    }
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(std::move(line));
    }
    if (lines.empty()) {
      std::fprintf(stderr, "error: %s is empty\n", path.c_str());
      return 1;
    }
    // The most recent `last` event records, oldest first.  The header,
    // batch closing lines, and a torn final line are not events.
    std::vector<std::pair<const std::string*, core::JsonValue>> tail;
    for (auto it = lines.rbegin(); it != lines.rend() && tail.size() < last;
         ++it) {
      try {
        core::JsonValue rec = core::parse_json(*it);
        if (rec.is_object() && rec.find("kind") != nullptr) {
          tail.emplace_back(&*it, std::move(rec));
        }
      } catch (const core::JsonParseError&) {
        // a line cut short by a crash: not an event
      }
    }
    for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
      if (want_json) {
        std::printf("%s\n", it->first->c_str());
        continue;
      }
      const core::JsonValue& rec = it->second;
      const auto num = [&rec](const char* field) {
        const core::JsonValue* f = rec.find(field);
        return (f != nullptr && f->is_number()) ? f->number : 0.0;
      };
      const auto text = [&rec](const char* field) {
        const core::JsonValue* f = rec.find(field);
        return (f != nullptr && f->is_string()) ? f->string : std::string();
      };
      std::printf("%8.0f %-10s %-20s node=%016llx eps=%-10.4g %s\n",
                  num("seq"), text("kind").c_str(),
                  (text("label").empty() ? "-" : text("label")).c_str(),
                  static_cast<unsigned long long>(num("node_id")),
                  num("eps"), text("detail").c_str());
    }
    return 0;
  }

  usage_for("audit");
}

/// Renders one dpnet.ops.v1 snapshot as a human-readable board.
void render_ops_snapshot(const core::JsonValue& doc,
                         const std::string& path) {
  const auto num = [](const core::JsonValue& obj, const char* field,
                      double fallback = 0.0) {
    const core::JsonValue* f = obj.find(field);
    return (f != nullptr && f->is_number()) ? f->number : fallback;
  };
  const auto fmt_or_dash = [](double v, char* buf, std::size_t n) {
    if (v < 0) {
      std::snprintf(buf, n, "-");
    } else {
      std::snprintf(buf, n, "%.4g", v);
    }
    return buf;
  };

  std::printf("dpnet top — %s\n", path.c_str());
  std::printf("uptime %.1f s   frames %.0f   sessions %.0f   queue %.0f   "
              "in-flight %.0f\n",
              num(doc, "uptime_ms") / 1000.0, num(doc, "frames"),
              num(doc, "sessions"), num(doc, "queue_depth"),
              num(doc, "in_flight"));
  if (const core::JsonValue* dataset = doc.find("dataset");
      dataset != nullptr) {
    std::printf("dataset eps: spent %.6g, remaining %.6g\n",
                num(*dataset, "spent"), num(*dataset, "remaining"));
  }
  if (const core::JsonValue* latency = doc.find("latency");
      latency != nullptr) {
    std::printf("latency ms (n=%.0f): p50 %.3g  p95 %.3g  p99 %.3g\n",
                num(*latency, "count"), num(*latency, "p50"),
                num(*latency, "p95"), num(*latency, "p99"));
  }
  std::printf("peak rss %.0f kb   throughput %.4g records/s\n",
              num(doc, "peak_rss_kb"), num(doc, "records_per_sec"));

  const core::JsonValue* analysts = doc.find("analysts");
  if (analysts == nullptr || !analysts->is_array() ||
      analysts->array.empty()) {
    std::printf("(no analyst sessions)\n");
    return;
  }
  std::printf("%-16s %10s %10s %12s %10s %7s\n", "analyst", "spent",
              "remaining", "burn eps/s", "eta s", "queued");
  for (const core::JsonValue& a : analysts->array) {
    const core::JsonValue* name = a.find("analyst");
    char remaining[32], eta[32];
    std::printf("%-16s %10.4g %10s %12.4g %10s %7.0f\n",
                (name != nullptr && name->is_string()) ? name->string.c_str()
                                                       : "?",
                num(a, "spent"),
                fmt_or_dash(num(a, "remaining", -1.0), remaining,
                            sizeof remaining),
                num(a, "burn_rate"),
                fmt_or_dash(num(a, "eta_s", -1.0), eta, sizeof eta),
                num(a, "queued"));
  }
}

int cmd_top(const std::vector<std::string>& args) {
  if (args.empty()) usage_for("top");
  check_flags("top", args, {"--interval-ms", "--count"},
              {"--json", "--watch"});
  const std::string path = args[0];
  const bool want_json = has_flag(args, "--json");
  const bool watch = has_flag(args, "--watch");
  const std::uint64_t interval_ms = u64_flag(args, "--interval-ms", "1000");
  // --count bounds a --watch loop (0 = until interrupted); one-shot mode
  // renders exactly once regardless.
  const std::uint64_t count = u64_flag(args, "--count", "0");

  std::uint64_t shown = 0;
  for (;;) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    // Parse before printing anything: --json output is only ever a
    // document the in-tree parser accepted, so it round-trips.
    const core::JsonValue doc = core::parse_json(text);
    const core::JsonValue* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->string != "dpnet.ops.v1") {
      std::fprintf(stderr, "error: %s is not a dpnet.ops.v1 snapshot\n",
                   path.c_str());
      return 1;
    }
    if (watch && !want_json && shown > 0) std::printf("\x1b[2J\x1b[H");
    if (want_json) {
      std::printf("%s\n", text.c_str());
    } else {
      render_ops_snapshot(doc, path);
    }
    std::fflush(stdout);
    ++shown;
    if (!watch) break;
    if (count != 0 && shown >= count) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

using Handler = int (*)(const std::vector<std::string>&);

struct Subcommand {
  const char* name;
  const char* synopsis;  // arguments, shown after the command name
  const char* summary;   // one line for the global usage listing
  const char* flags;     // flag detail for the per-command help ("" if none)
  Handler handler;
};

constexpr Subcommand kSubcommands[] = {
    {"gen", "<out.{pcap,dpnt}> [--seed N] [--full]",
     "generate a synthetic hotspot packet trace",
     "  --seed N   generator seed (default 42)\n"
     "  --full     full-size configuration (default: small)\n",
     &cmd_gen},
    {"convert", "<in> <out>",
     "convert between .pcap and .dpnt containers", "", &cmd_convert},
    {"stats", "<in>",
     "exact trace statistics (trusted side, no privacy)", "", &cmd_stats},
    {"anonymize", "<in> <out> [--key N] [--keep-payloads]",
     "prefix-preserving IP anonymization",
     "  --key N           anonymization key\n"
     "  --keep-payloads   keep packet payloads (default: strip)\n",
     &cmd_anonymize},
    {"analyze", "<in> <query> [--eps E] [--budget B] [--seed N]",
     "run a differentially-private analysis",
     "  query: count | length-cdf | port-cdf | rtt-cdf | loss-cdf |\n"
     "         service-mix\n"
     "  --eps E      epsilon per query (default 1.0)\n"
     "  --budget B   total privacy budget (default 10)\n"
     "  --seed N     noise seed (default 1)\n",
     &cmd_analyze},
    {"trace",
     "<in> <query> [--eps E] [--budget B] [--seed N] [--threads T]\n"
     "                   [--json] [--chrome OUT.json] [--journal OUT.jsonl]",
     "run an analysis and show its query-plan trace",
     "  query: as for `analyze`\n"
     "  --json        print the trace and audit ledger as one JSON document\n"
     "  --chrome OUT  also write a Chrome trace_event timeline (open in\n"
     "                Perfetto or chrome://tracing; workers get own lanes)\n"
     "  --journal OUT also flush the privacy event journal (hash-chained\n"
     "                dpnet.events.v1 JSONL; check with `audit verify`)\n"
     "  --threads T   executor threads for partitioned queries (default 1)\n"
     "  --eps E       epsilon per query (default 1.0)\n"
     "  --budget B    total privacy budget (default 10)\n"
     "  --seed N      noise seed (default 1)\n",
     &cmd_trace},
    {"audit",
     "verify <journal.jsonl> [--audit LEDGER.json] [--trace TRACE.json]\n"
     "                   | tail <journal.jsonl> [--last N] [--json]",
     "verify or tail a flushed privacy event journal",
     "  verify: replay the hash chain and schema of a dpnet.events.v1\n"
     "          journal (e.g. from `trace --journal`); with --audit /\n"
     "          --trace, also reconcile the journal's charged epsilon sum\n"
     "          against the audit ledger / query trace (exact match;\n"
     "          accepts `trace --json` documents too)\n"
     "  tail:   print the most recent journal events\n"
     "  --last N      events to show (default 10)\n"
     "  --json        print raw journal lines instead of columns\n",
     &cmd_audit},
    {"serve",
     "<in> [--budget B] [--cap C] [--threads T] [--queue N]\n"
     "                   [--analyst-queue N] [--deadline-ms D] [--max-rows N]\n"
     "                   [--seed N] [--max-sessions N] [--journal PATH]\n"
     "                   [--ledger OUT.json] [--trace-out OUT.json]\n"
     "                   [--ops-snapshot PATH] [--ops-snapshot-interval-ms N]\n"
     "                   [--ops-log PATH] [--burn-alert-eta-s S] [--log-level L]",
     "serve mediated queries over line-delimited JSON on stdin",
     "  requests:  {\"id\":1,\"analyst\":\"alice\",\"query\":\"count\","
     "\"eps\":0.125}\n"
     "  queries:   count | count-tcp | count-udp | count-port (\"port\" "
     "field)\n"
     "  --budget B        shared dataset budget (default 8)\n"
     "  --cap C           per-analyst budget cap (default 1)\n"
     "  --threads T       worker threads (default 4)\n"
     "  --queue N         server-wide admission queue; above it requests\n"
     "                    are shed as \"overloaded\" (default 64)\n"
     "  --analyst-queue N per-analyst queue; above it requests get\n"
     "                    \"backpressure\" (default 8)\n"
     "  --deadline-ms D   default per-request deadline (default 2000)\n"
     "  --max-rows N      per-request work quota in rows (default off)\n"
     "  --seed N          noise seed base (default 42)\n"
     "  --max-sessions N  distinct analyst principals (default 16)\n"
     "  --journal PATH    durable event journal, append-only: each\n"
     "                    response waits until its events are appended\n"
     "                    and fdatasync'ed (workers finishing together\n"
     "                    share one append); verified and replayed at\n"
     "                    startup for crash-safe budget recovery, which\n"
     "                    also compacts the file\n"
     "  --ledger OUT      write the merged audit ledger at shutdown\n"
     "  --trace-out OUT   write the server query trace at shutdown\n"
     "  --ops-snapshot PATH  live dpnet.ops.v1 state file for\n"
     "                    `dpnet_cli top` (atomic replace, never torn)\n"
     "  --ops-snapshot-interval-ms N  snapshot cadence (default 1000)\n"
     "  --burn-alert-eta-s S  journal a budget.alert when an analyst's\n"
     "                    projected time-to-exhaustion drops below S\n"
     "                    seconds (default off)\n"
     "  --ops-log PATH    structured dpnet.log.v1 ops log, flushed per\n"
     "                    line (default: JSON lines on stderr)\n"
     "  --log-level L     debug|info|warn|error (default info; debug\n"
     "                    logs every admission decision, rate-limited\n"
     "                    per kind with a \"suppressed\" count)\n",
     &cmd_serve},
    {"top",
     "<snapshot.json> [--json] [--watch] [--interval-ms N] [--count N]",
     "render a serve ops snapshot (budgets, burn rates, queues)",
     "  reads the dpnet.ops.v1 file that `serve --ops-snapshot` keeps\n"
     "  current: queue depth, in-flight requests, per-analyst budgets\n"
     "  with burn-rate forecasts, latency percentiles, peak RSS\n"
     "  --json            print the raw snapshot document (validated)\n"
     "  --watch           re-render every interval until interrupted\n"
     "  --interval-ms N   refresh cadence under --watch (default 1000)\n"
     "  --count N         stop --watch after N renders (default: run on)\n",
     &cmd_top},
    {"metrics", "<in> [--eps E] [--seed N] [--json | --prometheus]",
     "run a sample workload and dump the metrics registry",
     "  --json        print the snapshot as JSON\n"
     "  --prometheus  print the snapshot in Prometheus text exposition\n"
     "                format (scrape-ready)\n"
     "  --eps E       epsilon per query (default 1.0)\n"
     "  --seed N      noise seed (default 1)\n",
     &cmd_metrics},
};

const Subcommand* find_subcommand(const std::string& name) {
  for (const Subcommand& sc : kSubcommands) {
    if (name == sc.name) return &sc;
  }
  return nullptr;
}

void print_help_for(std::FILE* out, const Subcommand& sc) {
  std::fprintf(out, "usage: dpnet_cli %s %s\n", sc.name, sc.synopsis);
  std::fprintf(out, "  %s\n", sc.summary);
  if (sc.flags[0] != '\0') std::fprintf(out, "%s", sc.flags);
}

void print_usage(std::FILE* out) {
  std::fprintf(out, "usage: dpnet_cli <command> [args]\n\ncommands:\n");
  for (const Subcommand& sc : kSubcommands) {
    std::fprintf(out, "  %-10s %s\n", sc.name, sc.summary);
  }
  std::fprintf(out,
               "\nrun `dpnet_cli help <command>` or "
               "`dpnet_cli <command> --help` for details\n");
}

[[noreturn]] void usage() {
  print_usage(stderr);
  std::exit(2);
}

[[noreturn]] void usage_for(const std::string& name) {
  const Subcommand* sc = find_subcommand(name);
  if (sc != nullptr) {
    print_help_for(stderr, *sc);
  } else {
    print_usage(stderr);
  }
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);

  if (command == "--help" || command == "-h") {
    print_usage(stdout);
    return 0;
  }
  if (command == "help") {
    if (args.empty()) {
      print_usage(stdout);
      return 0;
    }
    const Subcommand* sc = find_subcommand(args[0]);
    if (sc == nullptr) usage();
    print_help_for(stdout, *sc);
    return 0;
  }

  const Subcommand* sc = find_subcommand(command);
  if (sc == nullptr) usage();
  if (has_flag(args, "--help") || has_flag(args, "-h")) {
    print_help_for(stdout, *sc);
    return 0;
  }
  // Every failure becomes one sanitized line on stderr and a nonzero
  // exit.  Engine errors (TraceIoError, DpError) carry index/operator
  // diagnostics only — never record contents or analyst exception text —
  // so printing what() here stays inside the privacy boundary.
  try {
    return sc->handler(args);
  } catch (const net::TraceIoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const core::DpError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "error: unexpected internal failure\n");
    return 1;
  }
}
