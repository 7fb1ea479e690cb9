// Offline journal verification: replays a "dpnet.events.v1" JSONL
// document — an offline flush or a server's durable log — recomputes
// the FNV-1a hash chain link by link, and tallies the event sums that
// `dpnet_cli audit verify` reconciles against the audit ledger and the
// query trace, and that a restarted server replays.  This is the library
// half of the chaos suite's in-process invariant, turned into an
// artifact check an operator can run long after the process died.
//
// Grammar (journal.hpp): a header line counting the records that follow
// it, then any number of appended batches, each a run of records closed
// by {"events":K} counting them.
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "core/json.hpp"
#include "core/obs/journal.hpp"

namespace dpnet::core::obs {

namespace {

JournalVerification failed(std::size_t line_no, const std::string& why) {
  JournalVerification v;
  v.ok = false;
  v.error = "line " + std::to_string(line_no + 1) + ": " + why;
  return v;
}

/// Splits one journal line into the hashed body and the stored chain
/// link.  The chain field is by construction the final member of every
/// line, so everything before `,"chain":"` is exactly what was hashed.
bool split_chain(std::string_view line, std::string_view& body,
                 std::string_view& stored_hex) {
  static constexpr std::string_view kMarker = ",\"chain\":\"";
  const std::size_t pos = line.rfind(kMarker);
  if (pos == std::string_view::npos) return false;
  body = line.substr(0, pos);
  std::string_view rest = line.substr(pos + kMarker.size());
  if (rest.size() != 16 + 2 || rest.substr(16) != "\"}") return false;
  stored_hex = rest.substr(0, 16);
  return true;
}

bool parse_hex64(std::string_view hex, std::uint64_t& out) {
  out = 0;
  for (const char c : hex) {
    out <<= 4;
    if (c >= '0' && c <= '9') {
      out |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      out |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  return true;
}

/// True when `segment` (a final line with no newline) holds a complete
/// chain field: then it is a finished line that was altered, not a
/// write cut short.
bool has_complete_chain(std::string_view segment) {
  static constexpr std::string_view kMarker = ",\"chain\":\"";
  const std::size_t pos = segment.rfind(kMarker);
  return pos != std::string_view::npos &&
         segment.size() - pos - kMarker.size() >= 16 + 2;
}

/// Reads a count field: a non-negative integer no larger than 2^53 (a
/// hand-edited file can re-chain any value, so it is range-checked
/// before the cast).
bool read_count(const JsonValue* field, std::uint64_t& out) {
  if (field == nullptr || !field->is_number()) return false;
  const double n = field->number;
  if (!(n >= 0.0 && n <= 9007199254740992.0)) return false;
  out = static_cast<std::uint64_t>(n);
  return static_cast<double>(out) == n;  // integral
}

}  // namespace

JournalVerification verify_journal_text(std::string_view text) {
  JournalVerification v;
  std::uint64_t chain = kFnvOffset;
  std::size_t line_no = 0;
  bool saw_header = false;
  std::uint64_t batch_records = 0;  // records since the last boundary
  std::uint64_t header_records = 0;  // records the header still owes
  JournalVerification committed;     // tallies at the last boundary
  double last_seq = -1.0;

  // A failure before the header's records are complete is fatal: that
  // document is published atomically, so it is never torn.  After it,
  // the only failure recovery may skip is a final line cut short
  // mid-append, after records of a batch that was never closed.
  const auto fail = [&](const std::string& why, bool unterminated,
                        std::string_view line) {
    JournalVerification out = failed(line_no, why);
    if (saw_header && header_records == 0 && unterminated &&
        !has_complete_chain(line)) {
      out = committed;
      out.ok = false;
      out.torn_tail = true;
      out.error = "line " + std::to_string(line_no + 1) + ": " + why +
                  " (incomplete final batch)";
    }
    return out;
  };

  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const bool unterminated = nl == std::string_view::npos;
    const std::string_view line = unterminated ? text : text.substr(0, nl);
    text = unterminated ? std::string_view{} : text.substr(nl + 1);
    if (line.empty()) continue;  // a trailing newline is fine

    std::string_view body;
    std::string_view stored_hex;
    if (!split_chain(line, body, stored_hex)) {
      return fail("record has no trailing chain field", unterminated, line);
    }
    std::uint64_t stored = 0;
    if (!parse_hex64(stored_hex, stored)) {
      return fail("chain field is not 16 hex digits", unterminated, line);
    }
    chain = fnv1a(body, chain);
    if (chain != stored) {
      return fail("hash chain broken (journal tampered or truncated "
                  "mid-record)",
                  unterminated, line);
    }

    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const JsonParseError&) {
      // The chain link already matched, so this is a writer bug, not
      // tampering; the parser's own message stays outside src/ (R8).
      return failed(line_no, "record is not valid JSON");
    }
    if (!doc.is_object()) return failed(line_no, "record is not an object");

    if (!saw_header) {
      const JsonValue* schema = doc.find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->string != "dpnet.events.v1") {
        return failed(line_no, "header schema is not \"dpnet.events.v1\"");
      }
      if (!read_count(doc.find("events"), header_records) ||
          !read_count(doc.find("dropped"), v.dropped)) {
        return failed(line_no, "header missing numeric events/dropped");
      }
      saw_header = true;
      if (header_records == 0) committed = v;
      ++line_no;
      continue;
    }

    const JsonValue* kind = doc.find("kind");
    if (kind == nullptr && header_records == 0) {
      // An appended batch's closing line: it must count exactly the
      // records since the previous boundary.
      std::uint64_t counted = 0;
      if (!read_count(doc.find("events"), counted) ||
          counted != batch_records) {
        return failed(line_no, "batch closing line does not count the " +
                                   std::to_string(batch_records) +
                                   " records before it");
      }
      batch_records = 0;
      committed = v;
      ++line_no;
      continue;
    }

    const JsonValue* seq = doc.find("seq");
    const JsonValue* label = doc.find("label");
    const JsonValue* eps = doc.find("eps");
    if (seq == nullptr || !seq->is_number() || kind == nullptr ||
        !kind->is_string() || label == nullptr || !label->is_string() ||
        eps == nullptr || !eps->is_number() ||
        doc.find("node_id") == nullptr || doc.find("detail") == nullptr) {
      return failed(line_no, "record missing seq/kind/label/node_id/eps/"
                             "detail");
    }
    if (!(seq->number > last_seq)) {
      return failed(line_no, "seq numbers are not strictly increasing");
    }
    last_seq = seq->number;

    const std::string& k = kind->string;
    if (k == "charge") {
      ++v.charges;
      v.charged_eps += eps->number;
      v.charged_eps_by_label[label->string] += eps->number;
    } else if (k == "refusal") {
      ++v.refusals;
      v.refused_eps += eps->number;
    } else if (k == "abort") {
      ++v.aborts;
    } else if (k == "task.begin") {
      ++v.tasks;
    } else if (k == "task.end") {
      // counted via task.begin; nothing to tally
    } else if (k == "fault") {
      ++v.faults;
    } else if (k == "quarantine") {
      ++v.quarantined;
    } else if (k == "budget.alert") {
      ++v.alerts;
    } else {
      return failed(line_no, "unknown event kind '" + k + "'");
    }
    ++v.events;
    ++line_no;
    if (header_records > 0) {
      if (--header_records == 0) committed = v;
    } else {
      ++batch_records;
    }
  }

  if (!saw_header) {
    return failed(0, "empty document (no header line)");
  }
  if (header_records != 0) {
    return failed(line_no == 0 ? 0 : line_no - 1,
                  "header declares " +
                      std::to_string(v.events + header_records) +
                      " events but " + std::to_string(v.events) +
                      " records follow (journal truncated?)");
  }
  if (batch_records != 0) {
    JournalVerification out = committed;
    out.torn_tail = true;
    out.error = "line " + std::to_string(line_no) + ": final batch of " +
                std::to_string(batch_records) +
                " records has no closing line (journal truncated?)";
    return out;
  }
  v.ok = true;
  return v;
}

JournalVerification verify_journal_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    JournalVerification v;
    v.ok = false;
    v.error = "cannot open " + path;
    return v;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return verify_journal_text(buf.str());
}

}  // namespace dpnet::core::obs
