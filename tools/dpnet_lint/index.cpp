#include "dpnet_lint/index.hpp"

#include <algorithm>

namespace dpnet::lint {

namespace {

const std::unordered_set<std::string>& excluded_names() {
  // Keywords (and keyword-like names) that look like `name (` but never
  // open a function definition.
  static const std::unordered_set<std::string> kExcluded = {
      "if",        "for",        "while",    "switch",   "catch",
      "return",    "sizeof",     "alignof",  "alignas",  "decltype",
      "constexpr", "consteval",  "constinit", "noexcept", "static_assert",
      "new",       "delete",     "throw",    "co_await", "co_return",
      "co_yield",  "requires",   "assert",   "typeid",   "else",
      "do",        "defined"};
  return kExcluded;
}

bool charge_primitive(const std::string& name) {
  return name == "charge" || name == "try_charge" || name == "charge_all" ||
         name == "raise_to" || name == "try_raise_to";
}

bool checkpoint_primitive(const std::string& name) {
  return name == "checkpoint" || name == "guard_checkpoint" ||
         name == "charge_rows" || name == "guard_charge_rows";
}

/// Qualifier-ish identifiers allowed between a definition's ')' and its
/// body '{'.
bool post_param_specifier(const std::string& t) {
  return t == "const" || t == "noexcept" || t == "override" || t == "final" ||
         t == "mutable" || t == "volatile" || t == "try" || t == "requires";
}

/// Given the token index of a candidate ')' close, walks forward looking
/// for the definition's body '{'.  Returns npos when the shape turns out
/// to be a call, declaration, or `= default/delete` instead.
std::size_t find_body_open(const std::vector<Token>& toks, std::size_t close,
                           bool* in_init_list) {
  int parens = 0;
  int braces = 0;
  int angles = 0;  // template-argument depth in a trailing return type
  bool in_init = false;
  // A definition's interlude between ')' and '{' is short; anything long
  // is an expression we misidentified.
  const std::size_t limit = std::min(toks.size(), close + 1 + 96);
  for (std::size_t k = close + 1; k < limit; ++k) {
    const Token& t = toks[k];
    if (t.kind == Kind::Punct) {
      if (t.text == "(") {
        ++parens;
        continue;
      }
      if (t.text == ")") {
        if (--parens < 0) return static_cast<std::size_t>(-1);
        continue;
      }
      if (parens > 0) continue;
      if (t.text == "<") {
        ++angles;
        continue;
      }
      if (t.text == ">") {
        if (angles > 0) --angles;
        continue;
      }
      if (angles > 0) continue;  // inside template arguments: anything goes
      if (t.text == "{") {
        if (braces == 0 && in_init && k > 0 &&
            toks[k - 1].kind == Kind::Ident) {
          // `: member_{...}` brace-init inside an initializer list.
          ++braces;
          continue;
        }
        if (braces == 0) {
          *in_init_list = in_init;
          return k;  // the body
        }
        ++braces;
        continue;
      }
      if (t.text == "}") {
        if (--braces < 0) return static_cast<std::size_t>(-1);
        continue;
      }
      if (t.text == ":") {
        if (next_is(toks, k, ":") || (k > 0 && toks[k - 1].text == ":")) {
          continue;  // `::` qualification inside a trailing return type
        }
        in_init = true;
        continue;
      }
      if (t.text == ";" || t.text == "=" || t.text == "]" || t.text == "." ||
          t.text == "?") {
        return static_cast<std::size_t>(-1);  // declaration / expression
      }
      if (t.text == "," && !in_init) {
        return static_cast<std::size_t>(-1);  // argument position
      }
      // -> & * < > , (init list) and friends: keep walking.
      continue;
    }
    if (braces > 0 || parens > 0 || angles > 0) continue;
    if (t.kind == Kind::Ident && !in_init && !post_param_specifier(t.text) &&
        !prev_is(toks, k, ">") && !prev_is(toks, k, ":") &&
        !prev_is(toks, k, "-")) {
      // A bare identifier right after the ')' that is neither a specifier
      // nor part of a trailing return type: expression territory.
      return static_cast<std::size_t>(-1);
    }
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

FileClass classify(std::string_view path) {
  FileClass c;
  c.in_src = path.starts_with("src/");
  c.is_header = path.ends_with(".hpp") || path.ends_with(".h") ||
                path.ends_with(".hh");
  const bool in_tests = path.starts_with("tests/");
  const bool in_bench = path.starts_with("bench/");
  c.allow_unsafe =
      in_tests || in_bench || path.starts_with("src/tracegen/");
  c.is_noise = path == "src/core/noise.hpp" || path == "src/core/noise.cpp";
  c.harness = in_tests || in_bench;
  c.telemetry = path == "src/core/trace.hpp" || path == "src/core/trace.cpp" ||
                path == "src/core/metrics.hpp" ||
                path == "src/core/metrics.cpp" ||
                path == "src/core/audit.hpp" ||
                path.starts_with("src/core/obs/") ||
                path.starts_with("src/serve/") ||
                path == "bench/common.hpp" || path == "tools/dpnet_cli.cpp";
  c.in_exec = path.starts_with("src/core/exec/");
  return c;
}

std::vector<FunctionDef> scan_functions(const std::vector<Token>& toks) {
  std::vector<FunctionDef> fns;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_call(toks, i)) continue;
    if (excluded_names().count(toks[i].text) > 0) continue;
    // Member access and unary-operator positions are expressions.
    if (prev_is(toks, i, ".") ||
        (prev_is(toks, i, ">") && i >= 2 && toks[i - 2].text == "-")) {
      continue;
    }
    const std::size_t close = matching_close(toks, i + 1, "(", ")");
    if (close == static_cast<std::size_t>(-1)) continue;
    bool in_init = false;
    const std::size_t body = find_body_open(toks, close, &in_init);
    if (body == static_cast<std::size_t>(-1)) continue;
    const std::size_t body_end = matching_close(toks, body, "{", "}");
    if (body_end == static_cast<std::size_t>(-1)) continue;

    FunctionDef fn;
    fn.name = toks[i].text;
    fn.line = toks[i].line;
    fn.params_begin = i + 1;
    fn.params_end = close;
    fn.body_begin = body;
    fn.body_end = body_end;
    for (std::size_t k = fn.params_begin; k < fn.params_end; ++k) {
      if (toks[k].kind == Kind::Ident && toks[k].text == "NoiseSource") {
        fn.takes_noise_source = true;
        break;
      }
    }
    for (std::size_t k = body + 1; k < body_end; ++k) {
      if (!is_call(toks, k)) continue;
      if (charge_primitive(toks[k].text)) fn.charges_directly = true;
      if (checkpoint_primitive(toks[k].text)) fn.checkpoints_directly = true;
    }
    fns.push_back(std::move(fn));
    // Continue from inside the params so member functions defined inside
    // this body (local classes) are still discovered.
  }
  return fns;
}

const FunctionDef* enclosing_function(const std::vector<FunctionDef>& fns,
                                      std::size_t i) {
  const FunctionDef* best = nullptr;
  for (const FunctionDef& fn : fns) {
    if (i <= fn.body_begin || i >= fn.body_end) continue;
    if (best == nullptr ||
        fn.body_end - fn.body_begin < best->body_end - best->body_begin) {
      best = &fn;
    }
  }
  return best;
}

std::vector<FunctionFact> collect_facts(const std::vector<FunctionDef>& fns) {
  std::vector<FunctionFact> facts;
  facts.reserve(fns.size());
  for (const FunctionDef& fn : fns) {
    facts.push_back({fn.name, fn.charges_directly, fn.checkpoints_directly});
  }
  return facts;
}

void ChargeGraph::add(const FunctionFact& fact) {
  if (fact.charges) charging_.insert(fact.name);
  if (fact.checkpoints) checkpointing_.insert(fact.name);
}

std::uint64_t ChargeGraph::digest() const {
  // Order-independent: names are hashed individually and combined with a
  // commutative fold, so file iteration order cannot shift the digest.
  std::uint64_t d = kFnvOffset;
  for (const std::string& n : charging_) d += fnv1a(n, 0x11);
  for (const std::string& n : checkpointing_) d += fnv1a(n, 0x22);
  return d;
}

std::string to_hex(std::uint64_t v) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int k = 15; k >= 0; --k) {
    out[static_cast<std::size_t>(k)] = kHex[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace dpnet::lint
