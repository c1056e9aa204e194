// simlint shared-state analyzer — the inventory of process-wide mutable
// state.
//
// Tasks of one exec::parallel_for_n batch run on several threads, so every
// process-wide mutable object is state they may share. ThreadSanitizer
// catches a race on such state only on the paths a run executes; this
// analyzer keeps the list of such objects short and reviewed, with one rule
// on the source text:
//
//   mutable-global    non-const namespace-scope state, and `static` /
//                     `thread_local` mutable variables at any scope
//                     (including #define bodies, so macro-generated statics
//                     are caught). Each one must be on the built-in
//                     allowlist (the interned metric/label registries'
//                     magic statics) or carry a
//                     `// simlint:allow(mutable-global)` directive whose
//                     comment says why it is safe.
//
// The full inventory — including allowlisted and simlint:allow-suppressed
// sites — is emitted as deterministic JSON (--state-report=PATH) and diffed
// against the checked-in tools/state_baseline.json (--state-baseline=PATH):
// any per-file count increase is a `state-regression` finding. New shared
// state therefore cannot land by accident; it lands by regenerating the
// baseline in the same change that argues for it (see DESIGN.md
// "Concurrency discipline").
//
// Scanning is a per-line state machine that strips comments and string /
// character literals (so braces and keywords inside literals — e.g. the
// JSON emitters in this very directory — never confuse scope tracking),
// skips `#if 0` regions, and honours allow directives on the offending line
// or the line above. Known, accepted imprecision of a line scanner:
// `static const char* p` (mutable pointer to const pointee) passes the
// const test, and namespace scopes are recognised lexically (the
// `namespace` keyword preceding the opening brace).
#pragma once

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/simlint_core.hpp"
#include "tools/simlint_includes.hpp"

namespace scion::lint {

/// Built-in allowlist for the mutable-global rule: (file suffix, variable
/// name) pairs naming the sanctioned magic statics — the interned
/// metric/label registries that anchor the telemetry layer. Anything else
/// justifies itself with an in-source `// simlint:allow(mutable-global)`
/// directive, so the reasoning lives next to the declaration.
inline const std::vector<std::pair<std::string, std::string>>&
default_state_allowlist() {
  static const std::vector<std::pair<std::string, std::string>> kAllow{
      {"src/obs/event_profile.cpp", "profiler"},  // EventProfiler::global()
      {"src/obs/metrics.cpp", "registry"},        // MetricsRegistry::global()
      {"src/obs/profile.cpp", "profiler"},        // PhaseProfiler::global()
  };
  return kAllow;
}

class StateAnalyzer {
 public:
  void add_file(std::string name, std::string content) {
    files_.emplace_back(std::move(name), std::move(content));
  }

  /// Replaces the built-in allowlist (tests use an empty one).
  void set_allowlist(std::vector<std::pair<std::string, std::string>> allow) {
    allowlist_ = std::move(allow);
  }

  /// Scans every registered file; returns unsuppressed findings in file
  /// order and accumulates the counts behind state_report_json().
  std::vector<Finding> check();

  /// Deterministic JSON inventory: per-file and total counts of
  /// mutable-global sites (allowlisted and simlint:allow-suppressed ones
  /// included). Written by the driver's --state-report=PATH; diffed against
  /// --state-baseline=PATH.
  std::string state_report_json() const;

  /// Compares accumulated counts against a baseline report (the JSON text
  /// produced by state_report_json on an earlier tree). Any per-file
  /// increase — files absent from the baseline count as zero — is a
  /// "state-regression" finding naming the file and both counts. Run
  /// check() first.
  std::vector<Finding> diff_baseline(const std::string& baseline_json) const;

 private:
  void scan_file(const std::string& name, const std::string& content,
                 std::vector<Finding>& findings);

  std::vector<std::pair<std::string, std::string>> files_;
  std::vector<std::pair<std::string, std::string>> allowlist_ =
      default_state_allowlist();
  // file -> mutable-global count (allowed/allowlisted sites included: the
  // report is the budget, the lint findings are the gate).
  std::map<std::string, int> counts_;
};

namespace state_detail {

inline void json_escape_into(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

/// Carries multi-line lexical state for strip_noncode().
struct LineScanState {
  bool in_block_comment{false};
  bool in_raw_string{false};
  std::string raw_delim;
};

/// Returns `line` with comments and string/character literals blanked out,
/// so downstream regexes and the brace tracker only ever see real code.
/// Handles // and /*...*/ comments (the latter across lines), "..." with
/// escapes, R"delim(...)delim" raw strings (across lines), '...' character
/// literals, and leaves numeric digit separators (1'000'000) alone.
inline std::string strip_noncode(const std::string& line, LineScanState& st) {
  std::string out;
  out.reserve(line.size());
  std::size_t i = 0;
  const std::size_t n = line.size();
  if (st.in_block_comment) {
    const std::size_t close = line.find("*/");
    if (close == std::string::npos) return out;
    i = close + 2;
    st.in_block_comment = false;
  } else if (st.in_raw_string) {
    const std::string end = ")" + st.raw_delim + "\"";
    const std::size_t close = line.find(end);
    if (close == std::string::npos) return out;
    i = close + end.size();
    st.in_raw_string = false;
    out.push_back(' ');
  }
  while (i < n) {
    const char c = line[i];
    if (c == '/' && i + 1 < n && line[i + 1] == '/') break;
    if (c == '/' && i + 1 < n && line[i + 1] == '*') {
      const std::size_t close = line.find("*/", i + 2);
      if (close == std::string::npos) {
        st.in_block_comment = true;
        return out;
      }
      i = close + 2;
      out.push_back(' ');
      continue;
    }
    if (c == '"') {
      const bool raw =
          i > 0 && line[i - 1] == 'R' &&
          (i < 2 || (!std::isalnum(static_cast<unsigned char>(line[i - 2])) &&
                     line[i - 2] != '_'));
      if (raw) {
        const std::size_t paren = line.find('(', i + 1);
        if (paren == std::string::npos) return out;  // malformed; bail out
        const std::string delim = line.substr(i + 1, paren - (i + 1));
        const std::string end = ")" + delim + "\"";
        const std::size_t close = line.find(end, paren + 1);
        if (close == std::string::npos) {
          st.in_raw_string = true;
          st.raw_delim = delim;
          return out;
        }
        i = close + end.size();
      } else {
        std::size_t j = i + 1;
        while (j < n && line[j] != '"') {
          if (line[j] == '\\') ++j;
          ++j;
        }
        i = j < n ? j + 1 : n;
      }
      out.push_back(' ');
      continue;
    }
    // A quote after an identifier/digit character is a digit separator
    // (1'000'000) or part of a literal suffix, not a character literal.
    if (c == '\'' &&
        (i == 0 || (!std::isalnum(static_cast<unsigned char>(line[i - 1])) &&
                    line[i - 1] != '_'))) {
      std::size_t j = i + 1;
      while (j < n && line[j] != '\'') {
        if (line[j] == '\\') ++j;
        ++j;
      }
      i = j < n ? j + 1 : n;
      out.push_back(' ');
      continue;
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

/// Whether a `{` opens a namespace, judged from the code text between the
/// previous `;`/brace boundary and the brace itself.
inline bool opens_namespace(std::string_view before) {
  static const std::regex kNamespace{R"(\bnamespace\b)"};
  return std::regex_search(std::string{before}, kNamespace);
}

/// First identifier-ish token of the line ("" when none).
inline std::string first_word(std::string_view code) {
  std::size_t i = 0;
  while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) {
    ++i;
  }
  std::size_t j = i;
  while (j < code.size() &&
         (std::isalnum(static_cast<unsigned char>(code[j])) ||
          code[j] == '_')) {
    ++j;
  }
  return std::string{code.substr(i, j - i)};
}

/// Keywords that open lines which are never the variable declarations the
/// mutable-global rule considers.
inline bool keyword_line(const std::string& word) {
  static const std::set<std::string> kKeywords{
      "break",    "case",     "catch",    "class",     "concept",
      "continue", "delete",   "do",       "else",      "enum",
      "explicit", "for",      "friend",   "goto",      "if",
      "namespace", "new",     "operator", "private",   "protected",
      "public",   "requires", "return",   "sizeof",    "struct",
      "switch",   "template", "throw",    "try",       "typedef",
      "typename", "union",    "using",    "while"};
  return kKeywords.contains(word);
}

/// Last identifier token in `decl` — the declared variable name for the
/// declaration shapes this analyzer matches.
inline std::string last_identifier(std::string_view decl) {
  static const std::regex kIdent{R"([A-Za-z_]\w*)"};
  const std::string s{decl};
  std::string last;
  for (std::sregex_iterator it{s.begin(), s.end(), kIdent}, end; it != end;
       ++it) {
    last = it->str();
  }
  return last;
}

/// const / constexpr exempt a declaration from the rule. constinit does
/// NOT: it promises constant *initialization*; the object stays mutable.
inline bool has_const_token(std::string_view decl) {
  static const std::regex kConst{R"(\b(?:const|constexpr)\b)"};
  return std::regex_search(std::string{decl}, kConst);
}

/// The declaration text from `from` to its terminator (`;`, `=`, `{`), or
/// "" when a `(` intervenes first (a function, not a variable) or no
/// terminator exists. Template argument lists are skipped so their
/// punctuation cannot misfire.
inline std::string decl_before_terminator(std::string_view text,
                                          std::size_t from) {
  static const std::regex kOperator{R"(\boperator\b)"};
  const std::string s{text.substr(from)};
  if (std::regex_search(s, kOperator)) return "";  // operator=: a function
  int angle = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (angle > 0) continue;
    if (c == '(') return "";
    if (c == ';' || c == '{') return s.substr(0, i);
    if (c == '=' && (i + 1 >= s.size() || s[i + 1] != '=')) {
      return s.substr(0, i);
    }
  }
  return "";
}

}  // namespace state_detail

inline std::vector<Finding> StateAnalyzer::check() {
  std::vector<Finding> findings;
  counts_.clear();
  for (const auto& [name, content] : files_) {
    scan_file(name, content, findings);
  }
  return findings;
}

inline void StateAnalyzer::scan_file(const std::string& name,
                                     const std::string& content,
                                     std::vector<Finding>& findings) {
  using detail::allowed_rules;
  using detail::disabled_condition;
  using detail::is_pp;
  using detail::split_lines;
  using namespace state_detail;

  // static / thread_local declarator, any scope.
  static const std::regex kStatic{R"(\b(static|thread_local)\b)"};
  // Namespace-scope declaration: optional specifier run, a type token
  // (qualified id, optional template arguments), declarator punctuation,
  // then the variable name and an initializer or `;`.
  static const std::regex kNsDecl{
      R"(^\s*((?:(?:inline|extern|static|thread_local|constinit|constexpr|const|mutable|volatile)\s+)*))"
      R"((?:::)?[A-Za-z_][\w:]*(?:\s*<[^;]*>)?(?:\s*[*&]|\s)+)"
      R"([A-Za-z_]\w*(?:\[\w*\])?\s*(?:=[^=]|\{|;))"};

  const auto allowlisted = [&](const std::string& var) {
    for (const auto& [file_suffix, entry] : allowlist_) {
      if (entry == var && name.size() >= file_suffix.size() &&
          name.compare(name.size() - file_suffix.size(), file_suffix.size(),
                       file_suffix) == 0) {
        return true;
      }
    }
    return false;
  };

  const std::vector<std::string> lines = split_lines(content);

  // Per open brace: does it open a namespace? The top level counts as one.
  std::vector<bool> namespace_scopes{true};

  LineScanState lex;
  std::vector<std::string> carried_allow;
  int disabled_depth = 0;  // inside `#if 0` / `#if false`
  int paren_depth = 0;     // unclosed `(` from earlier lines

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& raw = lines[i];
    std::vector<std::string> allow = allowed_rules(raw);
    std::vector<std::string> effective_allow = carried_allow;
    effective_allow.insert(effective_allow.end(), allow.begin(), allow.end());
    carried_allow = std::move(allow);

    const std::string code_str = strip_noncode(raw, lex);

    // `#if 0` discipline, same as the include-graph analyzer: disabled
    // regions contribute nothing to the inventory.
    std::string cond;
    if (disabled_depth > 0) {
      if (is_pp(code_str, "if") || is_pp(code_str, "ifdef") ||
          is_pp(code_str, "ifndef")) {
        ++disabled_depth;
      } else if (is_pp(code_str, "endif")) {
        --disabled_depth;
      } else if (disabled_depth == 1 &&
                 (is_pp(code_str, "else") || is_pp(code_str, "elif"))) {
        disabled_depth = 0;
      }
      continue;
    }
    if (is_pp(code_str, "if", &cond) && disabled_condition(cond)) {
      disabled_depth = 1;
      continue;
    }

    const bool allowed_mutable_global =
        std::find(effective_allow.begin(), effective_allow.end(),
                  "mutable-global") != effective_allow.end();

    const std::string word = first_word(code_str);
    const bool keyword = keyword_line(word);
    std::size_t ws = 0;
    while (ws < code_str.size() &&
           std::isspace(static_cast<unsigned char>(code_str[ws]))) {
      ++ws;
    }
    const bool pp_line = ws < code_str.size() && code_str[ws] == '#';

    // Lines inside an unclosed parenthesis (a wrapped parameter or argument
    // list) are continuations, never declarations. Updated after the line's
    // detections so the opening line itself still gets scanned.
    const bool in_parens = paren_depth > 0;
    if (!pp_line) {
      for (const char c : code_str) {
        if (c == '(') ++paren_depth;
        if (c == ')' && paren_depth > 0) --paren_depth;
      }
    }

    const auto report_mutable_global = [&](const std::string& var,
                                           const char* what) {
      ++counts_[name];
      if (allowed_mutable_global || allowlisted(var)) return;
      findings.push_back(Finding{
          name, static_cast<int>(i + 1), "mutable-global",
          std::string{what} + " `" + var +
              "` is shared mutable state; make it const, move it into an "
              "owning object, or justify it with a "
              "simlint:allow(mutable-global) comment"});
    };

    // --- mutable-global, form 1: static / thread_local at any scope ------
    // Runs on #define lines too, so macro-generated statics are caught.
    std::smatch sm;
    if (!in_parens && !keyword && std::regex_search(code_str, sm, kStatic)) {
      const std::string decl = decl_before_terminator(
          code_str, static_cast<std::size_t>(sm.position(0)));
      if (!decl.empty() && !has_const_token(decl) &&
          decl.find("extern") == std::string::npos) {
        const std::string var = last_identifier(decl);
        if (!var.empty()) {
          report_mutable_global(var, sm[1].str() == "thread_local"
                                         ? "thread_local variable"
                                         : "static variable");
        }
      }
    } else if (!in_parens && !pp_line && !keyword && !word.empty() &&
               namespace_scopes.back() &&
               std::regex_search(code_str, sm, kNsDecl)) {
      // --- mutable-global, form 2: plain namespace-scope declaration -----
      const std::string specifiers = sm[1].str();
      const std::string decl = decl_before_terminator(code_str, 0);
      if (!decl.empty() && !has_const_token(decl) &&
          specifiers.find("extern") == std::string::npos) {
        const std::string var = last_identifier(decl);
        if (!var.empty()) {
          report_mutable_global(var, "namespace-scope variable");
        }
      }
    }

    // --- brace tracking: which scopes are namespaces ---------------------
    if (pp_line) continue;  // #define bodies don't open real scopes
    std::size_t seg_start = 0;
    for (std::size_t k = 0; k < code_str.size(); ++k) {
      const char c = code_str[k];
      if (c == ';') seg_start = k + 1;
      if (c == '{') {
        const std::string_view before{code_str.data() + seg_start,
                                      k - seg_start};
        namespace_scopes.push_back(opens_namespace(before));
        seg_start = k + 1;
      } else if (c == '}') {
        if (namespace_scopes.size() > 1) namespace_scopes.pop_back();
        seg_start = k + 1;
      }
    }
  }
}

inline std::string StateAnalyzer::state_report_json() const {
  int total = 0;
  std::string out;
  out += "{\n  \"version\": 1,\n  \"files\": [\n";
  for (const auto& [file, n] : counts_) {
    if (total > 0) out += ",\n";  // every listed file counts at least one
    total += n;
    out += "    {\"file\": \"";
    state_detail::json_escape_into(out, file);
    out += "\", \"counts\": {\"mutable-global\": " + std::to_string(n) +
           "}}";
  }
  out += "\n  ],\n  \"totals\": {\"mutable-global\": " +
         std::to_string(total) + "}\n}\n";
  return out;
}

inline std::vector<Finding> StateAnalyzer::diff_baseline(
    const std::string& baseline_json) const {
  // The baseline is a prior state_report_json(): a fixed shape we emitted
  // ourselves, so a targeted scan (not a general JSON parser) is reliable.
  static const std::regex kFileEntry{
      R"re("file":\s*"((?:[^"\\]|\\.)*)"[^{}]*"counts":\s*\{[^}]*"mutable-global":\s*(\d+)[^}]*\})re"};

  std::map<std::string, int> base;
  for (std::sregex_iterator it{baseline_json.begin(), baseline_json.end(),
                               kFileEntry},
       end;
       it != end; ++it) {
    const std::string file = (*it)[1].str();
    // Un-escape the two characters json_escape_into escapes.
    std::string unescaped;
    for (std::size_t i = 0; i < file.size(); ++i) {
      if (file[i] == '\\' && i + 1 < file.size()) ++i;
      unescaped.push_back(file[i]);
    }
    base[unescaped] = std::stoi((*it)[2].str());
  }

  std::vector<Finding> findings;
  for (const auto& [file, n] : counts_) {
    const auto bit = base.find(file);
    const int baseline = bit == base.end() ? 0 : bit->second;
    if (n > baseline) {
      findings.push_back(Finding{
          file, 0, "state-regression",
          "shared-state regression in " + file + ": mutable-global count " +
              std::to_string(n) + " exceeds baseline " +
              std::to_string(baseline) +
              " (tools/state_baseline.json); remove the new shared state "
              "or justify it and regenerate the baseline deliberately "
              "(see DESIGN.md, Concurrency discipline)"});
    }
  }
  return findings;
}

}  // namespace scion::lint
