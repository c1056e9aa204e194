// simlint shared-state analyzer — the mutable-state inventory for parallel
// execution.
//
// ROADMAP item 2 shards the serial event loop across workers; before that
// lands, "what mutable state is shared, and under which lock?" must be a
// machine-checked inventory, not tribal knowledge. Clang Thread Safety
// Analysis (src/util/thread_safety.hpp) proves lock protocols wherever a
// Clang toolchain builds the tree; this analyzer is the
// toolchain-independent half, enforcing two rules on the source text:
//
//   mutable-global    non-const namespace-scope state, and `static` /
//                     `thread_local` mutable variables at any scope
//                     (including #define bodies, so macro-generated statics
//                     are caught). Every process-wide mutable object is a
//                     shared-state hazard the moment the event loop runs on
//                     more than one thread, so each one must be on the
//                     built-in allowlist (the interned metric/label
//                     registries' magic statics) or carry a
//                     `// simlint:allow(mutable-global)` directive whose
//                     comment says why it is safe.
//   unguarded-shared  a class that owns a mutex declares a lock protocol;
//                     every mutable data member it owns must then carry a
//                     SCION_GUARDED_BY / SCION_PT_GUARDED_BY annotation (or
//                     an allow directive explaining why it needs none).
//                     Without the annotation the Clang analysis verifies
//                     nothing about that member, silently.
//
// The full inventory — including allowlisted and simlint:allow-suppressed
// sites, plus a `guarded-member` count of annotated members — is emitted as
// deterministic JSON (--state-report=PATH) and diffed against the
// checked-in tools/state_baseline.json (--state-baseline=PATH): any
// per-(file, rule) count increase is a `state-regression` finding. New
// shared state therefore cannot land by accident; it lands by regenerating the baseline in the same PR
// that argues for it (see DESIGN.md "Concurrency discipline").
//
// Scanning is a per-line state machine that strips comments and string /
// character literals (so braces and keywords inside literals — e.g. the
// JSON emitters in this very directory — never confuse scope tracking),
// skips `#if 0` regions, and honours allow directives on the offending line
// or the line above. Known, accepted imprecision of a line scanner:
// `static const char* p` (mutable pointer to const pointee) passes the
// const test, and scope classification is lexical (the keyword preceding
// the opening brace).
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
  /// mutable-global and unguarded-shared sites (allowlisted and
  /// simlint:allow-suppressed ones included) plus guarded-member (members
  /// carrying SCION_GUARDED_BY). Written by the driver's
  /// --state-report=PATH; diffed against --state-baseline=PATH.
  std::string state_report_json() const;

  /// Compares accumulated counts against a baseline report (the JSON text
  /// produced by state_report_json on an earlier tree). Any per-file
  /// per-rule increase — files absent from the baseline count as zero — is
  /// a "state-regression" finding naming the file, the rule, and both
  /// counts. Run check() first.
  std::vector<Finding> diff_baseline(const std::string& baseline_json) const;

 private:
  void scan_file(const std::string& name, const std::string& content,
                 std::vector<Finding>& findings);

  std::vector<std::pair<std::string, std::string>> files_;
  std::vector<std::pair<std::string, std::string>> allowlist_ =
      default_state_allowlist();
  // file -> rule -> count (allowed/allowlisted sites included: the report
  // is the budget, the lint findings are the gate).
  std::map<std::string, std::map<std::string, int>> counts_;
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

/// Lexical scope kinds for brace tracking. The file's top level counts as
/// namespace scope.
enum class ScopeKind { kNamespace, kClass, kBlock };

/// Classifies the scope a `{` opens from the code text between the previous
/// `;`/brace boundary and the brace itself.
inline ScopeKind classify_open(std::string_view before) {
  static const std::regex kNamespace{R"(\bnamespace\b)"};
  static const std::regex kClass{R"(\b(?:class|struct|union|enum)\b)"};
  const std::string s{before};
  if (std::regex_search(s, kNamespace)) return ScopeKind::kNamespace;
  if (std::regex_search(s, kClass)) return ScopeKind::kClass;
  return ScopeKind::kBlock;
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
/// mutable-global / unguarded-shared rules consider.
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

/// const / constexpr exempt a declaration from both rules. constinit does
/// NOT: it promises constant *initialization*; the object stays mutable.
inline bool has_const_token(std::string_view decl) {
  static const std::regex kConst{R"(\b(?:const|constexpr)\b)"};
  return std::regex_search(std::string{decl}, kConst);
}

/// The declaration text from `from` to its terminator (`;`, `=`, `{`), or
/// "" when a `(` intervenes first (a function, not a variable) or no
/// terminator exists. SCION_* annotation macros are stripped before the
/// paren test so annotated members still classify as variables; template
/// argument lists are skipped so their punctuation cannot misfire.
inline std::string decl_before_terminator(std::string_view text,
                                          std::size_t from) {
  static const std::regex kAnnotation{R"(SCION_[A-Z_]+\s*\([^()]*\))"};
  static const std::regex kBareAnnotation{R"(\bSCION_[A-Z_]+\b)"};
  static const std::regex kOperator{R"(\boperator\b)"};
  std::string s =
      std::regex_replace(std::string{text.substr(from)}, kAnnotation, " ");
  s = std::regex_replace(s, kBareAnnotation, " ");
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

/// Owned-mutex member test for the unguarded-shared rule: a non-pointer,
/// non-reference mutex member is what declares the class's lock protocol.
inline bool is_mutex_member(std::string_view decl) {
  static const std::regex kMutex{
      R"(\b(?:std::)?(?:mutex|timed_mutex|recursive_mutex|shared_mutex)\b)"
      R"(|\b(?:util::)?Mutex\b)"};
  if (!std::regex_search(std::string{decl}, kMutex)) return false;
  return decl.find('&') == std::string_view::npos &&
         decl.find('*') == std::string_view::npos;
}

/// Synchronization-primitive members are themselves exempt from
/// unguarded-shared (they ARE the guard).
inline bool is_sync_member(std::string_view decl) {
  static const std::regex kSync{
      R"(\b(?:std::)?(?:mutex|timed_mutex|recursive_mutex|shared_mutex)"
      R"(|condition_variable(?:_any)?)\b|\b(?:util::)?(?:Mutex|CondVar)\b)"};
  return std::regex_search(std::string{decl}, kSync);
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

  // Scope stack; the top level is namespace scope. Class scopes collect the
  // member declarations at their immediate depth and are evaluated for
  // unguarded-shared when the scope closes (the mutex member may be
  // declared after the members it guards).
  struct ClassScope {
    int body_depth{0};
    struct Member {
      int line{0};
      std::string decl;       // joined declaration text, annotations stripped
      bool annotated{false};  // carried SCION_GUARDED_BY / SCION_PT_GUARDED_BY
      bool allowed{false};    // simlint:allow(unguarded-shared)
    };
    std::vector<Member> members;
    bool owns_mutex{false};
  };
  std::vector<ScopeKind> scopes{ScopeKind::kNamespace};
  std::vector<ClassScope> class_scopes;
  int depth = 0;

  LineScanState lex;
  std::vector<std::string> carried_allow;
  int disabled_depth = 0;  // inside `#if 0` / `#if false`
  int paren_depth = 0;     // unclosed `(` from earlier lines

  // Member declaration joined across continuation lines (wrapped before
  // its `;`, e.g. a long type with SCION_GUARDED_BY on the next line).
  std::string pending_member;
  int pending_line = 0;
  bool pending_annotated = false;
  bool pending_allowed = false;
  int pending_joined = 0;
  const auto reset_pending = [&] {
    pending_member.clear();
    pending_line = 0;
    pending_annotated = false;
    pending_allowed = false;
    pending_joined = 0;
  };

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
    const bool allowed_unguarded =
        std::find(effective_allow.begin(), effective_allow.end(),
                  "unguarded-shared") != effective_allow.end();

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
      ++counts_[name]["mutable-global"];
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
               scopes.back() == ScopeKind::kNamespace &&
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

    // --- unguarded-shared: collect member declarations of class scopes ---
    const bool at_member_depth =
        !in_parens && !pp_line && scopes.back() == ScopeKind::kClass &&
        !class_scopes.empty() && depth == class_scopes.back().body_depth;
    if (at_member_depth && !keyword) {
      const std::string text = pending_member.empty()
                                   ? code_str
                                   : pending_member + " " + code_str;
      const bool annotated =
          pending_annotated ||
          code_str.find("SCION_GUARDED_BY(") != std::string::npos ||
          code_str.find("SCION_PT_GUARDED_BY(") != std::string::npos;
      const bool line_allowed = pending_allowed || allowed_unguarded;
      const int decl_line =
          pending_member.empty() ? static_cast<int>(i + 1) : pending_line;
      const bool terminated = text.find(';') != std::string::npos ||
                              text.find('{') != std::string::npos ||
                              text.find('(') != std::string::npos;
      if (!terminated && !first_word(text).empty() && pending_joined < 4) {
        pending_member = text;
        pending_line = decl_line;
        pending_annotated = annotated;
        pending_allowed = line_allowed;
        ++pending_joined;
      } else {
        reset_pending();
        const std::string decl = decl_before_terminator(text, 0);
        if (!decl.empty() && !last_identifier(decl).empty()) {
          ClassScope& cls = class_scopes.back();
          if (is_mutex_member(decl)) cls.owns_mutex = true;
          cls.members.push_back(
              ClassScope::Member{decl_line, decl, annotated, line_allowed});
        }
      }
    } else if (!at_member_depth) {
      reset_pending();
    }

    // --- brace tracking with lexical scope classification -----------------
    if (pp_line) continue;  // #define bodies don't open real scopes
    std::size_t seg_start = 0;
    for (std::size_t k = 0; k < code_str.size(); ++k) {
      const char c = code_str[k];
      if (c == ';') seg_start = k + 1;
      if (c == '{') {
        const std::string_view before{code_str.data() + seg_start,
                                      k - seg_start};
        const ScopeKind kind = classify_open(before);
        scopes.push_back(kind);
        ++depth;
        if (kind == ScopeKind::kClass) {
          class_scopes.push_back(ClassScope{depth, {}, false});
        }
        seg_start = k + 1;
      } else if (c == '}') {
        if (scopes.size() > 1) {
          const ScopeKind kind = scopes.back();
          if (kind == ScopeKind::kClass && !class_scopes.empty() &&
              class_scopes.back().body_depth == depth) {
            // Closing class: every mutable member of a mutex-owning class
            // must be annotated or allowed.
            const ClassScope& cls = class_scopes.back();
            if (cls.owns_mutex) {
              for (const auto& m : cls.members) {
                if (is_sync_member(m.decl)) continue;
                if (has_const_token(m.decl)) continue;
                if (m.annotated) {
                  ++counts_[name]["guarded-member"];
                  continue;
                }
                ++counts_[name]["unguarded-shared"];
                if (m.allowed) continue;
                findings.push_back(Finding{
                    name, m.line, "unguarded-shared",
                    "mutable member `" + last_identifier(m.decl) +
                        "` of a mutex-owning class has no SCION_GUARDED_BY "
                        "annotation; declare its lock or justify with a "
                        "simlint:allow(unguarded-shared) comment"});
              }
            }
            class_scopes.pop_back();
          }
          scopes.pop_back();
          --depth;
        }
        seg_start = k + 1;
      }
    }
  }
}

inline std::string StateAnalyzer::state_report_json() const {
  static const std::vector<std::string> kRules{
      "guarded-member", "mutable-global", "unguarded-shared"};
  std::map<std::string, int> totals;
  for (const auto& [file, rules] : counts_) {
    for (const auto& [rule, n] : rules) totals[rule] += n;
  }

  std::string out;
  out += "{\n  \"version\": 1,\n  \"files\": [\n";
  bool first_file = true;
  for (const auto& [file, rules] : counts_) {
    if (!first_file) out += ",\n";
    first_file = false;
    out += "    {\"file\": \"";
    state_detail::json_escape_into(out, file);
    out += "\", \"counts\": {";
    bool first_rule = true;
    for (const std::string& rule : kRules) {
      const auto it = rules.find(rule);
      if (!first_rule) out += ", ";
      first_rule = false;
      out += "\"" + rule +
             "\": " + std::to_string(it == rules.end() ? 0 : it->second);
    }
    out += "}}";
  }
  out += "\n  ],\n  \"totals\": {";
  bool first_rule = true;
  for (const std::string& rule : kRules) {
    if (!first_rule) out += ", ";
    first_rule = false;
    const auto it = totals.find(rule);
    out += "\"" + rule +
           "\": " + std::to_string(it == totals.end() ? 0 : it->second);
  }
  out += "}\n}\n";
  return out;
}

inline std::vector<Finding> StateAnalyzer::diff_baseline(
    const std::string& baseline_json) const {
  // The baseline is a prior state_report_json(): a fixed shape we emitted
  // ourselves, so a targeted scan (not a general JSON parser) is reliable.
  static const std::regex kFileEntry{
      R"re("file":\s*"((?:[^"\\]|\\.)*)"[^{}]*"counts":\s*\{([^}]*)\})re"};
  static const std::regex kRuleCount{R"re("([a-z-]+)":\s*(\d+))re"};

  std::map<std::string, std::map<std::string, int>> base;
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
    const std::string counts = (*it)[2].str();
    for (std::sregex_iterator rt{counts.begin(), counts.end(), kRuleCount},
         rend;
         rt != rend; ++rt) {
      base[unescaped][(*rt)[1].str()] = std::stoi((*rt)[2].str());
    }
  }

  std::vector<Finding> findings;
  for (const auto& [file, rules] : counts_) {
    const auto bit = base.find(file);
    for (const auto& [rule, n] : rules) {
      if (rule == "guarded-member") continue;  // more annotations is progress
      int baseline = 0;
      if (bit != base.end()) {
        const auto rit = bit->second.find(rule);
        if (rit != bit->second.end()) baseline = rit->second;
      }
      if (n > baseline) {
        findings.push_back(Finding{
            file, 0, "state-regression",
            "shared-state regression in " + file + ": " + rule + " count " +
                std::to_string(n) + " exceeds baseline " +
                std::to_string(baseline) +
                " (tools/state_baseline.json); remove the new shared state "
                "or annotate it and regenerate the baseline deliberately "
                "(see DESIGN.md, Concurrency discipline)"});
      }
    }
  }
  return findings;
}

}  // namespace scion::lint
