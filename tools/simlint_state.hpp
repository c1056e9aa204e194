// simlint shared-state rule — process-wide mutable state must justify
// itself where it is declared.
//
// Tasks of one exec::parallel_for_n batch run on several threads, so every
// process-wide mutable object is state they may share. ThreadSanitizer
// catches a race on such state only on the paths a run executes; this rule
// keeps the list of such objects short and reviewed:
//
//   mutable-global    non-const namespace-scope state, and `static` /
//                     `thread_local` mutable variables at any scope
//                     (including #define bodies, so macro-generated statics
//                     are caught). Each one carries a
//                     `// simlint:allow(<rule>)` directive naming this rule,
//                     with a comment that says why it is safe (see DESIGN.md
//                     "Concurrency discipline"). The directive is the only
//                     gate: new shared state lands with its reason in the
//                     same diff.
//
// The rule reads the scanner's lines (simlint_core.hpp), so comments,
// string literals and `#if 0` regions never count, and tracks which braces
// open namespaces. Known, accepted imprecision of a line scanner:
// `static const char* p` (mutable pointer to const pointee) passes the
// const test, and namespace scopes are recognised lexically (the
// `namespace` keyword preceding the opening brace).
#pragma once

#include <cctype>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tools/simlint_core.hpp"

namespace scion::lint {

namespace state_detail {

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
  while (j < code.size() && detail::ident_char(code[j])) ++j;
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
/// declaration shapes this rule matches.
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

/// The mutable-global rule over every file, findings in file order.
inline std::vector<Finding> check_state(const std::vector<SourceFile>& files) {
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

  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    // Per open brace: does it open a namespace? The top level counts as one.
    std::vector<bool> namespace_scopes{true};
    int paren_depth = 0;  // unclosed `(` from earlier lines

    for (const Line& line : file.lines) {
      const std::string& code = line.code;
      const std::string word = first_word(code);
      const bool keyword = keyword_line(word);
      std::size_t ws = 0;
      while (ws < code.size() &&
             std::isspace(static_cast<unsigned char>(code[ws]))) {
        ++ws;
      }
      const bool pp_line = ws < code.size() && code[ws] == '#';

      // Lines inside an unclosed parenthesis (a wrapped parameter or
      // argument list) are continuations, never declarations. Updated after
      // the line's detections so the opening line itself still gets
      // scanned.
      const bool in_parens = paren_depth > 0;
      if (!pp_line) {
        for (const char c : code) {
          if (c == '(') ++paren_depth;
          if (c == ')' && paren_depth > 0) --paren_depth;
        }
      }

      const auto report = [&](const std::string& var, const char* what) {
        if (line.allows("mutable-global")) return;
        findings.push_back(Finding{
            file.name, line.number, "mutable-global",
            std::string{what} + " `" + var +
                "` is shared mutable state; make it const, move it into an "
                "owning object, or justify it with a "
                "// simlint:allow(<rule>) comment"});
      };

      // --- form 1: static / thread_local at any scope ---------------------
      // Runs on #define lines too, so macro-generated statics are caught.
      std::smatch sm;
      if (!in_parens && !keyword && std::regex_search(code, sm, kStatic)) {
        const std::string decl = decl_before_terminator(
            code, static_cast<std::size_t>(sm.position(0)));
        if (!decl.empty() && !has_const_token(decl) &&
            decl.find("extern") == std::string::npos) {
          const std::string var = last_identifier(decl);
          if (!var.empty()) {
            report(var, sm[1].str() == "thread_local" ? "thread_local variable"
                                                      : "static variable");
          }
        }
      } else if (!in_parens && !pp_line && !keyword && !word.empty() &&
                 namespace_scopes.back() &&
                 std::regex_search(code, sm, kNsDecl)) {
        // --- form 2: plain namespace-scope declaration --------------------
        const std::string specifiers = sm[1].str();
        const std::string decl = decl_before_terminator(code, 0);
        if (!decl.empty() && !has_const_token(decl) &&
            specifiers.find("extern") == std::string::npos) {
          const std::string var = last_identifier(decl);
          if (!var.empty()) report(var, "namespace-scope variable");
        }
      }

      // --- brace tracking: which scopes are namespaces --------------------
      if (pp_line) continue;  // #define bodies don't open real scopes
      std::size_t seg_start = 0;
      for (std::size_t k = 0; k < code.size(); ++k) {
        const char c = code[k];
        if (c == ';') seg_start = k + 1;
        if (c == '{') {
          const std::string_view before{code.data() + seg_start,
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
  return findings;
}

}  // namespace scion::lint
