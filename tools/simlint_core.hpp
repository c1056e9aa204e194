// simlint — determinism lint for the simulator sources, and the one line
// scanner every simlint rule reads.
//
// The paper's overhead and path-quality results (Figs. 5-9, Table 1) are
// produced by multi-hour simulations that must be bit-reproducible across
// runs and machines. These rules flag the hazards that silently break that
// property:
//
//   wall-clock      nondeterministic time sources (std::chrono clocks,
//                   time(), gettimeofday, clock_gettime). All simulation
//                   time must flow through util::TimePoint.
//   std-rng         <random> engines and std::rand/srand/random_device.
//                   All randomness must flow through the seeded util::Rng.
//   unordered-iter  iteration over std::unordered_map/unordered_set.
//                   Hash iteration order is implementation- and
//                   address-dependent; when it feeds serialized or scored
//                   output, two identical runs diverge. Lookups are fine —
//                   only iteration (range-for, .begin()/.end()) is flagged.
//   float-accum     floating-point accumulation inside an unordered
//                   iteration (float addition is not associative, so the
//                   sum depends on hash order), and std::accumulate with a
//                   floating-point init wherever it appears.
//   raw-output      direct stdout writes (std::cout, printf, puts,
//                   fprintf(stdout, ...)) in simulation code. Result output
//                   must flow through the obs renderer (obs::print /
//                   obs::Table) so it stays convertible to the JSON
//                   telemetry outputs; files under an obs/ directory are
//                   the renderer itself and are exempt. stderr diagnostics
//                   and snprintf string formatting are not flagged.
//   raw-thread      raw threading primitives (std::thread, std::jthread,
//                   std::async, pthread_create) outside exec/task_pool.*.
//                   Ad-hoc threads bypass the per-task telemetry captures
//                   and substream seeding that keep parallel runs
//                   byte-identical; all parallelism must flow through
//                   exec::parallel_for_n / exec::parallel_map. Files whose
//                   stem contains "task_pool" start those threads and are
//                   exempt.
//
// The scanner, scan(), turns a file into its live lines. For each line it
// yields the code with comments and string, character and raw-string
// literals blanked, so no rule fires on text; the target of an
// `#include "..."`; and the rules that a `// simlint:allow(<rule>)` comment
// on that line or the line above names. Lines inside `#if 0` / `#if false`
// regions are dropped. The layering rule (simlint_includes.hpp) and the
// mutable-global rule (simlint_state.hpp) read the same lines.
//
// Provably order-insensitive iteration (pure counting, erase-only sweeps)
// is silenced in place with the allow directive; the directive documents
// the proof obligation.
//
// Scoping: a declaration like `std::unordered_map<K, V> foo;` makes `foo`
// an unordered name. Members (trailing '_') are visible across the whole
// scanned corpus; other names are visible within their translation-unit
// group, i.e. files sharing a path stem (speaker.hpp + speaker.cpp), which
// covers struct members used from the companion source file.
#pragma once

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scion::lint {

struct Finding {
  std::string file;
  int line{0};
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// One live source line as the rules see it.
struct Line {
  int number{0};                   // 1-based
  std::string code;                // comments and literals blanked
  std::string include;             // target of `#include "..."`, or ""
  std::vector<std::string> allow;  // rules allowed here or on the line above

  bool allows(std::string_view rule) const {
    return std::find(allow.begin(), allow.end(), rule) != allow.end();
  }
};

struct SourceFile {
  std::string name;
  std::vector<Line> lines;  // `#if 0` regions dropped
};

namespace detail {

inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if `code` is a preprocessor directive of the given kind ("if",
/// "ifdef", "include", ...); `rest` receives the text after the keyword.
inline bool is_pp(std::string_view code, std::string_view kind,
                  std::string_view* rest = nullptr) {
  std::size_t i = 0;
  while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
  if (i >= code.size() || code[i] != '#') return false;
  ++i;
  while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
  if (code.substr(i, kind.size()) != kind) return false;
  const std::size_t end = i + kind.size();
  if (end < code.size() && ident_char(code[end])) {
    return false;  // e.g. "#ifdef" is not "#if"
  }
  if (rest != nullptr) *rest = code.substr(end);
  return true;
}

/// True if the #if condition text disables the region outright (`0`/`false`).
inline bool disabled_condition(std::string_view rest) {
  std::size_t b = 0, e = rest.size();
  while (b < e && std::isspace(static_cast<unsigned char>(rest[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(rest[e - 1]))) --e;
  const std::string_view cond = rest.substr(b, e - b);
  return cond == "0" || cond == "false";
}

/// Rules named by the first `simlint:allow(a, b)` in `comment`.
inline std::vector<std::string> allowed_rules(std::string_view comment) {
  std::vector<std::string> out;
  const std::size_t pos = comment.find("simlint:allow(");
  if (pos == std::string_view::npos) return out;
  const std::size_t open = pos + std::string_view{"simlint:allow("}.size();
  const std::size_t close = comment.find(')', open);
  if (close == std::string_view::npos) return out;
  std::string name;
  for (char c : comment.substr(open, close - open)) {
    if (c == ',') {
      if (!name.empty()) out.push_back(std::move(name));
      name.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      name.push_back(c);
    }
  }
  if (!name.empty()) out.push_back(std::move(name));
  return out;
}

/// Lexical state carried from one line to the next.
struct LexState {
  bool in_block_comment{false};
  bool in_raw_string{false};
  std::string raw_delim;
};

/// Returns `line` with comments and string/character literals blanked
/// (each literal or block comment becomes one space). Handles // and /*...*/
/// comments (the latter across lines), "..." with escapes,
/// R"delim(...)delim" raw strings (across lines), '...' character literals,
/// and leaves numeric digit separators (1'000'000) alone. Appends the
/// comment text to `comment`, and sets `include` to the quoted target when
/// the line is an `#include "..."` directive.
inline std::string strip(std::string_view line, LexState& st,
                         std::string& comment, std::string& include) {
  constexpr std::size_t npos = std::string_view::npos;
  std::string out;
  out.reserve(line.size());
  std::size_t i = 0;
  const std::size_t n = line.size();
  if (st.in_block_comment) {
    const std::size_t close = line.find("*/");
    comment += line.substr(0, close);
    if (close == npos) return out;
    i = close + 2;
    st.in_block_comment = false;
  } else if (st.in_raw_string) {
    const std::string end = ")" + st.raw_delim + "\"";
    const std::size_t close = line.find(end);
    if (close == npos) return out;
    i = close + end.size();
    st.in_raw_string = false;
    out.push_back(' ');
  }
  while (i < n) {
    const char c = line[i];
    if (c == '/' && i + 1 < n && line[i + 1] == '/') {
      comment += line.substr(i + 2);
      break;
    }
    if (c == '/' && i + 1 < n && line[i + 1] == '*') {
      const std::size_t close = line.find("*/", i + 2);
      comment += line.substr(i + 2, close == npos ? npos : close - (i + 2));
      if (close == npos) {
        st.in_block_comment = true;
        break;
      }
      i = close + 2;
      out.push_back(' ');
      continue;
    }
    if (c == '"') {
      if (i > 0 && line[i - 1] == 'R' &&
          (i < 2 || !ident_char(line[i - 2]))) {
        const std::size_t paren = line.find('(', i + 1);
        if (paren == npos) break;  // malformed; bail out
        st.raw_delim = std::string{line.substr(i + 1, paren - (i + 1))};
        const std::string end = ")" + st.raw_delim + "\"";
        const std::size_t close = line.find(end, paren + 1);
        if (close == npos) {
          st.in_raw_string = true;
          break;
        }
        i = close + end.size();
      } else {
        std::size_t j = i + 1;
        while (j < n && line[j] != '"') {
          if (line[j] == '\\') ++j;
          ++j;
        }
        std::string_view rest;
        if (is_pp(out, "include", &rest) &&
            rest.find_first_not_of(" \t") == std::string_view::npos) {
          include = std::string{line.substr(i + 1, j - (i + 1))};
        }
        i = j < n ? j + 1 : n;
      }
      out.push_back(' ');
      continue;
    }
    // A quote after an identifier/digit character is a digit separator
    // (1'000'000) or part of a literal suffix, not a character literal.
    if (c == '\'' && (i == 0 || !ident_char(line[i - 1]))) {
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

}  // namespace detail

/// Scans `content` into its live lines (see the header comment).
inline SourceFile scan(std::string name, std::string_view content) {
  using namespace detail;
  SourceFile file{std::move(name), {}};
  LexState lex;
  std::vector<std::string> allowed_above;
  int disabled_depth = 0;  // nesting depth inside an `#if 0` region
  int number = 0;
  for (std::size_t start = 0; start <= content.size();) {
    std::size_t end = content.find('\n', start);
    if (end == std::string_view::npos) end = content.size();
    Line line{++number, {}, {}, std::move(allowed_above)};
    std::string comment;
    line.code = strip(content.substr(start, end - start), lex, comment,
                      line.include);
    start = end + 1;
    allowed_above = allowed_rules(comment);
    line.allow.insert(line.allow.end(), allowed_above.begin(),
                      allowed_above.end());

    // Inner #if blocks nest within a disabled region; `#else`/`#elif` of
    // the disabling #if re-enables.
    std::string_view cond;
    if (disabled_depth > 0) {
      if (is_pp(line.code, "if") || is_pp(line.code, "ifdef") ||
          is_pp(line.code, "ifndef")) {
        ++disabled_depth;
      } else if (is_pp(line.code, "endif")) {
        --disabled_depth;
      } else if (disabled_depth == 1 &&
                 (is_pp(line.code, "else") || is_pp(line.code, "elif"))) {
        disabled_depth = 0;
      }
      continue;
    }
    if (is_pp(line.code, "if", &cond) && disabled_condition(cond)) {
      disabled_depth = 1;
      continue;
    }
    file.lines.push_back(std::move(line));
  }
  return file;
}

namespace detail {

/// Path stem ("src/bgp/speaker.cpp" -> "src/bgp/speaker") used to group a
/// header with its companion source file.
inline std::string stem_of(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  if (dot == std::string_view::npos ||
      (slash != std::string_view::npos && dot < slash)) {
    return std::string{path};
  }
  return std::string{path.substr(0, dot)};
}

/// Identifiers declared as unordered containers anywhere in `code`.
/// Handles declarations whose template arguments span line breaks.
inline std::vector<std::string> unordered_names(const std::string& code) {
  static const std::regex kDecl{
      R"(unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s*(\w+)\s*[;={(])"};
  std::vector<std::string> names;
  for (std::sregex_iterator it{code.begin(), code.end(), kDecl}, end;
       it != end; ++it) {
    names.push_back((*it)[1].str());
  }
  return names;
}

/// Type-alias names bound to unordered containers
/// (`using Foo = std::unordered_map<...>`). Aliases hide the container from
/// the declaration scan above, so variables of alias type are resolved in a
/// second step.
inline std::vector<std::string> unordered_alias_names(const std::string& code) {
  static const std::regex kAlias{
      R"(using\s+(\w+)\s*=\s*std::unordered_(?:map|set|multimap|multiset)\b)"};
  std::vector<std::string> names;
  for (std::sregex_iterator it{code.begin(), code.end(), kAlias}, end;
       it != end; ++it) {
    names.push_back((*it)[1].str());
  }
  return names;
}

/// Variables declared with one of the given alias types.
inline std::vector<std::string> alias_typed_names(
    const std::string& code, const std::set<std::string>& aliases) {
  std::vector<std::string> names;
  if (aliases.empty()) return names;
  std::string alt;
  for (const std::string& a : aliases) {
    if (!alt.empty()) alt += '|';
    alt += a;
  }
  const std::regex kDecl{R"(\b(?:)" + alt + R"()\s+(\w+)\s*[;={(])"};
  for (std::sregex_iterator it{code.begin(), code.end(), kDecl}, end;
       it != end; ++it) {
    names.push_back((*it)[1].str());
  }
  return names;
}

/// Identifiers declared `double x` / `float x` in `code` (accumulator
/// candidates for the float-accum rule).
inline std::vector<std::string> float_names(const std::string& code) {
  static const std::regex kDecl{R"(\b(?:double|float)\s+(\w+)\s*[;={])"};
  std::vector<std::string> names;
  for (std::sregex_iterator it{code.begin(), code.end(), kDecl}, end;
       it != end; ++it) {
    names.push_back((*it)[1].str());
  }
  return names;
}

inline bool mentions_name(std::string_view expr,
                          const std::set<std::string>& names) {
  static const std::regex kIdent{R"(\w+)"};
  const std::string s{expr};
  for (std::sregex_iterator it{s.begin(), s.end(), kIdent}, end; it != end;
       ++it) {
    if (names.contains(it->str())) return true;
  }
  return false;
}

}  // namespace detail

/// The determinism rules over every file, findings in file order.
inline std::vector<Finding> check_determinism(
    const std::vector<SourceFile>& files) {
  using namespace detail;

  static const std::regex kWallClock{
      R"(std::chrono::(?:system_clock|steady_clock|high_resolution_clock))"
      R"(|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\))"};
  static const std::regex kStdRng{
      R"(std::(?:rand\b|srand\b|mt19937(?:_64)?\b|minstd_rand0?\b|)"
      R"(default_random_engine\b|random_device\b|knuth_b\b|ranlux\d+\b)|\bsrand\s*\()"};
  static const std::regex kRangeFor{R"(for\s*\([^;()]*:\s*([^)]*))"};
  static const std::regex kAccumulateFloat{
      R"(std::accumulate\s*\([^;]*,\s*(?:0\.\d*f?|\d+\.\d*f?|(?:double|float)\s*[{(])\s*[,)])"};
  // \b keeps snprintf/fputs/fprintf(stderr) out: only bare printf/puts and
  // an explicit stdout stream count as terminal output.
  static const std::regex kRawOutput{
      R"(\bstd::cout\b|\bprintf\s*\(|\bputs\s*\(|\bfprintf\s*\(\s*stdout\b)"};
  // std::mutex / condition_variable / atomic are fine (synchronization, not
  // thread creation); only spawning primitives are flagged.
  static const std::regex kRawThread{
      R"(\bstd::(?:thread|jthread|async)\b|\bpthread_create\b)"};

  // Each file's code as one text, so declarations spanning lines resolve.
  std::vector<std::string> texts;
  for (const SourceFile& file : files) {
    std::string text;
    for (const Line& line : file.lines) {
      text += line.code;
      text += '\n';
    }
    texts.push_back(std::move(text));
  }

  // Pass 1a: alias names are corpus-global (a `using` in one header types
  // members everywhere).
  std::set<std::string> aliases;
  for (const std::string& text : texts) {
    for (std::string& id : unordered_alias_names(text)) {
      aliases.insert(std::move(id));
    }
  }

  // Pass 1b: unordered / float accumulator names, per stem group and global
  // (members with a trailing underscore).
  std::set<std::string> global_unordered;
  std::set<std::pair<std::string, std::string>> local_unordered;  // stem, name
  std::set<std::pair<std::string, std::string>> local_floats;
  for (std::size_t k = 0; k < files.size(); ++k) {
    const std::string stem = stem_of(files[k].name);
    std::vector<std::string> ids = unordered_names(texts[k]);
    for (std::string& id : alias_typed_names(texts[k], aliases)) {
      ids.push_back(std::move(id));
    }
    for (std::string& id : ids) {
      if (!id.empty() && id.back() == '_') global_unordered.insert(id);
      local_unordered.emplace(stem, std::move(id));
    }
    for (std::string& id : float_names(texts[k])) {
      local_floats.emplace(stem, std::move(id));
    }
  }

  // Pass 2: per-line scanning.
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    const std::string& name = file.name;
    const std::string stem = stem_of(name);
    // The obs renderer owns the sanctioned stdout sites.
    const bool obs_exempt = name.find("/obs/") != std::string::npos ||
                            name.rfind("obs/", 0) == 0;
    // exec/task_pool.* is the one sanctioned place that starts threads.
    const bool pool_exempt = stem.find("task_pool") != std::string::npos;
    std::set<std::string> unordered = global_unordered;
    std::set<std::string> floats;
    for (const auto& [s, id] : local_unordered) {
      if (s == stem) unordered.insert(id);
    }
    for (const auto& [s, id] : local_floats) {
      if (s == stem) floats.insert(id);
    }

    // Brace-depth tracking for the body of the innermost flagged
    // unordered-container loop (float-accum context).
    int unordered_loop_depth = -1;
    int depth = 0;

    for (const Line& line : file.lines) {
      const auto report = [&](const char* rule, std::string message) {
        if (line.allows(rule)) return;
        findings.push_back(
            Finding{name, line.number, rule, std::move(message)});
      };

      const std::string& code = line.code;
      if (std::regex_search(code, kWallClock)) {
        report("wall-clock",
               "wall-clock time source; use util::TimePoint simulation time");
      }
      if (std::regex_search(code, kStdRng)) {
        report("std-rng",
               "unseeded/standard RNG; use util::Rng with an explicit seed");
      }
      if (std::regex_search(code, kAccumulateFloat)) {
        report("float-accum",
               "std::accumulate over floats needs a documented ordering");
      }
      if (!obs_exempt && std::regex_search(code, kRawOutput)) {
        report("raw-output",
               "direct stdout write; route results through the obs renderer "
               "(obs::print / obs::Table)");
      }
      if (!pool_exempt && std::regex_search(code, kRawThread)) {
        report("raw-thread",
               "raw thread primitive; route parallelism through "
               "exec::parallel_for_n / exec::parallel_map");
      }

      bool flagged_iteration = false;
      std::smatch m;
      if (std::regex_search(code, m, kRangeFor) &&
          mentions_name(m[1].str(), unordered)) {
        flagged_iteration = true;
        report("unordered-iter",
               "range-for over an unordered container; order is "
               "hash/address dependent");
      }
      // Iterator-style walks: only `.begin()` marks iteration — `.end()`
      // alone is the idiomatic "not found" comparison after a lookup.
      if (!flagged_iteration) {
        static const std::regex kBegin{R"((\w+)\.begin\s*\()"};
        for (std::sregex_iterator it{code.begin(), code.end(), kBegin}, end;
             it != end; ++it) {
          if (unordered.contains((*it)[1].str())) {
            flagged_iteration = true;
            report("unordered-iter",
                   "iterator walk over an unordered container; order is "
                   "hash/address dependent");
            break;
          }
        }
      }

      // float-accum: += on a double/float accumulator inside the body of a
      // flagged unordered iteration.
      if (unordered_loop_depth >= 0 && code.find("+=") != std::string::npos) {
        static const std::regex kPlusEq{R"((\w+)\s*\+=)"};
        std::smatch am;
        if (std::regex_search(code, am, kPlusEq) &&
            (floats.contains(am[1].str()) ||
             code.find("static_cast<double>") != std::string::npos ||
             code.find("static_cast<float>") != std::string::npos)) {
          report("float-accum",
                 "floating-point accumulation in unordered iteration order");
        }
      }

      if (flagged_iteration) unordered_loop_depth = depth;
      for (char c : code) {
        if (c == '{') ++depth;
        if (c == '}') {
          --depth;
          if (unordered_loop_depth >= 0 && depth <= unordered_loop_depth) {
            unordered_loop_depth = -1;
          }
        }
      }
    }
  }
  return findings;
}

}  // namespace scion::lint
