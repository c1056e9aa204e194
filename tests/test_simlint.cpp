// Unit tests for simlint: the line scanner and the determinism rules
// (tools/simlint_core.hpp), the layering rule (simlint_includes.hpp) and the
// mutable-global rule (simlint_state.hpp). Each rule's positive case, the
// idiomatic patterns that must stay clean, and the simlint:allow escape
// hatch.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "tools/simlint_core.hpp"
#include "tools/simlint_includes.hpp"
#include "tools/simlint_state.hpp"

namespace scion::lint {
namespace {

std::vector<Finding> lint_one(const std::string& content,
                              const std::string& name = "src/x.cpp") {
  return check_determinism({scan(name, content)});
}

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  for (const Finding& f : findings) out.push_back(f.rule);
  return out;
}

// --- wall-clock --------------------------------------------------------------

TEST(SimlintWallClock, FlagsChronoClocks) {
  const auto f = lint_one("auto t = std::chrono::system_clock::now();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "wall-clock");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(lint_one("auto t = std::chrono::steady_clock::now();")[0].rule,
            "wall-clock");
  EXPECT_EQ(
      lint_one("auto t = std::chrono::high_resolution_clock::now();")[0].rule,
      "wall-clock");
}

TEST(SimlintWallClock, FlagsCTimeSources) {
  EXPECT_EQ(rules_of(lint_one("time_t t = time(nullptr);")),
            std::vector<std::string>{"wall-clock"});
  EXPECT_EQ(rules_of(lint_one("time_t t = time(NULL);")),
            std::vector<std::string>{"wall-clock"});
  EXPECT_EQ(rules_of(lint_one("gettimeofday(&tv, nullptr);")),
            std::vector<std::string>{"wall-clock"});
  EXPECT_EQ(rules_of(lint_one("clock_gettime(CLOCK_MONOTONIC, &ts);")),
            std::vector<std::string>{"wall-clock"});
}

TEST(SimlintWallClock, SimulationTimeIsClean) {
  EXPECT_TRUE(lint_one("util::TimePoint now = sim.now();\n"
                       "auto later = now + util::Duration::seconds(5);\n")
                  .empty());
  // chrono duration arithmetic without a clock is fine.
  EXPECT_TRUE(lint_one("std::chrono::nanoseconds d{5};").empty());
  // An identifier merely containing "time" is not the C time() call.
  EXPECT_TRUE(lint_one("auto x = runtime();").empty());
}

// --- std-rng -----------------------------------------------------------------

TEST(SimlintStdRng, FlagsStandardEngines) {
  EXPECT_EQ(rules_of(lint_one("std::mt19937 gen;")),
            std::vector<std::string>{"std-rng"});
  EXPECT_EQ(rules_of(lint_one("std::mt19937_64 gen{seed};")),
            std::vector<std::string>{"std-rng"});
  EXPECT_EQ(rules_of(lint_one("std::default_random_engine e;")),
            std::vector<std::string>{"std-rng"});
  EXPECT_EQ(rules_of(lint_one("std::random_device rd;")),
            std::vector<std::string>{"std-rng"});
  EXPECT_EQ(rules_of(lint_one("int x = std::rand();")),
            std::vector<std::string>{"std-rng"});
  EXPECT_EQ(rules_of(lint_one("srand(42);")),
            std::vector<std::string>{"std-rng"});
}

TEST(SimlintStdRng, SeededUtilRngIsClean) {
  EXPECT_TRUE(lint_one("util::Rng rng{config.seed};\n"
                       "double u = rng.uniform();\n")
                  .empty());
}

// --- unordered-iter ----------------------------------------------------------

TEST(SimlintUnorderedIter, FlagsRangeForOverUnordered) {
  const auto f = lint_one(
      "std::unordered_map<int, int> counts;\n"
      "for (const auto& [k, v] : counts) {\n"
      "  out << k << v;\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-iter");
  EXPECT_EQ(f[0].line, 2);
}

TEST(SimlintUnorderedIter, FlagsIteratorWalk) {
  const auto f = lint_one(
      "std::unordered_set<int> seen;\n"
      "for (auto it = seen.begin(); it != seen.end(); ++it) {}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-iter");
}

TEST(SimlintUnorderedIter, LookupsAreClean) {
  EXPECT_TRUE(
      lint_one("std::unordered_map<int, int> counts;\n"
               "auto it = counts.find(k);\n"
               "if (it != counts.end()) use(it->second);\n"
               "counts[k] = 3;\n"
               "counts.erase(k);\n")
          .empty());
}

TEST(SimlintUnorderedIter, OrderedContainersAreClean) {
  EXPECT_TRUE(lint_one("std::map<int, int> counts;\n"
                       "for (const auto& [k, v] : counts) use(k, v);\n")
                  .empty());
}

TEST(SimlintUnorderedIter, ResolvesDeclarationsAcrossStemGroup) {
  // Member declared in the header, iterated in the companion .cpp. The same
  // local name in an unrelated file must NOT inherit the type.
  const auto f = check_determinism(
      {scan("src/foo.hpp",
            "struct S { std::unordered_map<int, int> table; };\n"),
       scan("src/foo.cpp", "for (const auto& [k, v] : table) use(k);\n"),
       scan("src/bar.cpp", "for (const auto& e : table) use(e);\n")});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].file, "src/foo.cpp");
}

TEST(SimlintUnorderedIter, TrailingUnderscoreMembersAreGlobal) {
  const auto f = check_determinism(
      {scan("src/foo.hpp",
            "class C { std::unordered_map<int, int> cache_; };\n"),
       scan("src/other.cpp", "for (const auto& [k, v] : cache_) use(k);\n")});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].file, "src/other.cpp");
}

TEST(SimlintUnorderedIter, ResolvesUnorderedTypeAliases) {
  const auto f = lint_one(
      "using Table = std::unordered_map<int, int>;\n"
      "Table table;\n"
      "for (const auto& [k, v] : table) use(k);\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-iter");
  EXPECT_EQ(f[0].line, 3);
}

TEST(SimlintUnorderedIter, MultilineDeclarationIsResolved) {
  const auto f = lint_one(
      "std::unordered_map<std::string,\n"
      "                   std::vector<int>>\n"
      "    buckets;\n"
      "for (auto& [k, v] : buckets) use(v);\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 4);
}

// --- float-accum -------------------------------------------------------------

TEST(SimlintFloatAccum, FlagsAccumulateWithFloatInit) {
  const auto f = lint_one(
      "double mean = std::accumulate(v.begin(), v.end(), 0.0) / n;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "float-accum");
}

TEST(SimlintFloatAccum, IntegerAccumulateIsClean) {
  EXPECT_TRUE(
      lint_one("long total = std::accumulate(v.begin(), v.end(), 0L);\n")
          .empty());
}

TEST(SimlintFloatAccum, FlagsFloatSumInsideUnorderedLoop) {
  const auto f = lint_one(
      "std::unordered_map<int, double> weights;\n"
      "double total = 0.0;\n"
      "for (const auto& [k, w] : weights) {\n"
      "  total += w;\n"
      "}\n");
  ASSERT_EQ(f.size(), 2u);  // the loop itself + the accumulation
  EXPECT_EQ(f[0].rule, "unordered-iter");
  EXPECT_EQ(f[1].rule, "float-accum");
  EXPECT_EQ(f[1].line, 4);
}

TEST(SimlintFloatAccum, IntegerSumInsideUnorderedLoopIsOnlyIterFlagged) {
  const auto f = lint_one(
      "std::unordered_map<int, int> counts;\n"
      "std::size_t n = 0;\n"
      "for (const auto& [k, c] : counts) {\n"
      "  n += c;\n"
      "}\n");
  EXPECT_EQ(rules_of(f), std::vector<std::string>{"unordered-iter"});
}

TEST(SimlintFloatAccum, LoopBodyContextEndsAtCloseBrace) {
  const auto f = lint_one(
      "std::unordered_map<int, double> weights;\n"
      "double total = 0.0;\n"
      "for (const auto& [k, w] : weights) {\n"  // flagged
      "  use(k);\n"
      "}\n"
      "total += 1.0;\n");  // outside the loop: clean
  EXPECT_EQ(rules_of(f), std::vector<std::string>{"unordered-iter"});
}

// --- allow directive ---------------------------------------------------------

TEST(SimlintAllow, SameLineDirectiveSuppresses) {
  EXPECT_TRUE(
      lint_one("std::unordered_map<int, int> counts;\n"
               "for (const auto& [k, v] : counts) {}  "
               "// simlint:allow(unordered-iter)\n")
          .empty());
}

TEST(SimlintAllow, PreviousLineDirectiveSuppresses) {
  EXPECT_TRUE(
      lint_one("std::unordered_map<int, int> counts;\n"
               "// commutative count, order-insensitive. "
               "simlint:allow(unordered-iter)\n"
               "for (const auto& [k, v] : counts) {}\n")
          .empty());
}

TEST(SimlintAllow, DirectiveDoesNotReachFurtherLines) {
  const auto f = lint_one(
      "std::unordered_map<int, int> counts;\n"
      "// simlint:allow(unordered-iter)\n"
      "use(counts.size());\n"
      "for (const auto& [k, v] : counts) {}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 4);
}

TEST(SimlintAllow, OnlySuppressesTheNamedRule) {
  const auto f = lint_one(
      "// simlint:allow(wall-clock)\n"
      "std::random_device rd;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "std-rng");
}

TEST(SimlintAllow, SuppressesMultipleCommaSeparatedRules) {
  EXPECT_TRUE(
      lint_one("std::unordered_map<int, double> w;\n"
               "double t = 0.0;\n"
               "// simlint:allow(unordered-iter)\n"
               "for (const auto& [k, v] : w) {\n"
               "  t += v;  // simlint:allow(float-accum)\n"
               "}\n")
          .empty());
}

// --- raw-output --------------------------------------------------------------

TEST(SimlintRawOutput, FlagsDirectStdoutWrites) {
  EXPECT_EQ(rules_of(lint_one("std::cout << result << '\\n';")),
            std::vector<std::string>{"raw-output"});
  EXPECT_EQ(rules_of(lint_one("std::printf(\"%d\\n\", x);")),
            std::vector<std::string>{"raw-output"});
  EXPECT_EQ(rules_of(lint_one("printf(\"%d\\n\", x);")),
            std::vector<std::string>{"raw-output"});
  EXPECT_EQ(rules_of(lint_one("puts(\"done\");")),
            std::vector<std::string>{"raw-output"});
  EXPECT_EQ(rules_of(lint_one("fprintf(stdout, \"%d\\n\", x);")),
            std::vector<std::string>{"raw-output"});
}

TEST(SimlintRawOutput, NonStdoutIoIsClean) {
  // Diagnostics on stderr and in-memory formatting are not result output.
  EXPECT_TRUE(lint_one("std::fprintf(stderr, \"oops\\n\");").empty());
  EXPECT_TRUE(
      lint_one("std::snprintf(buf, sizeof buf, \"%d\", x);").empty());
  EXPECT_TRUE(lint_one("std::fputs(\"x\", f);").empty());
  EXPECT_TRUE(lint_one("out << \"pair \" << src << '\\n';").empty());
}

TEST(SimlintRawOutput, ObsRendererFilesAreExempt) {
  // The renderer itself is the sanctioned stdout site.
  EXPECT_TRUE(
      lint_one("std::cout << text;", "src/obs/report.cpp").empty());
  EXPECT_TRUE(lint_one("std::cout << text;", "obs/report.cpp").empty());
  // Non-obs files stay covered.
  EXPECT_EQ(rules_of(lint_one("std::cout << text;", "src/core/scoring.cpp")),
            std::vector<std::string>{"raw-output"});
}

TEST(SimlintRawOutput, AllowDirectiveSuppresses) {
  EXPECT_TRUE(
      lint_one("std::cout << banner;  // simlint:allow(raw-output)\n")
          .empty());
}

// --- raw-thread --------------------------------------------------------------

TEST(SimlintRawThread, FlagsThreadSpawningPrimitives) {
  EXPECT_EQ(rules_of(lint_one("std::thread t{[] { work(); }};")),
            std::vector<std::string>{"raw-thread"});
  EXPECT_EQ(rules_of(lint_one("std::jthread t{[] { work(); }};")),
            std::vector<std::string>{"raw-thread"});
  EXPECT_EQ(rules_of(lint_one("auto f = std::async(std::launch::async, g);")),
            std::vector<std::string>{"raw-thread"});
  EXPECT_EQ(rules_of(lint_one("pthread_create(&tid, nullptr, fn, arg);")),
            std::vector<std::string>{"raw-thread"});
}

TEST(SimlintRawThread, SynchronizationPrimitivesAreClean) {
  // Mutexes/atomics coordinate pool workers; only spawning is flagged.
  EXPECT_TRUE(lint_one("std::mutex mu;").empty());
  EXPECT_TRUE(lint_one("std::condition_variable cv;").empty());
  EXPECT_TRUE(lint_one("std::atomic<std::size_t> next{0};").empty());
  EXPECT_TRUE(lint_one("thread_local MetricShard* t_shard = nullptr;").empty());
  // An identifier merely containing "thread" is not a spawn.
  EXPECT_TRUE(lint_one("pool.threads_.reserve(n);").empty());
}

TEST(SimlintRawThread, TaskPoolFilesAreExempt) {
  // src/exec/task_pool.* is the one sanctioned place that starts threads.
  EXPECT_TRUE(lint_one("std::thread t{[] { loop(); }};",
                       "src/exec/task_pool.cpp")
                  .empty());
  EXPECT_TRUE(lint_one("std::vector<std::thread> threads_;",
                       "src/exec/task_pool.hpp")
                  .empty());
  // Everything else stays covered.
  EXPECT_EQ(rules_of(lint_one("std::thread t{[] { loop(); }};",
                              "src/experiments/quality_experiment.cpp")),
            std::vector<std::string>{"raw-thread"});
}

TEST(SimlintRawThread, AllowDirectiveSuppresses) {
  EXPECT_TRUE(
      lint_one("std::thread watchdog{[] {}};  // simlint:allow(raw-thread)\n")
          .empty());
}

// --- comment handling --------------------------------------------------------

TEST(SimlintAllow, DirectiveToleratesWhitespaceInsideParens) {
  EXPECT_TRUE(
      lint_one("std::unordered_map<int, double> w;\n"
               "double t = 0.0;\n"
               "// simlint:allow( unordered-iter , float-accum )\n"
               "for (const auto& [k, v] : w) {\n"
               "  t += v;  // simlint:allow( float-accum )\n"
               "}\n")
          .empty());
}

TEST(SimlintComments, HazardsInCommentsAreIgnored) {
  EXPECT_TRUE(
      lint_one("// std::rand() would break reproducibility here\n"
               "/* std::chrono::system_clock is also banned */\n"
               "int x = 1;\n")
          .empty());
  EXPECT_TRUE(
      lint_one("/*\n"
               " * for (auto& e : some_unordered_thing) — example only\n"
               " * std::mt19937 gen;\n"
               " */\n"
               "int y = 2;\n")
          .empty());
}

TEST(SimlintComments, HazardsInStringLiteralsAreIgnored) {
  EXPECT_TRUE(
      lint_one("const char* kMsg = \"std::rand() is banned\";\n").empty());
  EXPECT_TRUE(
      lint_one("log(R\"(std::chrono::system_clock\n"
               "std::mt19937 gen;)\");\n")
          .empty());
  EXPECT_TRUE(lint_one("char q = '\"'; auto s = \"std::cout\";\n").empty());
  // The code around a literal is still linted.
  EXPECT_EQ(rules_of(lint_one("int x = std::rand() + f(\"y\");\n")),
            std::vector<std::string>{"std-rng"});
}

TEST(SimlintComments, HazardsInDisabledRegionsAreIgnored) {
  EXPECT_TRUE(lint_one("#if 0\n"
                       "std::mt19937 gen;\n"
                       "#endif\n")
                  .empty());
  const auto f = lint_one("#if 0\n"
                          "std::mt19937 gen;\n"
                          "#else\n"
                          "std::mt19937 live;\n"
                          "#endif\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 4);
}

TEST(SimlintScan, YieldsCodeIncludeAndAllowPerLine) {
  const SourceFile file =
      scan("src/x.cpp",
           "#include \"util/rng.hpp\"  // simlint:allow(std-rng)\n"
           "int x = 1;  /* simlint:allow(wall-clock) */\n"
           "#if 0\n"
           "int dead;\n"
           "#endif\n"
           "#include <vector>\n");
  ASSERT_EQ(file.lines.size(), 4u);  // the #if 0 region is dropped
  EXPECT_EQ(file.lines[0].include, "util/rng.hpp");
  EXPECT_EQ(file.lines[0].allow, std::vector<std::string>{"std-rng"});
  EXPECT_EQ(file.lines[1].number, 2);
  EXPECT_EQ(file.lines[1].code, "int x = 1;   ");
  // The directive reaches the next line, and the block comment's does too.
  EXPECT_EQ(file.lines[1].allow,
            (std::vector<std::string>{"std-rng", "wall-clock"}));
  EXPECT_EQ(file.lines[2].number, 6);
  EXPECT_EQ(file.lines[2].include, "");
  // A directive spelled inside a string literal is no directive.
  EXPECT_TRUE(scan("src/x.cpp", "f(\"simlint:allow(std-rng)\");\n")
                  .lines[0]
                  .allow.empty());
}

// --- include graph (architecture lint) ---------------------------------------

std::vector<Finding> graph_one(const std::string& content,
                               const std::string& name = "src/util/x.hpp") {
  return check_layering({scan(name, content)});
}

TEST(SimlintLayering, UpwardIncludeIsFlagged) {
  // util is the bottom layer: reaching up into simnet violates the DAG.
  const auto f = graph_one("#include \"simnet/simulator.hpp\"\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_NE(f[0].message.find("'util'"), std::string::npos);
  EXPECT_NE(f[0].message.find("'simnet'"), std::string::npos);
}

TEST(SimlintLayering, DeclaredDependenciesAreClean) {
  EXPECT_TRUE(graph_one("#include <vector>\n"
                        "#include \"simnet/network.hpp\"\n"
                        "#include \"topology/topology.hpp\"\n"
                        "#include \"util/rng.hpp\"\n",
                        "src/faults/injector.hpp")
                  .empty());
}

TEST(SimlintLayering, IntraModuleAndSystemIncludesAreIgnored) {
  EXPECT_TRUE(graph_one("#include <chrono>\n"
                        "#include \"util/time.hpp\"\n"   // intra-module
                        "#include \"local_helper.hpp\"\n")  // no slash
                  .empty());
}

TEST(SimlintLayering, FilesOutsideSrcAreNotPartOfTheLayeredWorld) {
  // bench/tools/tests consume every layer; they carry no layering info.
  EXPECT_TRUE(graph_one("#include \"scion/sig.hpp\"\n"
                        "#include \"util/rng.hpp\"\n",
                        "bench/bench_fig5_overhead.cpp")
                  .empty());
  EXPECT_TRUE(graph_one("#include \"scion/sig.hpp\"\n", "src/version.hpp")
                  .empty());  // directly under src/: no module directory
}

TEST(SimlintLayering, UndeclaredModuleIsFlagged) {
  const auto f =
      graph_one("#include \"util/rng.hpp\"\n", "src/newmod/thing.hpp");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_NE(f[0].message.find("not declared"), std::string::npos);
}

TEST(SimlintLayering, IncludeInBlockCommentCreatesNoEdge) {
  EXPECT_TRUE(graph_one("/* historical note:\n"
                        "#include \"simnet/simulator.hpp\"\n"
                        "was removed when util stopped timing itself. */\n")
                  .empty());
  EXPECT_TRUE(
      graph_one("// #include \"simnet/simulator.hpp\"\n").empty());
}

TEST(SimlintLayering, IncludeInDisabledRegionCreatesNoEdge) {
  EXPECT_TRUE(graph_one("#if 0\n"
                        "#include \"simnet/simulator.hpp\"\n"
                        "#endif\n")
                  .empty());
  EXPECT_TRUE(graph_one("#if false\n"
                        "#include \"simnet/simulator.hpp\"\n"
                        "#endif\n")
                  .empty());
  // Inner conditional blocks nest within the disabled region.
  EXPECT_TRUE(graph_one("#if 0\n"
                        "#ifdef SOMETHING\n"
                        "#include \"simnet/simulator.hpp\"\n"
                        "#endif\n"
                        "#include \"simnet/network.hpp\"\n"
                        "#endif\n")
                  .empty());
}

TEST(SimlintLayering, ElseOfDisabledRegionIsActive) {
  const auto f = graph_one("#if 0\n"
                           "#include \"simnet/network.hpp\"\n"
                           "#else\n"
                           "#include \"simnet/simulator.hpp\"\n"
                           "#endif\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 4);
}

TEST(SimlintLayering, AllowDirectiveDoesNotSuppress) {
  // An upward include needs the shared code moved down; no directive
  // excuses it.
  EXPECT_EQ(rules_of(graph_one("#include \"simnet/simulator.hpp\"  "
                               "// simlint:allow(layering)\n")),
            std::vector<std::string>{"layering"});
  EXPECT_EQ(rules_of(graph_one("// transitional shim. "
                               "simlint:allow(layering)\n"
                               "#include \"simnet/simulator.hpp\"\n")),
            std::vector<std::string>{"layering"});
}

TEST(SimlintLayering, DeclaredListIsBottomUp) {
  // Each module names only modules listed before it, so every include the
  // rule accepts points to an earlier module and the include graph cannot
  // cycle.
  std::set<std::string> below;
  for (const auto& [module, deps] : default_layering()) {
    for (const std::string& dep : deps) {
      EXPECT_TRUE(below.contains(dep))
          << "'" << module << "' names '" << dep << "', which is not listed "
          << "before it";
    }
    EXPECT_TRUE(below.insert(module).second) << module << " listed twice";
  }
}

TEST(SimlintCycle, RealTreeShapedGraphHasNoCycle) {
  // A chain through the declared list: every edge is accepted.
  EXPECT_TRUE(check_layering({scan("src/scion/sig.hpp",
                                   "#include \"core/pcb.hpp\"\n"),
                              scan("src/core/pcb.hpp",
                                   "#include \"crypto/mac.hpp\"\n")})
                  .empty());
}

// --- shared-state rule (simlint_state.hpp) -----------------------------------

std::vector<Finding> state_lint_one(const std::string& content,
                                    const std::string& name = "src/x.cpp") {
  return check_state({scan(name, content)});
}

TEST(SimlintState, NamespaceScopeGlobalIsFlagged) {
  const auto f = state_lint_one("namespace scion {\n"
                                "int g_count = 0;\n"
                                "}  // namespace scion\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "mutable-global");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("g_count"), std::string::npos);
  // Top of file counts as namespace scope even without a namespace keyword.
  EXPECT_EQ(rules_of(state_lint_one("std::vector<int> g_rows;\n")),
            std::vector<std::string>{"mutable-global"});
}

TEST(SimlintState, FunctionLocalStaticAndThreadLocalAreFlagged) {
  EXPECT_EQ(rules_of(state_lint_one("int f() {\n"
                                    "  static int calls = 0;\n"
                                    "  return ++calls;\n"
                                    "}\n")),
            std::vector<std::string>{"mutable-global"});
  EXPECT_EQ(rules_of(state_lint_one("thread_local int t_depth = 0;\n")),
            std::vector<std::string>{"mutable-global"});
}

TEST(SimlintState, ConstAndConstexprAreClean) {
  EXPECT_TRUE(state_lint_one("static constexpr int kMax = 4;\n").empty());
  EXPECT_TRUE(state_lint_one("const std::string kName = \"x\";\n").empty());
  EXPECT_TRUE(
      state_lint_one("static const std::regex kRe{\"a\"};\n").empty());
  // constinit promises constant initialization, not immutability.
  EXPECT_EQ(rules_of(state_lint_one("constinit int g_mode = 0;\n")),
            std::vector<std::string>{"mutable-global"});
}

TEST(SimlintState, FunctionsAndLocalsAreClean) {
  EXPECT_TRUE(state_lint_one("int parse(const char* s);\n").empty());
  EXPECT_TRUE(state_lint_one("static int helper() { return 1; }\n").empty());
  // A plain local inside a function body is block scope, not namespace.
  EXPECT_TRUE(state_lint_one("void f() {\n"
                             "  int local = 0;\n"
                             "  use(local);\n"
                             "}\n")
                  .empty());
  // Continuation lines of a wrapped parameter list are not declarations.
  EXPECT_TRUE(state_lint_one("void record(int a,\n"
                             "            int allocs = 0, int bytes = 0);\n")
                  .empty());
}

TEST(SimlintState, AllowDirectivePlacementAndWhitespace) {
  // Same line.
  EXPECT_TRUE(
      state_lint_one("int g_x = 0;  // simlint:allow(mutable-global)\n")
          .empty());
  // Line directly above.
  EXPECT_TRUE(state_lint_one("// why it is safe. simlint:allow(mutable-global)\n"
                             "int g_x = 0;\n")
                  .empty());
  // Whitespace inside the directive's rule list is ignored.
  EXPECT_TRUE(
      state_lint_one("int g_x = 0;  // simlint:allow( mutable-global )\n")
          .empty());
  // Two lines above is too far: the directive must touch the declaration.
  EXPECT_EQ(state_lint_one("// simlint:allow(mutable-global)\n"
                           "\n"
                           "int g_x = 0;\n")
                .size(),
            1u);
}

TEST(SimlintState, CommentedAndDisabledRegionsAreClean) {
  // Inside a block comment.
  EXPECT_TRUE(state_lint_one("/*\n"
                             "static int g_old = 0;\n"
                             "*/\n")
                  .empty());
  // Inside #if 0, including nested conditional blocks.
  EXPECT_TRUE(state_lint_one("#if 0\n"
                             "static int g_dead = 0;\n"
                             "#ifdef FOO\n"
                             "static int g_deader = 0;\n"
                             "#endif\n"
                             "#endif\n")
                  .empty());
  // The #else of a disabled region is live again.
  EXPECT_EQ(state_lint_one("#if 0\n"
                           "static int g_dead = 0;\n"
                           "#else\n"
                           "static int g_live = 0;\n"
                           "#endif\n")
                .size(),
            1u);
  // Inside a string literal (the JSON emitters spell such text).
  EXPECT_TRUE(
      state_lint_one("const char* kMsg = \"static int g_fake = 0;\";\n")
          .empty());
}

TEST(SimlintState, MacroGeneratedStaticIsFlagged) {
  EXPECT_EQ(rules_of(state_lint_one(
                "#define DEFINE_COUNTER(name) static int name = 0;\n")),
            std::vector<std::string>{"mutable-global"});
}

}  // namespace
}  // namespace scion::lint
