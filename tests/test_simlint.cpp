// Unit tests for the simlint rule engine (tools/simlint_core.hpp): each
// rule's positive case, the idiomatic patterns that must stay clean, and
// the simlint:allow escape hatch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/simlint_core.hpp"
#include "tools/simlint_includes.hpp"
#include "tools/simlint_state.hpp"

namespace scion::lint {
namespace {

std::vector<Finding> lint_one(const std::string& content,
                              const std::string& name = "src/x.cpp") {
  Linter linter;
  linter.add_file(name, content);
  return linter.run();
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
  // Member declared in the header, iterated in the companion .cpp.
  Linter linter;
  linter.add_file("src/foo.hpp",
                  "struct S { std::unordered_map<int, int> table; };\n");
  linter.add_file("src/foo.cpp", "for (const auto& [k, v] : table) use(k);\n");
  // Same local name in an unrelated file must NOT inherit the type.
  linter.add_file("src/bar.cpp", "for (const auto& e : table) use(e);\n");
  const auto f = linter.run();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].file, "src/foo.cpp");
}

TEST(SimlintUnorderedIter, TrailingUnderscoreMembersAreGlobal) {
  Linter linter;
  linter.add_file("src/foo.hpp",
                  "class C { std::unordered_map<int, int> cache_; };\n");
  linter.add_file("src/other.cpp",
                  "for (const auto& [k, v] : cache_) use(k);\n");
  const auto f = linter.run();
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
  // The pool is the sanctioned owner of worker threads.
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

// --- include graph (architecture lint) ---------------------------------------

std::vector<Finding> graph_one(const std::string& content,
                               const std::string& name = "src/util/x.hpp") {
  IncludeGraph graph;
  graph.add_file(name, content);
  return graph.check();
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
                        "bench/bench_micro.cpp")
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

TEST(SimlintLayering, AllowDirectiveSuppresses) {
  EXPECT_TRUE(
      graph_one("#include \"simnet/simulator.hpp\"  "
                "// simlint:allow(layering)\n")
          .empty());
  EXPECT_TRUE(
      graph_one("// transitional shim, tracked in DESIGN.md. "
                "simlint:allow(layering)\n"
                "#include \"simnet/simulator.hpp\"\n")
          .empty());
}

TEST(SimlintCycle, ObservedCycleIsReported) {
  IncludeGraph graph;
  // A synthetic two-module DAG where both directions are declared legal —
  // the per-edge check stays quiet, so only cycle detection can catch it.
  graph.set_rules({{"a", {"b"}}, {"b", {"a"}}});
  graph.add_file("src/a/a.hpp", "#include \"b/b.hpp\"\n");
  graph.add_file("src/b/b.hpp", "#include \"a/a.hpp\"\n");
  const auto f = graph.check();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "module-cycle");
  EXPECT_NE(f[0].message.find("a -> b -> a"), std::string::npos);
}

TEST(SimlintCycle, RealTreeShapedGraphHasNoCycle) {
  IncludeGraph graph;
  graph.add_file("src/scion/sig.hpp", "#include \"core/pcb.hpp\"\n");
  graph.add_file("src/core/pcb.hpp", "#include \"crypto/mac.hpp\"\n");
  EXPECT_TRUE(graph.check().empty());
}

TEST(SimlintDot, OutputIsDeterministicAndSorted) {
  const auto build = [] {
    IncludeGraph graph;
    graph.set_rules({{"a", {"b"}}, {"b", {}}});
    graph.add_file("src/a/x.hpp", "#include \"b/y.hpp\"\n"
                                  "#include \"b/z.hpp\"\n");
    return graph.to_dot();
  };
  const std::string dot = build();
  EXPECT_EQ(dot, build());
  EXPECT_NE(dot.find("\"a\" -> \"b\" [label=\"2\"]"), std::string::npos);
  // Declared-but-unobserved modules still appear as nodes.
  EXPECT_NE(dot.find("\"b\";"), std::string::npos);
}


// --- shared-state analyzer (simlint_state.hpp) -------------------------------

std::vector<Finding> state_lint_one(const std::string& content,
                                    const std::string& name = "src/x.cpp") {
  StateAnalyzer a;
  a.set_allowlist({});  // exercise the rules, not the built-in registry list
  a.add_file(name, content);
  return a.check();
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

TEST(SimlintState, UnguardedMemberOfMutexOwningClassIsFlagged) {
  const auto f = state_lint_one("class C {\n"
                                " private:\n"
                                "  std::mutex mu_;\n"
                                "  int total_ = 0;\n"
                                "};\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unguarded-shared");
  EXPECT_EQ(f[0].line, 4);
  EXPECT_NE(f[0].message.find("total_"), std::string::npos);
  // util::Mutex declares a lock protocol just like std::mutex.
  EXPECT_EQ(rules_of(state_lint_one("class C {\n"
                                    "  util::Mutex mu_;\n"
                                    "  int n_ = 0;\n"
                                    "};\n")),
            std::vector<std::string>{"unguarded-shared"});
}

TEST(SimlintState, GuardedAndExemptMembersAreClean) {
  EXPECT_TRUE(state_lint_one("class C {\n"
                             "  mutable util::Mutex mu_;\n"
                             "  int total_ SCION_GUARDED_BY(mu_) = 0;\n"
                             "  std::vector<int> rows_ SCION_GUARDED_BY(mu_);\n"
                             "  util::CondVar cv_;\n"
                             "  const int limit_ = 4;\n"
                             "  static constexpr int kCap = 8;\n"
                             "};\n")
                  .empty());
  // A wrapped declaration with the annotation on its continuation line.
  EXPECT_TRUE(state_lint_one("class C {\n"
                             "  std::mutex mu_;\n"
                             "  std::map<std::string, int> by_name_\n"
                             "      SCION_GUARDED_BY(mu_);\n"
                             "};\n")
                  .empty());
}

TEST(SimlintState, AnnotationInsideCommentDoesNotCount) {
  EXPECT_EQ(rules_of(state_lint_one("class C {\n"
                                    "  std::mutex mu_;\n"
                                    "  int n_ = 0;  // SCION_GUARDED_BY(mu_)\n"
                                    "};\n")),
            std::vector<std::string>{"unguarded-shared"});
}

TEST(SimlintState, MutexFreeClassIsClean) {
  EXPECT_TRUE(state_lint_one("class PlainCounter {\n"
                             "  int total_ = 0;\n"
                             "  std::vector<int> rows_;\n"
                             "};\n")
                  .empty());
  // A mutex *reference* is not ownership: no lock protocol declared here.
  EXPECT_TRUE(state_lint_one("class Lock {\n"
                             "  util::Mutex& mu_;\n"
                             "};\n")
                  .empty());
}

TEST(SimlintState, AllowOnMemberSuppresses) {
  EXPECT_TRUE(state_lint_one(
                  "class C {\n"
                  "  std::mutex mu_;\n"
                  "  // Set once in the constructor. "
                  "simlint:allow(unguarded-shared)\n"
                  "  std::vector<std::thread> threads_;\n"
                  "};\n")
                  .empty());
}

TEST(SimlintState, AllowlistSuppressesByFileAndName) {
  StateAnalyzer a;
  a.set_allowlist({{"src/obs/metrics.cpp", "registry"}});
  a.add_file("src/obs/metrics.cpp",
             "static MetricsRegistry registry;\n"
             "static int g_other = 0;\n");
  const auto f = a.check();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].message.find("g_other"), std::string::npos);
}

TEST(SimlintState, ReportCountsAllowedSitesAndIsDeterministic) {
  const auto build = [] {
    StateAnalyzer a;
    a.set_allowlist({});
    a.add_file("src/x.cpp",
               "int g_a = 0;  // simlint:allow(mutable-global)\n"
               "int g_b = 0;\n");
    a.add_file("src/y.hpp",
               "class C {\n"
               "  std::mutex mu_;\n"
               "  int n_ SCION_GUARDED_BY(mu_) = 0;\n"
               "};\n");
    a.check();
    return a.state_report_json();
  };
  const std::string report = build();
  EXPECT_EQ(report, build());
  // Allowed sites still count: the report is the budget, lint is the gate.
  EXPECT_NE(report.find("\"src/x.cpp\", \"counts\": {\"guarded-member\": 0, "
                        "\"mutable-global\": 2, \"unguarded-shared\": 0}"),
            std::string::npos);
  EXPECT_NE(report.find("\"src/y.hpp\", \"counts\": {\"guarded-member\": 1, "
                        "\"mutable-global\": 0, \"unguarded-shared\": 0}"),
            std::string::npos);
}

TEST(SimlintState, BaselineDiffFlagsIncreasesOnly) {
  StateAnalyzer a;
  a.set_allowlist({});
  a.add_file("src/x.cpp", "int g_a = 0;  // simlint:allow(mutable-global)\n");
  a.check();
  const std::string baseline = a.state_report_json();

  // Same counts: clean.
  EXPECT_TRUE(a.diff_baseline(baseline).empty());

  // One more global in the same file: exactly one regression finding that
  // names the file and the rule.
  StateAnalyzer b;
  b.set_allowlist({});
  b.add_file("src/x.cpp",
             "int g_a = 0;  // simlint:allow(mutable-global)\n"
             "int g_b = 0;  // simlint:allow(mutable-global)\n");
  b.check();
  const auto regressions = b.diff_baseline(baseline);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0].rule, "state-regression");
  EXPECT_EQ(regressions[0].file, "src/x.cpp");
  EXPECT_NE(regressions[0].message.find("mutable-global"), std::string::npos);

  // A file absent from the baseline counts as zero everywhere.
  StateAnalyzer c;
  c.set_allowlist({});
  c.add_file("src/fresh.cpp",
             "int g_new = 0;  // simlint:allow(mutable-global)\n");
  c.check();
  EXPECT_EQ(c.diff_baseline(baseline).size(), 1u);

  // Fewer findings than baseline is fine (progress, not regression).
  StateAnalyzer d;
  d.set_allowlist({});
  d.add_file("src/x.cpp", "void f();\n");
  d.check();
  EXPECT_TRUE(d.diff_baseline(baseline).empty());
}

}  // namespace
}  // namespace scion::lint
