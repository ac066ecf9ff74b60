/**
 * @file
 * Tests for coldboot-lint: tokenizer edge cases, every rule's
 * positive and negative cases, suppression handling, per-directory
 * config, tree walking, and the JSON/SARIF emitters round-tripped
 * through the in-tree obs::json parser.
 *
 * All violation samples live inside raw string literals, so this
 * file itself stays lint-clean.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include <unistd.h>

#include "lint/callgraph.hh"
#include "lint/engine.hh"
#include "lint/lexer.hh"
#include "lint/parse.hh"
#include "lint/rules.hh"
#include "obs/json.hh"

namespace fs = std::filesystem;
using namespace coldboot;
using namespace coldboot::lint;

namespace
{

/** Findings for one in-memory source with no rules disabled. */
std::vector<Finding>
lintOf(const std::string &path, const std::string &src)
{
    return lintSource(path, src);
}

/** Count findings for a given rule. */
size_t
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    size_t n = 0;
    for (const auto &f : findings)
        n += f.rule == rule;
    return n;
}

} // anonymous namespace

// ---------------------------------------------------------------
// Tokenizer.
// ---------------------------------------------------------------

TEST(LintLexer, IdentifiersAndPositions)
{
    auto lexed = lex("foo bar\n  baz");
    ASSERT_EQ(lexed.tokens.size(), 3u);
    EXPECT_EQ(lexed.tokens[0].text, "foo");
    EXPECT_EQ(lexed.tokens[0].line, 1);
    EXPECT_EQ(lexed.tokens[0].col, 1);
    EXPECT_EQ(lexed.tokens[1].text, "bar");
    EXPECT_EQ(lexed.tokens[1].col, 5);
    EXPECT_EQ(lexed.tokens[2].text, "baz");
    EXPECT_EQ(lexed.tokens[2].line, 2);
    EXPECT_EQ(lexed.tokens[2].col, 3);
}

TEST(LintLexer, LineCommentsAreNotTokens)
{
    auto lexed = lex("a // memset(master_key)\nb");
    ASSERT_EQ(lexed.tokens.size(), 2u);
    EXPECT_EQ(lexed.tokens[0].text, "a");
    EXPECT_EQ(lexed.tokens[1].text, "b");
    ASSERT_EQ(lexed.comments.size(), 1u);
    EXPECT_EQ(lexed.comments[0].line, 1);
    EXPECT_NE(lexed.comments[0].text.find("memset"),
              std::string::npos);
}

TEST(LintLexer, BlockCommentsSpanLines)
{
    auto lexed = lex("a /* one\ntwo */ b");
    ASSERT_EQ(lexed.tokens.size(), 2u);
    EXPECT_EQ(lexed.tokens[1].text, "b");
    EXPECT_EQ(lexed.tokens[1].line, 2);
    ASSERT_EQ(lexed.comments.size(), 1u);
    EXPECT_EQ(lexed.comments[0].line, 1);
}

TEST(LintLexer, StringLiteralContentsNotTokenized)
{
    auto lexed = lex(R"lit(x = "memset(master_key, 0, 64)";)lit");
    for (const auto &t : lexed.tokens)
        EXPECT_NE(t.text, "memset");
    // Escaped quote stays inside the literal.
    auto esc = lex(R"lit(y = "a\"memset\"b"; z)lit");
    ASSERT_FALSE(esc.tokens.empty());
    EXPECT_EQ(esc.tokens.back().text, "z");
}

TEST(LintLexer, RawStringContentsNotTokenized)
{
    std::string src = "auto s = R\"lint(memset(master, 0, 4) "
                      "\"inner\" )x\" )lint\"; tail";
    auto lexed = lex(src);
    bool saw_memset = false, saw_tail = false;
    for (const auto &t : lexed.tokens) {
        saw_memset |= t.text == "memset";
        saw_tail |= t.text == "tail";
    }
    EXPECT_FALSE(saw_memset);
    EXPECT_TRUE(saw_tail);
}

TEST(LintLexer, CharLiteralsAndDigitSeparators)
{
    auto lexed = lex("char c = 'x'; int n = 1'000'000; a");
    EXPECT_EQ(lexed.tokens.back().text, "a");
    bool saw_number = false;
    for (const auto &t : lexed.tokens)
        if (t.kind == TokKind::Number)
            saw_number = t.text == "1'000'000";
    EXPECT_TRUE(saw_number);
}

TEST(LintLexer, PreprocessorDirectiveIsOneToken)
{
    auto lexed = lex("#include <sys/time.h>\nint x;");
    ASSERT_GE(lexed.tokens.size(), 1u);
    EXPECT_EQ(lexed.tokens[0].kind, TokKind::Preprocessor);
    // 'time' inside the include path must not be an identifier.
    for (size_t i = 1; i < lexed.tokens.size(); ++i)
        EXPECT_NE(lexed.tokens[i].text, "time");
}

TEST(LintLexer, PreprocessorContinuationJoined)
{
    auto lexed = lex("#define M(a) \\\n    (a + 1)\nint y;");
    ASSERT_GE(lexed.tokens.size(), 2u);
    EXPECT_EQ(lexed.tokens[0].kind, TokKind::Preprocessor);
    EXPECT_NE(lexed.tokens[0].text.find("(a + 1)"),
              std::string::npos);
    EXPECT_EQ(lexed.tokens[1].text, "int");
}

// ---------------------------------------------------------------
// secret-wipe.
// ---------------------------------------------------------------

TEST(LintRules, SecretWipePositive)
{
    auto f = lintOf("a.cc", R"(
void scrub(unsigned char *master_key) {
    std::memset(master_key, 0, 64);
})");
    ASSERT_EQ(countRule(f, "secret-wipe"), 1u);
    EXPECT_EQ(f[0].line, 3);

    auto g = lintOf("a.cc", "bzero(secret_buf, n);");
    EXPECT_EQ(countRule(g, "secret-wipe"), 1u);

    // The builtin spelling is just as elidable as the std one.
    auto h = lintOf("a.cc", "__builtin_memset(master_key, 0, 64);");
    EXPECT_EQ(countRule(h, "secret-wipe"), 1u);
}

TEST(LintRules, SecretWipeNegative)
{
    // Non-secret identifiers are fine to memset.
    auto f = lintOf("a.cc", "std::memset(buffer, 0, n);");
    EXPECT_EQ(countRule(f, "secret-wipe"), 0u);
    // Mentions in comments and strings are not calls.
    auto g = lintOf("a.cc",
                    "// std::memset(master, 0, 64)\n"
                    "const char *s = \"memset(master, 0, 64)\";");
    EXPECT_EQ(countRule(g, "secret-wipe"), 0u);
    // secureWipe itself is the fix, not a finding.
    auto h = lintOf("a.cc", "secureWipe(master_key, 64);");
    EXPECT_EQ(countRule(h, "secret-wipe"), 0u);
}

// ---------------------------------------------------------------
// banned-api.
// ---------------------------------------------------------------

TEST(LintRules, BannedApiPositive)
{
    auto f = lintOf("a.cc", R"(
int x = rand();
char b[8]; sprintf(b, "%d", x);
system("ls");
char *p = new char[32];
)");
    EXPECT_EQ(countRule(f, "banned-api"), 4u);
}

TEST(LintRules, BannedApiNegative)
{
    auto f = lintOf("a.cc", R"(
int random_value = myRandom();
auto widget = new Widget();
auto obj = new Thing(arg1, arg2);
int srandom = 3; (void)srandom;
snprintf(buf, sizeof(buf), "%d", 1);
)");
    EXPECT_EQ(countRule(f, "banned-api"), 0u);
}

// ---------------------------------------------------------------
// no-wallclock-in-sim.
// ---------------------------------------------------------------

TEST(LintRules, WallclockPositive)
{
    auto f = lintOf("a.cc", R"(
time_t t = time(nullptr);
auto n = std::chrono::system_clock::now();
std::random_device rd;
)");
    EXPECT_EQ(countRule(f, "no-wallclock-in-sim"), 3u);
}

TEST(LintRules, WallclockNegative)
{
    auto f = lintOf("a.cc", R"(
auto t0 = std::chrono::steady_clock::now();
engine.clock();
sim.time(5);
uint64_t sim_time = 7;
)");
    EXPECT_EQ(countRule(f, "no-wallclock-in-sim"), 0u);
}

// ---------------------------------------------------------------
// include-hygiene.
// ---------------------------------------------------------------

TEST(LintRules, HeaderGuardMissing)
{
    auto f = lintOf("a.hh", "int x;\n");
    EXPECT_EQ(countRule(f, "include-hygiene"), 1u);
    // Same content in a .cc is fine.
    auto g = lintOf("a.cc", "int x;\n");
    EXPECT_EQ(countRule(g, "include-hygiene"), 0u);
}

TEST(LintRules, HeaderGuardVariantsAccepted)
{
    auto pragma = lintOf("a.hh", "#pragma once\nint x;\n");
    EXPECT_EQ(countRule(pragma, "include-hygiene"), 0u);
    auto classic = lintOf("a.hh",
                          "#ifndef A_HH\n#define A_HH\nint x;\n"
                          "#endif\n");
    EXPECT_EQ(countRule(classic, "include-hygiene"), 0u);
    // Guard macro mismatch is not a guard.
    auto broken = lintOf("a.hh",
                         "#ifndef A_HH\n#define OTHER_HH\nint x;\n"
                         "#endif\n");
    EXPECT_EQ(countRule(broken, "include-hygiene"), 1u);
}

TEST(LintRules, UsingNamespaceInHeader)
{
    std::string guarded = "#pragma once\nusing namespace std;\n";
    auto f = lintOf("a.hh", guarded);
    EXPECT_EQ(countRule(f, "include-hygiene"), 1u);
    // In a .cc it is allowed (style handled elsewhere).
    auto g = lintOf("a.cc", "using namespace std;\n");
    EXPECT_EQ(countRule(g, "include-hygiene"), 0u);
    // `using x = y;` aliases are fine in headers.
    auto h = lintOf("a.hh", "#pragma once\nusing T = int;\n");
    EXPECT_EQ(countRule(h, "include-hygiene"), 0u);
}

// ---------------------------------------------------------------
// log-no-secrets.
// ---------------------------------------------------------------

TEST(LintRules, LogNoSecretsPositive)
{
    auto f = lintOf("a.cc",
                    "cb_inform(\"key=%s\", toHex(master_key));");
    EXPECT_EQ(countRule(f, "log-no-secrets"), 1u);
    auto g = lintOf("a.cc", "LOG_INFO(\"%p\", secret_ptr);");
    EXPECT_EQ(countRule(g, "log-no-secrets"), 1u);
}

TEST(LintRules, LogNoSecretsNegative)
{
    // Sizes and counts of key material are not key material.
    auto f = lintOf(
        "a.cc", "cb_inform(\"%zu keys\", mined_keys.size());");
    EXPECT_EQ(countRule(f, "log-no-secrets"), 0u);
    // Literals mentioning "key" are fine.
    auto g = lintOf("a.cc", "cb_inform(\"master key recovered\");");
    EXPECT_EQ(countRule(g, "log-no-secrets"), 0u);
    // Non-logging calls are out of scope for this rule.
    auto h = lintOf("a.cc", "store(master_key);");
    EXPECT_EQ(countRule(h, "log-no-secrets"), 0u);
}

TEST(LintRules, NoRawThreadPositive)
{
    auto f = lintOf("src/attack/scan.cc",
                    "std::thread worker(scanRange, lo, hi);");
    EXPECT_EQ(countRule(f, "no-raw-thread"), 1u);
    auto g = lintOf("tests/test_x.cc",
                    "std::vector<std::jthread> pool;");
    EXPECT_EQ(countRule(g, "no-raw-thread"), 1u);
    auto h = lintOf("bench/b.cc",
                    "pthread_create(&tid, nullptr, fn, arg);");
    EXPECT_EQ(countRule(h, "no-raw-thread"), 1u);
}

TEST(LintRules, NoRawThreadNegative)
{
    // src/exec/ owns the raw threads behind the ThreadPool.
    auto f = lintOf("src/exec/thread_pool.cc",
                    "std::vector<std::thread> threads;");
    EXPECT_EQ(countRule(f, "no-raw-thread"), 0u);
    // Scoped members are queries, not thread construction.
    auto g = lintOf("src/obs/trace.cc",
                    "std::thread::id id; unsigned n = "
                    "std::thread::hardware_concurrency();");
    EXPECT_EQ(countRule(g, "no-raw-thread"), 0u);
    // std::this_thread and plain identifiers named 'thread'.
    auto h = lintOf("src/a.cc",
                    "std::this_thread::yield(); int thread = 0;");
    EXPECT_EQ(countRule(h, "no-raw-thread"), 0u);
    // Suppressible like any other rule.
    auto s = lintOf(
        "tests/test_y.cc",
        "// coldboot-lint: allow(no-raw-thread) -- below the pool\n"
        "std::vector<std::thread> pool;");
    EXPECT_EQ(countRule(s, "no-raw-thread"), 0u);
}

TEST(LintRules, LooksSecret)
{
    EXPECT_TRUE(looksSecret("master_key"));
    EXPECT_TRUE(looksSecret("PassPhrase"));
    EXPECT_TRUE(looksSecret("the_secret"));
    EXPECT_FALSE(looksSecret("buffer"));
    EXPECT_FALSE(looksSecret("recovered"));
}

TEST(LintRules, LooksKeyMaterialDemotesMetadata)
{
    // The taint pass amplifies seeds across the call graph, so its
    // heuristic demotes identifiers *about* keys: sizes, offsets,
    // counts, stat-registry key strings.
    EXPECT_TRUE(looksKeyMaterial("master_key"));
    EXPECT_TRUE(looksKeyMaterial("data_key"));
    EXPECT_TRUE(looksKeyMaterial("mined_keys"));
    EXPECT_FALSE(looksKeyMaterial("key_size"));
    EXPECT_FALSE(looksKeyMaterial("key_len"));
    EXPECT_FALSE(looksKeyMaterial("keytable_addr"));
    EXPECT_FALSE(looksKeyMaterial("distinct_keys"));
    EXPECT_FALSE(looksKeyMaterial("key_match"));
    EXPECT_FALSE(looksKeyMaterial("key")); // stat-registry key
    EXPECT_FALSE(looksKeyMaterial("keys"));
    EXPECT_FALSE(looksKeyMaterial("buffer"));
}

// ---------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------

TEST(LintSuppression, SameLineAndLineAbove)
{
    std::string same =
        "std::memset(master_key, 0, 64); "
        "// coldboot-lint: allow(secret-wipe) -- test fixture\n";
    EXPECT_EQ(countRule(lintOf("a.cc", same), "secret-wipe"), 0u);

    std::string above =
        "// coldboot-lint: allow(secret-wipe) -- test fixture\n"
        "std::memset(master_key, 0, 64);\n";
    EXPECT_EQ(countRule(lintOf("a.cc", above), "secret-wipe"), 0u);
}

TEST(LintSuppression, WrongRuleDoesNotSuppress)
{
    std::string src =
        "// coldboot-lint: allow(banned-api) -- wrong rule\n"
        "std::memset(master_key, 0, 64);\n";
    EXPECT_EQ(countRule(lintOf("a.cc", src), "secret-wipe"), 1u);
}

TEST(LintSuppression, TooFarAwayDoesNotSuppress)
{
    std::string src =
        "// coldboot-lint: allow(secret-wipe) -- too far\n"
        "int x;\n"
        "std::memset(master_key, 0, 64);\n";
    EXPECT_EQ(countRule(lintOf("a.cc", src), "secret-wipe"), 1u);
}

TEST(LintSuppression, BlankLineBreaksAdjacency)
{
    // A standalone suppression covers exactly the next line; even a
    // blank line in between detaches it from the finding.
    std::string src =
        "// coldboot-lint: allow(secret-wipe) -- detached\n"
        "\n"
        "std::memset(master_key, 0, 64);\n";
    EXPECT_EQ(countRule(lintOf("a.cc", src), "secret-wipe"), 1u);
}

TEST(LintSuppression, MissingJustificationIsAFinding)
{
    std::string src =
        "// coldboot-lint: allow(secret-wipe)\n"
        "std::memset(master_key, 0, 64);\n";
    auto f = lintOf("a.cc", src);
    EXPECT_EQ(countRule(f, "bad-suppression"), 1u);
    // And the malformed suppression does not waive the finding.
    EXPECT_EQ(countRule(f, "secret-wipe"), 1u);
}

TEST(LintSuppression, UnknownRuleIsAFinding)
{
    std::string src =
        "// coldboot-lint: allow(no-such-rule) -- why\nint x;\n";
    EXPECT_EQ(countRule(lintOf("a.cc", src), "bad-suppression"), 1u);
}

TEST(LintSuppression, ProseMentionIsNotASuppression)
{
    std::string src =
        "// see the coldboot-lint: allow(secret-wipe) syntax\n"
        "int x;\n";
    EXPECT_EQ(countRule(lintOf("a.cc", src), "bad-suppression"), 0u);
}

// ---------------------------------------------------------------
// Rule catalog and disabling.
// ---------------------------------------------------------------

TEST(LintRules, CatalogKnowsEveryRule)
{
    EXPECT_GE(ruleCatalog().size(), 10u);
    EXPECT_TRUE(isKnownRule("secret-wipe"));
    EXPECT_TRUE(isKnownRule("banned-api"));
    EXPECT_TRUE(isKnownRule("no-wallclock-in-sim"));
    EXPECT_TRUE(isKnownRule("include-hygiene"));
    EXPECT_TRUE(isKnownRule("log-no-secrets"));
    EXPECT_TRUE(isKnownRule("bad-suppression"));
    EXPECT_TRUE(isKnownRule("secret-taint"));
    EXPECT_TRUE(isKnownRule("transitive-determinism"));
    EXPECT_TRUE(isKnownRule("wipe-coverage"));
    EXPECT_FALSE(isKnownRule("no-such-rule"));
}

TEST(LintRules, CatalogCarriesExplainMetadata)
{
    // --explain and the SARIF rule help render straight from the
    // catalog; every entry must be fully populated.
    for (const auto &info : ruleCatalog()) {
        EXPECT_TRUE(info.id && *info.id);
        EXPECT_TRUE(info.description && *info.description) << info.id;
        EXPECT_TRUE(info.rationale && *info.rationale) << info.id;
        EXPECT_TRUE(info.example_bad && *info.example_bad) << info.id;
        EXPECT_TRUE(info.example_fix && *info.example_fix) << info.id;
    }
}

TEST(LintRules, DisabledRuleProducesNothing)
{
    std::string src = "std::memset(master_key, 0, 64);";
    auto f = lintSource("a.cc", src, {"secret-wipe"});
    EXPECT_EQ(countRule(f, "secret-wipe"), 0u);
}

// ---------------------------------------------------------------
// Tree walking and per-directory config.
// ---------------------------------------------------------------

class LintTreeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per process: gtest_discover_tests runs each case
        // as its own ctest entry, and parallel ctest must not have
        // two cases clobbering one shared fixture directory.
        root = fs::temp_directory_path() /
               ("coldboot_lint_gtest_" + std::to_string(getpid()));
        fs::remove_all(root);
        fs::create_directories(root / "src");
    }

    void TearDown() override { fs::remove_all(root); }

    void
    write(const std::string &rel, const std::string &content)
    {
        fs::path p = root / rel;
        fs::create_directories(p.parent_path());
        std::ofstream out(p);
        out << content;
    }

    fs::path root;
};

TEST_F(LintTreeTest, FindsViolationsWithRelativePaths)
{
    write("src/bad.cc", "std::memset(master_key, 0, 64);\n");
    write("src/good.cc", "int x;\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error);
    EXPECT_EQ(result.files_scanned, 2u);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/bad.cc");
    EXPECT_EQ(result.findings[0].rule, "secret-wipe");
    EXPECT_EQ(result.findings[0].line, 1);
}

TEST_F(LintTreeTest, PerDirectoryConfigDisables)
{
    write("src/.coldboot-lint", "# config\ndisable secret-wipe\n");
    write("src/bad.cc", "std::memset(master_key, 0, 64);\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error);
    EXPECT_TRUE(result.findings.empty());
}

TEST_F(LintTreeTest, ConfigFileSubstringScopesTheDisable)
{
    write("src/.coldboot-lint", "disable secret-wipe smoke_\n");
    write("src/smoke_a.cc", "std::memset(master_key, 0, 64);\n");
    write("src/real.cc", "std::memset(master_key, 0, 64);\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/real.cc");
}

TEST_F(LintTreeTest, ConfigAppliesToSubdirectories)
{
    write(".coldboot-lint", "disable secret-wipe\n");
    write("src/deep/bad.cc", "std::memset(master_key, 0, 64);\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error);
    EXPECT_TRUE(result.findings.empty());
}

TEST_F(LintTreeTest, BrokenConfigIsInternalError)
{
    write("src/.coldboot-lint", "disable no-such-rule\n");
    write("src/a.cc", "int x;\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    EXPECT_TRUE(result.internal_error);
    EXPECT_NE(result.error_message.find("unknown rule"),
              std::string::npos);
}

TEST_F(LintTreeTest, MissingPathIsInternalError)
{
    LintOptions options;
    options.root = root.string();
    options.paths = {"nope"};
    auto result = lintTree(options);
    EXPECT_TRUE(result.internal_error);
}

TEST_F(LintTreeTest, NonSourceFilesIgnored)
{
    write("src/notes.md", "std::memset(master_key, 0, 64);\n");
    write("src/data.json", "{\"memset\": \"master_key\"}\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error);
    EXPECT_EQ(result.files_scanned, 0u);
    EXPECT_TRUE(result.findings.empty());
}

// ---------------------------------------------------------------
// Emitters, round-tripped through the in-tree JSON parser.
// ---------------------------------------------------------------

namespace
{

LintResult
sampleResult()
{
    LintResult r;
    r.files_scanned = 2;
    r.findings.push_back({"secret-wipe", "src/a.cc", 3, 10,
                          "memset on 'master_key' may be optimized "
                          "away; use secureWipe()",
                          {}});
    r.findings.push_back({"banned-api", "src/b\"quote.cc", 7, 1,
                          "'sprintf' is banned: \"why\"",
                          {}});
    return r;
}

/** A result with one inter-procedural finding (carries a flow). */
LintResult
sampleFlowResult()
{
    LintResult r;
    r.files_scanned = 2;
    Finding f;
    f.rule = "secret-taint";
    f.file = "src/keys.cc";
    f.line = 5;
    f.col = 5;
    f.message = "key material 'master_key' flows into 'logLine' and "
                "reaches output sink 'cb_inform' (1 hop(s) away)";
    f.flow = {
        {"src/keys.cc", 4, 19,
         "source: identifier names key material ('master_key')"},
        {"src/keys.cc", 5, 5,
         "exportKey passes 'master_key' to 'logLine' parameter "
         "'data'"},
        {"src/report.cc", 3, 5, "sinks into 'cb_inform' in logLine"},
    };
    r.findings.push_back(std::move(f));
    return r;
}

} // anonymous namespace

TEST(LintEmit, TextFormat)
{
    auto text = emitText(sampleResult());
    EXPECT_NE(text.find("src/a.cc:3:10: [secret-wipe]"),
              std::string::npos);
    EXPECT_NE(text.find("2 file(s) scanned, 2 finding(s)"),
              std::string::npos);
}

TEST(LintEmit, JsonRoundTrip)
{
    auto parsed = obs::json::parse(emitJson(sampleResult()));
    ASSERT_TRUE(parsed.has_value());
    const auto *tool = parsed->find("tool");
    ASSERT_NE(tool, nullptr);
    EXPECT_EQ(tool->str, "coldboot-lint");
    const auto *version = parsed->find("version");
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(version->str, lintVersion());
    const auto *scanned = parsed->find("files_scanned");
    ASSERT_NE(scanned, nullptr);
    EXPECT_EQ(scanned->number, 2.0);

    const auto *findings = parsed->find("findings");
    ASSERT_NE(findings, nullptr);
    ASSERT_TRUE(findings->isArray());
    ASSERT_EQ(findings->array.size(), 2u);
    const auto &f0 = findings->array[0];
    EXPECT_EQ(f0.find("rule")->str, "secret-wipe");
    EXPECT_EQ(f0.find("file")->str, "src/a.cc");
    EXPECT_EQ(f0.find("line")->number, 3.0);
    EXPECT_EQ(f0.find("col")->number, 10.0);
    // The escaped quote in the second finding must survive.
    const auto &f1 = findings->array[1];
    EXPECT_EQ(f1.find("file")->str, "src/b\"quote.cc");
    EXPECT_NE(f1.find("message")->str.find("\"why\""),
              std::string::npos);
}

TEST(LintEmit, SarifRoundTrip)
{
    auto parsed = obs::json::parse(emitSarif(sampleResult()));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("version")->str, "2.1.0");

    const auto *runs = parsed->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), 1u);
    const auto &run = runs->array[0];

    const auto &driver = *run.find("tool")->find("driver");
    EXPECT_EQ(driver.find("name")->str, "coldboot-lint");
    // Every catalog rule is declared.
    EXPECT_EQ(driver.find("rules")->array.size(),
              ruleCatalog().size());

    const auto *results = run.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->array.size(), 2u);
    const auto &r0 = results->array[0];
    EXPECT_EQ(r0.find("ruleId")->str, "secret-wipe");
    EXPECT_EQ(r0.find("level")->str, "error");
    const auto &loc =
        *r0.find("locations")->array[0].find("physicalLocation");
    EXPECT_EQ(loc.find("artifactLocation")->find("uri")->str,
              "src/a.cc");
    EXPECT_EQ(loc.find("region")->find("startLine")->number, 3.0);
    EXPECT_EQ(loc.find("region")->find("startColumn")->number, 10.0);
}

TEST(LintEmit, EmptyResultIsCleanJson)
{
    LintResult empty;
    auto parsed = obs::json::parse(emitJson(empty));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->find("findings")->array.empty());
    auto sarif = obs::json::parse(emitSarif(empty));
    ASSERT_TRUE(sarif.has_value());
    EXPECT_TRUE(sarif->find("runs")
                    ->array[0]
                    .find("results")
                    ->array.empty());
}

// ---------------------------------------------------------------
// Declaration/definition parser (parse.hh).
// ---------------------------------------------------------------

namespace
{

FileSummary
parseOf(const std::string &src)
{
    return parseSummary("a.cc", lex(src));
}

const FunctionDef *
fnNamed(const FileSummary &sum, const std::string &name)
{
    for (const auto &f : sum.functions)
        if (f.name == name)
            return &f;
    return nullptr;
}

} // anonymous namespace

TEST(LintParse, FunctionsParamsAndOutOfLineDefinitions)
{
    auto sum = parseOf(R"(
int add(int a, int b) { return a + b; }
void KeyMiner::mine(const std::vector<uint8_t> &dump, size_t limit)
{
    helper(dump);
}
void onlyDeclared(int x);
)");
    ASSERT_EQ(sum.functions.size(), 2u); // declarations are skipped
    const FunctionDef *add = fnNamed(sum, "add");
    ASSERT_NE(add, nullptr);
    ASSERT_EQ(add->params.size(), 2u);
    EXPECT_EQ(add->params[0].name, "a");
    EXPECT_EQ(add->params[1].name, "b");

    const FunctionDef *mine = fnNamed(sum, "mine");
    ASSERT_NE(mine, nullptr);
    EXPECT_EQ(mine->qual, "KeyMiner::mine");
    ASSERT_EQ(mine->params.size(), 2u);
    EXPECT_EQ(mine->params[0].name, "dump");
    ASSERT_EQ(mine->calls.size(), 1u);
    EXPECT_EQ(mine->calls[0].callee, "helper");
    ASSERT_EQ(mine->calls[0].args.size(), 1u);
    ASSERT_EQ(mine->calls[0].args[0].size(), 1u);
    EXPECT_EQ(mine->calls[0].args[0][0], "dump");
}

TEST(LintParse, TemplatesAndOverloads)
{
    auto sum = parseOf(R"(
template <typename T>
T biggest(const std::vector<T> &values)
{
    return pick<T>(values);
}
void emit(int level) { }
void emit(const char *text, int level) { }
)");
    const FunctionDef *big = fnNamed(sum, "biggest");
    ASSERT_NE(big, nullptr);
    ASSERT_EQ(big->params.size(), 1u);
    EXPECT_EQ(big->params[0].name, "values");
    // The templated call `pick<T>(values)` still records a site.
    ASSERT_EQ(big->calls.size(), 1u);
    EXPECT_EQ(big->calls[0].callee, "pick");

    // Both overloads become separate nodes.
    size_t emits = 0;
    for (const auto &f : sum.functions)
        emits += f.name == "emit";
    EXPECT_EQ(emits, 2u);
}

TEST(LintParse, LambdaBecomesLinkedFunction)
{
    auto sum = parseOf(R"(
void sweep()
{
    runJobs(4, [&](int worker) { step(worker); });
}
)");
    const FunctionDef *sweep = fnNamed(sum, "sweep");
    ASSERT_NE(sweep, nullptr);

    const FunctionDef *lam = nullptr;
    int lam_index = -1;
    for (size_t i = 0; i < sum.functions.size(); ++i)
        if (sum.functions[i].is_lambda) {
            lam = &sum.functions[i];
            lam_index = static_cast<int>(i);
        }
    ASSERT_NE(lam, nullptr);
    ASSERT_EQ(lam->params.size(), 1u);
    EXPECT_EQ(lam->params[0].name, "worker");
    ASSERT_EQ(lam->calls.size(), 1u);
    EXPECT_EQ(lam->calls[0].callee, "step");

    // The enclosing runJobs call points at the lambda node.
    const CallSite *run = nullptr;
    for (const auto &c : sweep->calls)
        if (c.callee == "runJobs")
            run = &c;
    ASSERT_NE(run, nullptr);
    ASSERT_EQ(run->lambda_args.size(), 1u);
    EXPECT_EQ(run->lambda_args[0], lam_index);
}

TEST(LintParse, MemberCallsAndBraceInitArguments)
{
    auto sum = parseOf(R"(
void flush(uint8_t *data, size_t n)
{
    mc->write(addr, {data, n});
    total = n + extra;
    total += n;
}
)");
    const FunctionDef *flush = fnNamed(sum, "flush");
    ASSERT_NE(flush, nullptr);
    const CallSite *write = nullptr;
    for (const auto &c : flush->calls)
        if (c.callee == "write")
            write = &c;
    ASSERT_NE(write, nullptr);
    EXPECT_TRUE(write->member);
    // The comma inside the brace-init stays within argument 1.
    ASSERT_EQ(write->args.size(), 2u);
    EXPECT_EQ(write->args[0],
              (std::vector<std::string>{"addr"}));
    EXPECT_EQ(write->args[1],
              (std::vector<std::string>{"data", "n"}));

    // Plain and compound assignments both record edges.
    ASSERT_EQ(flush->assigns.size(), 2u);
    EXPECT_EQ(flush->assigns[0].lhs, "total");
    EXPECT_EQ(flush->assigns[0].rhs,
              (std::vector<std::string>{"n", "extra"}));
    EXPECT_EQ(flush->assigns[1].lhs, "total");
}

TEST(LintParse, ForHeaderAssignDoesNotLeakIntoBody)
{
    auto sum = parseOf(R"(
void walk(uint8_t *data, size_t step)
{
    for (size_t off = 0; off < limit; off += step)
        sink(off, data);
}
)");
    const FunctionDef *walk = fnNamed(sum, "walk");
    ASSERT_NE(walk, nullptr);
    // `off += step` ends at the for-header's `)`; the body's `data`
    // must not appear in off's rhs (it would fabricate taint).
    for (const auto &a : walk->assigns) {
        if (a.lhs != "off")
            continue;
        for (const auto &r : a.rhs)
            EXPECT_NE(r, "data");
    }
}

TEST(LintParse, StructMembersAndDestructorWipes)
{
    auto sum = parseOf(R"(
struct Plain
{
    std::vector<uint8_t> bytes;
    int counts[4];
    void method(int x) { use(x); }
};
struct Wiped
{
    std::vector<uint8_t> buf;
    ~Wiped() { secureWipe(buf); }
};
struct Defaulted
{
    ~Defaulted() = default;
};
)");
    ASSERT_EQ(sum.structs.size(), 3u);
    const StructDef &plain = sum.structs[0];
    EXPECT_EQ(plain.name, "Plain");
    ASSERT_EQ(plain.members.size(), 2u); // methods are not members
    EXPECT_EQ(plain.members[0].name, "bytes");
    EXPECT_EQ(plain.members[1].name, "counts");
    EXPECT_NE(plain.members[1].type.find("[]"), std::string::npos);
    EXPECT_FALSE(plain.has_dtor);

    EXPECT_TRUE(sum.structs[1].has_dtor);
    EXPECT_TRUE(sum.structs[1].dtor_wipes);
    EXPECT_TRUE(sum.structs[2].has_dtor);
    EXPECT_FALSE(sum.structs[2].dtor_wipes);
}

// ---------------------------------------------------------------
// Call graph.
// ---------------------------------------------------------------

TEST(LintCallGraph, ResolvesByNameAcrossFiles)
{
    FileSummary a = parseSummary(
        "a.cc", lex("void caller() { helper(1); }"));
    FileSummary b = parseSummary(
        "b.cc", lex("void helper(int x) { }\n"
                    "void helper(long x) { }"));
    std::vector<FileSummary> sums = {a, b};
    CallGraph graph(sums);

    ASSERT_EQ(graph.nodes().size(), 3u);
    // Name-based resolution links to every same-named definition.
    const auto &ids = graph.resolve("helper");
    ASSERT_EQ(ids.size(), 2u);
    for (size_t id : ids)
        EXPECT_EQ(graph.nodes()[id].file->path, "b.cc");
    EXPECT_TRUE(graph.resolve("printf").empty());
}

// ---------------------------------------------------------------
// Cross-TU dataflow passes, driven through lintTree fixtures.
// ---------------------------------------------------------------

TEST_F(LintTreeTest, TaintTwoHopLeakAcrossFilesIsDetected)
{
    // The planted leak: key bytes flow exportKey -> writeReport ->
    // logLine -> cb_inform, with the middle hops in another TU.
    write("src/keys.cc",
          "void exportKey()\n"
          "{\n"
          "    unsigned char master_key[32];\n"
          "    deriveKey(master_key);\n"
          "    writeReport(master_key, 32);\n"
          "}\n");
    write("src/report.cc",
          "void logLine(const unsigned char *data, unsigned n)\n"
          "{\n"
          "    cb_inform(\"%s\", data);\n"
          "}\n"
          "void writeReport(const unsigned char *buf, unsigned n)\n"
          "{\n"
          "    logLine(buf, n);\n"
          "}\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error) << result.error_message;
    ASSERT_EQ(countRule(result.findings, "secret-taint"), 1u)
        << emitText(result);

    const Finding *f = nullptr;
    for (const auto &fd : result.findings)
        if (fd.rule == "secret-taint")
            f = &fd;
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->file, "src/keys.cc");
    EXPECT_EQ(f->line, 5); // the writeReport(master_key, ...) call
    // The flow walks source -> call hops -> sink, crossing TUs.
    ASSERT_GE(f->flow.size(), 3u);
    EXPECT_NE(f->flow.front().note.find("master_key"),
              std::string::npos);
    EXPECT_EQ(f->flow.back().file, "src/report.cc");
    EXPECT_NE(f->flow.back().note.find("cb_inform"),
              std::string::npos);
}

TEST_F(LintTreeTest, TaintCleanHelpersStayClean)
{
    // Same shape, but only the *length* reaches the sink, and a
    // memcmp verdict launders the comparison result.
    write("src/keys.cc",
          "void exportKey()\n"
          "{\n"
          "    unsigned char master_key[32];\n"
          "    deriveKey(master_key);\n"
          "    reportLength(master_key, 32);\n"
          "    int same = memcmp(master_key, expected, 32);\n"
          "    cb_inform(\"match=%d\", same);\n"
          "}\n");
    write("src/report.cc",
          "void reportLength(const unsigned char *buf, unsigned n)\n"
          "{\n"
          "    cb_inform(\"%u bytes\", n);\n"
          "}\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error) << result.error_message;
    EXPECT_EQ(countRule(result.findings, "secret-taint"), 0u)
        << emitText(result);
}

TEST_F(LintTreeTest, TransitiveDeterminismAcrossFiles)
{
    // The wall-clock read hides one call away from the parallel
    // body, in another TU; the token rule is disabled to prove the
    // call-graph pass finds it on its own.
    write("src/.coldboot-lint", "disable no-wallclock-in-sim\n");
    write("src/par.cc",
          "void sweep()\n"
          "{\n"
          "    parallelForChunks(0, 100, 10, [&](int lo, int hi) {\n"
          "        mixEntropy(lo, hi);\n"
          "    });\n"
          "}\n");
    write("src/entropy.cc",
          "void mixEntropy(int lo, int hi)\n"
          "{\n"
          "    long t = time(nullptr);\n"
          "}\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error) << result.error_message;
    ASSERT_EQ(countRule(result.findings, "transitive-determinism"),
              1u)
        << emitText(result);
    const Finding *f = nullptr;
    for (const auto &fd : result.findings)
        if (fd.rule == "transitive-determinism")
            f = &fd;
    ASSERT_NE(f, nullptr);
    // Anchored at the parallel call, pointing into the other TU.
    EXPECT_EQ(f->file, "src/par.cc");
    EXPECT_NE(f->message.find("mixEntropy"), std::string::npos);
    EXPECT_FALSE(f->flow.empty());
}

TEST_F(LintTreeTest, TransitiveDeterminismFollowsScanDumpBodies)
{
    // The dump-scan stage's map is a parallel region too: a clock
    // read two calls below it is reported at the scanDump call.
    write("src/.coldboot-lint", "disable no-wallclock-in-sim\n");
    write("src/scan.cc",
          "void mine(const DumpSource &dump)\n"
          "{\n"
          "    exec::scanDump<Hits>(\n"
          "        dump, {.name = \"mine.scan\", .end = dump.size()},\n"
          "        [&](std::span<const uint8_t> bytes, const "
          "ChunkRange &c) {\n"
          "            return collectHits(bytes);\n"
          "        },\n"
          "        [&](Hits &&h, const ChunkRange &c) { keep(h); });\n"
          "}\n");
    write("src/hits.cc",
          "long collectHits(std::span<const uint8_t> bytes)\n"
          "{\n"
          "    return stampOf(bytes);\n"
          "}\n"
          "long stampOf(std::span<const uint8_t> bytes)\n"
          "{\n"
          "    return time(nullptr);\n"
          "}\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error) << result.error_message;
    ASSERT_EQ(countRule(result.findings, "transitive-determinism"),
              1u)
        << emitText(result);
    for (const auto &f : result.findings) {
        if (f.rule != "transitive-determinism")
            continue;
        EXPECT_EQ(f.file, "src/scan.cc");
        EXPECT_EQ(f.line, 3);
        EXPECT_NE(f.message.find("stampOf"), std::string::npos);
        // Region start, scanDump body -> collectHits, collectHits ->
        // stampOf, then the clock read itself.
        EXPECT_EQ(f.flow.size(), 4u);
    }
}

TEST_F(LintTreeTest, DirectNondetInLambdaIsTokenRuleTerritory)
{
    write("src/.coldboot-lint", "disable no-wallclock-in-sim\n");
    write("src/par.cc",
          "void sweep()\n"
          "{\n"
          "    parallelForChunks(0, 100, 10, [&](int lo, int hi) {\n"
          "        long t = time(nullptr);\n"
          "    });\n"
          "}\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error) << result.error_message;
    // Depth 0 belongs to no-wallclock-in-sim, not the graph pass.
    EXPECT_EQ(countRule(result.findings, "transitive-determinism"),
              0u)
        << emitText(result);
}

TEST_F(LintTreeTest, WipeCoveragePositiveNegativeAndCrossTu)
{
    write("src/bags.hh",
          "#pragma once\n"
          "struct KeyBag\n"
          "{\n"
          "    std::vector<unsigned char> master_key;\n"
          "};\n"
          "struct WipedBag\n"
          "{\n"
          "    std::vector<unsigned char> master_key;\n"
          "    ~WipedBag() { secureWipe(master_key); }\n"
          "};\n"
          "struct FarBag\n"
          "{\n"
          "    std::vector<unsigned char> session_key;\n"
          "    ~FarBag();\n"
          "};\n");
    // FarBag's wipe happens out-of-line, one call deep.
    write("src/bags.cc",
          "void wipeAll(std::vector<unsigned char> &v)\n"
          "{\n"
          "    secureWipe(v);\n"
          "}\n"
          "FarBag::~FarBag()\n"
          "{\n"
          "    wipeAll(session_key);\n"
          "}\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error) << result.error_message;
    ASSERT_EQ(countRule(result.findings, "wipe-coverage"), 1u)
        << emitText(result);
    const Finding *f = nullptr;
    for (const auto &fd : result.findings)
        if (fd.rule == "wipe-coverage")
            f = &fd;
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->message.find("KeyBag"), std::string::npos);
    EXPECT_NE(f->message.find("master_key"), std::string::npos);
}

TEST_F(LintTreeTest, CallGraphFindingsHonorSuppressions)
{
    write("src/bag.hh",
          "#pragma once\n"
          "// coldboot-lint: allow(wipe-coverage) -- test fixture\n"
          "struct KeyBag\n"
          "{\n"
          "    std::vector<unsigned char> master_key;\n"
          "};\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error) << result.error_message;
    EXPECT_EQ(countRule(result.findings, "wipe-coverage"), 0u)
        << emitText(result);
}

TEST_F(LintTreeTest, MemberCallIsNotATaintSink)
{
    // `mc->write(...)` is simulated DRAM, not write(2): a member call
    // named like a sink must not report key material reaching it.
    write("src/mem.cc",
          "void stash(unsigned char *master_key)\n"
          "{\n"
          "    mc->write(0, master_key);\n"
          "}\n");

    LintOptions options;
    options.root = root.string();
    options.paths = {"src"};
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error) << result.error_message;
    EXPECT_EQ(countRule(result.findings, "secret-taint"), 0u)
        << emitText(result);
}

// ---------------------------------------------------------------
// SARIF code flows.
// ---------------------------------------------------------------

TEST(LintEmit, SarifCodeFlowsRoundTrip)
{
    auto parsed = obs::json::parse(emitSarif(sampleFlowResult()));
    ASSERT_TRUE(parsed.has_value());
    const auto &run = parsed->find("runs")->array[0];
    const auto &r0 = run.find("results")->array[0];
    EXPECT_EQ(r0.find("ruleId")->str, "secret-taint");

    const auto *flows = r0.find("codeFlows");
    ASSERT_NE(flows, nullptr);
    ASSERT_EQ(flows->array.size(), 1u);
    const auto *threads = flows->array[0].find("threadFlows");
    ASSERT_NE(threads, nullptr);
    const auto *locs = threads->array[0].find("locations");
    ASSERT_NE(locs, nullptr);
    ASSERT_EQ(locs->array.size(), 3u);

    // Steps keep order, position, and message.
    const auto &step0 = *locs->array[0].find("location");
    const auto &phys0 = *step0.find("physicalLocation");
    EXPECT_EQ(phys0.find("artifactLocation")->find("uri")->str,
              "src/keys.cc");
    EXPECT_EQ(phys0.find("region")->find("startLine")->number, 4.0);
    EXPECT_NE(step0.find("message")->find("text")->str.find(
                  "master_key"),
              std::string::npos);
    const auto &step2 = *locs->array[2].find("location");
    EXPECT_EQ(step2.find("physicalLocation")
                  ->find("artifactLocation")
                  ->find("uri")
                  ->str,
              "src/report.cc");

    // Token-rule findings carry no codeFlows.
    auto plain = obs::json::parse(emitSarif(sampleResult()));
    ASSERT_TRUE(plain.has_value());
    const auto &p0 =
        plain->find("runs")->array[0].find("results")->array[0];
    EXPECT_EQ(p0.find("codeFlows"), nullptr);
}

TEST(LintEmit, SarifMatchesGoldenSnapshot)
{
#ifdef COLDBOOT_SOURCE_DIR
    std::ifstream in(std::string(COLDBOOT_SOURCE_DIR) +
                     "/tests/data/golden_lint.sarif");
    ASSERT_TRUE(in.is_open())
        << "tests/data/golden_lint.sarif missing";
    std::string golden((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    EXPECT_EQ(emitSarif(sampleFlowResult()), golden)
        << "SARIF emitter drifted from the golden snapshot; "
           "regenerate tests/data/golden_lint.sarif if the change "
           "is intentional";
#else
    GTEST_SKIP() << "COLDBOOT_SOURCE_DIR not defined";
#endif
}

TEST(LintEmit, JsonCarriesFlow)
{
    auto parsed = obs::json::parse(emitJson(sampleFlowResult()));
    ASSERT_TRUE(parsed.has_value());
    const auto &f0 = parsed->find("findings")->array[0];
    const auto *flow = f0.find("flow");
    ASSERT_NE(flow, nullptr);
    ASSERT_EQ(flow->array.size(), 3u);
    EXPECT_EQ(flow->array[0].find("file")->str, "src/keys.cc");
    EXPECT_EQ(flow->array[2].find("line")->number, 3.0);
}

// ---------------------------------------------------------------
// The real tree must be clean (mirrors the lint_tree ctest, but
// through the library API so failures show in unit-test output).
// ---------------------------------------------------------------

TEST(LintTree, RealTreeIsClean)
{
    // The source tree location is baked in by CMake.
#ifdef COLDBOOT_SOURCE_DIR
    LintOptions options;
    options.root = COLDBOOT_SOURCE_DIR;
    auto result = lintTree(options);
    ASSERT_FALSE(result.internal_error) << result.error_message;
    EXPECT_GT(result.files_scanned, 100u);
    EXPECT_TRUE(result.findings.empty()) << emitText(result);
#else
    GTEST_SKIP() << "COLDBOOT_SOURCE_DIR not defined";
#endif
}
