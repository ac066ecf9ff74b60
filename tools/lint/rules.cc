#include "lint/rules.hh"

#include <algorithm>
#include <cctype>

namespace coldboot::lint
{

namespace
{

const std::vector<RuleInfo> catalog = {
    {"secret-wipe",
     "memset/bzero on key-material identifiers can be elided by the "
     "optimizer; use secureWipe() from common/secure.hh",
     "A wipe-before-free memset is a dead store to the compiler: "
     "nothing reads the buffer afterwards, so -O2 deletes exactly "
     "the scrub a cold-boot defence depends on. secureWipe() follows "
     "its memset with a compiler barrier that keeps the stores.",
     "std::memset(master_key, 0, sizeof(master_key));",
     "secureWipe(master_key, sizeof(master_key));"},
    {"banned-api",
     "rand/strcpy/sprintf/gets/system and raw new[] are "
     "non-deterministic or overflow-prone",
     "rand/srand share hidden global state and cannot be seeded "
     "per-experiment; the str*/sprintf family writes unbounded; "
     "system() is a shell-injection surface. All have in-tree "
     "replacements (common/rng, std::string, snprintf).",
     "char buf[64]; sprintf(buf, \"%s\", name.c_str());",
     "std::string buf = name;  // or snprintf(buf, sizeof buf, ...)"},
    {"no-wallclock-in-sim",
     "wall-clock time and OS entropy break seeded determinism; use "
     "common/rng and steady_clock",
     "Every experiment must replay byte-identically from its seed "
     "(DESIGN.md §9). time()/system_clock/random_device smuggle "
     "host state into results; steady_clock is fine for durations "
     "and common/rng for entropy.",
     "auto now = std::chrono::system_clock::now();",
     "auto t0 = std::chrono::steady_clock::now();  // duration only"},
    {"include-hygiene",
     "headers need an include guard and must not contain "
     "'using namespace'",
     "An unguarded header breaks the one-definition rule the moment "
     "two TUs meet it; a using-directive in a header rewrites name "
     "lookup for every includer.",
     "// foo.hh, no guard\nusing namespace std;",
     "#ifndef COLDBOOT_FOO_HH\n#define COLDBOOT_FOO_HH\n...\n#endif"},
    {"log-no-secrets",
     "key-material identifiers must not be passed to logging calls",
     "Log files outlive the process and leave the machine; one "
     "logged key voids the whole memory-scrambler analysis "
     "(\"Security Through Amnesia\": a key touching persistent "
     "storage once is a full compromise). Sizes and counts are fine; "
     "bytes are not.",
     "cb_inform(\"derived key %s\", hex(master_key).c_str());",
     "cb_inform(\"derived %zu key bytes\", master_key.size());"},
    {"no-raw-thread",
     "std::thread/std::jthread/pthread_create outside src/exec/; "
     "use exec::ThreadPool so work stays observable and bounded",
     "Raw threads bypass COLDBOOT_THREADS/--threads sizing, the "
     "exec.pool.* stats, and the ordered-reduction determinism "
     "contract. src/exec/ is the one place a real thread may be "
     "constructed.",
     "std::thread worker([&] { mine(); }); worker.join();",
     "exec::TaskGroup g(pool); g.run([&] { mine(); }); g.wait();"},
    {"bad-suppression",
     "malformed 'coldboot-lint: allow(<rule>) -- <why>' comment",
     "A suppression that names an unknown rule or omits its "
     "justification silently stops suppressing after a rename - or "
     "never suppressed at all. Malformed waivers are findings so "
     "they cannot rot in place.",
     "// coldboot-lint: allow(secret-wipe)",
     "// coldboot-lint: allow(secret-wipe) -- fixture, fake key"},
    {"secret-taint",
     "key material must not flow into logging or output sinks, "
     "directly or through assignments and calls across TUs",
     "The token-level log-no-secrets rule sees one line at a time; a "
     "key copied into an innocuously named local, or passed through "
     "two helper calls, leaks just as completely. This pass seeds "
     "taint at key-material sources (MinedKey, RecoveredAesKey, "
     "SecureBuffer contents, key-named identifiers), propagates it "
     "through assignments and call arguments over the project call "
     "graph, and reports any path that reaches a sink with the full "
     "inter-procedural trace as a SARIF code flow.",
     "auto copy = mined.key_bytes; report(copy);\n"
     "// elsewhere: void report(v) { cb_inform(\"%s\", hex(v)); }",
     "cb_inform(\"recovered %zu bytes\", mined.key_bytes.size());"},
    {"transitive-determinism",
     "functions reachable from parallelForChunks/"
     "parallelMapReduceChunks/scanDump bodies must not transitively "
     "reach wall-clock or OS entropy",
     "The DESIGN.md §9 contract - byte-identical results at any "
     "pool width - dies if any function called from a parallel "
     "region reads host state, even three calls deep in another TU. "
     "This upgrades no-wallclock-in-sim from one line to call-graph "
     "depth.",
     "parallelForChunks(0, n, g, [&](c) { stamp(c); });\n"
     "// elsewhere: void stamp(c) { c.t = time(nullptr); }",
     "pass the seeded rng / steady_clock origin in as a parameter"},
    {"wipe-coverage",
     "types owning key-named byte storage need a wiping destructor "
     "(or store it in a SecureBuffer)",
     "Per-callsite wipe rules miss the type that never wipes at all: "
     "a struct holding key bytes in a plain vector leaves them in "
     "freed heap pages on every destruction - exactly the remanence "
     "this project attacks. Self-wiping members (SecureBuffer, types "
     "with wiping destructors) satisfy the rule.",
     "struct Candidate { std::vector<uint8_t> key_bytes; };",
     "struct Candidate { SecureBuffer key_bytes; };  // or add\n"
     "~Candidate() { secureWipe(key_bytes); }"},
};

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

bool
isHeaderPath(const std::string &path)
{
    auto ends_with = [&](const char *suffix) {
        std::string_view sv(suffix);
        return path.size() >= sv.size() &&
               path.compare(path.size() - sv.size(), sv.size(), sv) ==
                   0;
    };
    return ends_with(".hh") || ends_with(".h") || ends_with(".hpp");
}

/** Index of the matching ')' for the '(' at @p open, or npos. */
size_t
matchParen(const std::vector<Token> &toks, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Punct)
            continue;
        if (toks[i].text == "(")
            ++depth;
        else if (toks[i].text == ")" && --depth == 0)
            return i;
    }
    return std::string::npos;
}

/** Is token @p i an identifier with text @p t followed by '(' ? */
bool
isCall(const std::vector<Token> &toks, size_t i, const char *t)
{
    return toks[i].kind == TokKind::Identifier && toks[i].text == t &&
           i + 1 < toks.size() &&
           toks[i + 1].kind == TokKind::Punct &&
           toks[i + 1].text == "(";
}

/** Member access right before token @p i (foo.time() is not ::time). */
bool
precededByDot(const std::vector<Token> &toks, size_t i)
{
    return i > 0 && toks[i - 1].kind == TokKind::Punct &&
           toks[i - 1].text == ".";
}

void
ruleSecretWipe(const std::string &path, const std::vector<Token> &toks,
               std::vector<Finding> &out)
{
    // explicit_bzero is deliberately absent: it is a guaranteed
    // wipe, not an elidable one (just non-portable).
    static const char *wipers[] = {"memset", "bzero",
                                   "__builtin_memset"};
    for (size_t i = 0; i < toks.size(); ++i) {
        for (const char *fn : wipers) {
            if (!isCall(toks, i, fn))
                continue;
            size_t close = matchParen(toks, i + 1);
            if (close == std::string::npos)
                continue;
            for (size_t a = i + 2; a < close; ++a) {
                if (toks[a].kind == TokKind::Identifier &&
                    looksSecret(toks[a].text)) {
                    out.push_back(
                        {"secret-wipe", path, toks[i].line,
                         toks[i].col,
                         std::string(fn) + " on '" + toks[a].text +
                             "' may be optimized away; use "
                             "secureWipe() (common/secure.hh)",
                 {}});
                    break;
                }
            }
        }
    }
}

void
ruleBannedApi(const std::string &path, const std::vector<Token> &toks,
              std::vector<Finding> &out)
{
    static const struct
    {
        const char *fn;
        const char *why;
    } banned[] = {
        {"rand", "not seedable per-experiment; use common/rng"},
        {"srand", "global RNG state; use common/rng"},
        {"strcpy", "unbounded copy; use std::string or std::copy"},
        {"strcat", "unbounded append; use std::string"},
        {"sprintf", "unbounded format; use snprintf or std::format"},
        {"vsprintf", "unbounded format; use vsnprintf"},
        {"gets", "unbounded read; use std::getline"},
        {"system", "shell injection surface; spawn nothing"},
    };
    for (size_t i = 0; i < toks.size(); ++i) {
        for (const auto &b : banned) {
            if (isCall(toks, i, b.fn) && !precededByDot(toks, i)) {
                out.push_back({"banned-api", path, toks[i].line,
                               toks[i].col,
                               std::string("'") + b.fn + "' is "
                               "banned: " + b.why,
                 {}});
            }
        }
        // Raw array new: `new T[n]` (vector/unique_ptr<T[]> instead).
        if (toks[i].kind == TokKind::Identifier &&
            toks[i].text == "new") {
            for (size_t j = i + 1;
                 j < toks.size() && j < i + 12; ++j) {
                if (toks[j].kind == TokKind::Punct) {
                    const std::string &p = toks[j].text;
                    if (p == "[") {
                        out.push_back(
                            {"banned-api", path, toks[i].line,
                             toks[i].col,
                             "raw new[] is banned outside tests; "
                             "use std::vector or "
                             "std::unique_ptr<T[]>",
                 {}});
                        break;
                    }
                    if (p == "(" || p == ";" || p == ")" ||
                        p == "{" || p == "=" || p == ",")
                        break;
                }
            }
        }
    }
}

void
ruleNoWallclock(const std::string &path, const std::vector<Token> &toks,
                std::vector<Finding> &out)
{
    const auto &calls = wallclockCallNames();
    const auto &types = wallclockTypeNames();
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier)
            continue;
        for (const char *fn : calls) {
            if (isCall(toks, i, fn) && !precededByDot(toks, i)) {
                out.push_back(
                    {"no-wallclock-in-sim", path, toks[i].line,
                     toks[i].col,
                     std::string("'") + fn + "' reads the wall "
                     "clock; simulation must be deterministic "
                     "(steady_clock for durations, common/rng for "
                     "entropy)",
                 {}});
            }
        }
        for (const char *ty : types) {
            if (toks[i].text == ty) {
                out.push_back(
                    {"no-wallclock-in-sim", path, toks[i].line,
                     toks[i].col,
                     std::string("'") + ty + "' breaks seeded "
                     "determinism; use steady_clock / common/rng",
                 {}});
            }
        }
    }
}

void
ruleIncludeHygiene(const std::string &path,
                   const std::vector<Token> &toks,
                   std::vector<Finding> &out)
{
    if (!isHeaderPath(path))
        return;

    // Guard check over the preprocessor directives.
    std::vector<const Token *> directives;
    for (const auto &t : toks)
        if (t.kind == TokKind::Preprocessor)
            directives.push_back(&t);

    auto directive_word = [](const Token &t, size_t n) {
        // n-th whitespace-separated word after '#'.
        std::string_view sv(t.text);
        std::vector<std::string> words;
        size_t i = 0;
        while (i < sv.size() && words.size() <= n + 1) {
            while (i < sv.size() &&
                   (sv[i] == ' ' || sv[i] == '\t' || sv[i] == '#'))
                ++i;
            size_t start = i;
            while (i < sv.size() && sv[i] != ' ' && sv[i] != '\t')
                ++i;
            if (i > start)
                words.emplace_back(sv.substr(start, i - start));
        }
        return n < words.size() ? words[n] : std::string();
    };

    bool guarded = false;
    for (size_t d = 0; d < directives.size() && !guarded; ++d) {
        const std::string w0 = directive_word(*directives[d], 0);
        if (w0 == "pragma" &&
            directive_word(*directives[d], 1) == "once")
            guarded = true;
        if (w0 == "ifndef" && d + 1 < directives.size() &&
            directive_word(*directives[d + 1], 0) == "define" &&
            directive_word(*directives[d], 1) ==
                directive_word(*directives[d + 1], 1) &&
            !directive_word(*directives[d], 1).empty())
            guarded = true;
    }
    if (!guarded)
        out.push_back({"include-hygiene", path, 1, 1,
                       "header has no include guard (#pragma once "
                       "or #ifndef/#define pair)",
                 {}});

    // `using namespace` in a header leaks into every includer.
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind == TokKind::Identifier &&
            toks[i].text == "using" &&
            toks[i + 1].kind == TokKind::Identifier &&
            toks[i + 1].text == "namespace") {
            out.push_back({"include-hygiene", path, toks[i].line,
                           toks[i].col,
                           "'using namespace' in a header pollutes "
                           "every includer; qualify names instead",
                 {}});
        }
    }
}

void
ruleLogNoSecrets(const std::string &path,
                 const std::vector<Token> &toks,
                 std::vector<Finding> &out)
{
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier ||
            !isLogCall(toks[i].text))
            continue;
        if (i + 1 >= toks.size() ||
            toks[i + 1].kind != TokKind::Punct ||
            toks[i + 1].text != "(")
            continue;
        size_t close = matchParen(toks, i + 1);
        if (close == std::string::npos)
            continue;
        for (size_t a = i + 2; a < close; ++a) {
            if (toks[a].kind != TokKind::Identifier ||
                !looksSecret(toks[a].text))
                continue;
            // Logging a size/count of key material is fine; only
            // the bytes themselves are secret.
            if (a + 2 < close && toks[a + 1].kind == TokKind::Punct &&
                toks[a + 1].text == "." &&
                toks[a + 2].kind == TokKind::Identifier &&
                (toks[a + 2].text == "size" ||
                 toks[a + 2].text == "empty" ||
                 toks[a + 2].text == "length" ||
                 toks[a + 2].text == "count"))
                continue;
            // Report at the call so a suppression comment above the
            // (possibly multi-line) call covers it.
            out.push_back(
                {"log-no-secrets", path, toks[i].line, toks[i].col,
                 "'" + toks[a].text + "' looks like key material; "
                 "never pass secrets to " + toks[i].text + "()",
                 {}});
        }
    }
}

void
ruleNoRawThread(const std::string &path,
                const std::vector<Token> &toks,
                std::vector<Finding> &out)
{
    // src/exec/ is the one home of raw threads - everything else
    // runs on its ThreadPool, which keeps worker counts governed by
    // COLDBOOT_THREADS/--threads and the exec.pool.* stats honest.
    if (path.compare(0, 9, "src/exec/") == 0)
        return;

    // The lexer emits '::' as two ':' punct tokens.
    auto scope_at = [&](size_t i) {
        return i + 1 < toks.size() &&
               toks[i].kind == TokKind::Punct &&
               toks[i].text == ":" &&
               toks[i + 1].kind == TokKind::Punct &&
               toks[i + 1].text == ":";
    };
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind == TokKind::Identifier &&
            toks[i].text == "std" && scope_at(i + 1) &&
            i + 3 < toks.size() &&
            toks[i + 3].kind == TokKind::Identifier &&
            (toks[i + 3].text == "thread" ||
             toks[i + 3].text == "jthread")) {
            // std::thread::id, std::thread::hardware_concurrency and
            // friends are scoped members, not thread construction.
            if (scope_at(i + 4))
                continue;
            out.push_back(
                {"no-raw-thread", path, toks[i].line, toks[i].col,
                 "raw std::" + toks[i + 3].text + " outside "
                 "src/exec/; submit work to exec::ThreadPool "
                 "(exec/thread_pool.hh) instead",
                 {}});
        }
        if (isCall(toks, i, "pthread_create") &&
            !precededByDot(toks, i)) {
            out.push_back(
                {"no-raw-thread", path, toks[i].line, toks[i].col,
                 "pthread_create outside src/exec/; submit work to "
                 "exec::ThreadPool (exec/thread_pool.hh) instead",
                 {}});
        }
    }
}

} // anonymous namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    return catalog;
}

const RuleInfo *
findRule(const std::string &id)
{
    for (const auto &r : catalog)
        if (id == r.id)
            return &r;
    return nullptr;
}

bool
isKnownRule(const std::string &id)
{
    return findRule(id) != nullptr;
}

const std::vector<const char *> &
secretTypeNames()
{
    // HeaderFields / MountedVolume / the Recovered* results hold the
    // actual decrypted volume keys; MinedKey is a schedule mined out
    // of a dump; SecureBuffer is key material by declaration.
    static const std::vector<const char *> names = {
        "SecureBuffer",     "MinedKey",        "RecoveredAesKey",
        "RecoveredXtsKeys", "HeaderFields",    "MountedVolume",
    };
    return names;
}

const std::vector<const char *> &
wipingTypeNames()
{
    static const std::vector<const char *> names = {"SecureBuffer"};
    return names;
}

const std::vector<const char *> &
wallclockCallNames()
{
    // Deliberately not "clock": the engine layer models cycle
    // clocks with methods of that name, and ::clock() is CPU time,
    // not wall time.
    static const std::vector<const char *> names = {
        "time",      "gettimeofday", "clock_gettime",
        "localtime", "localtime_r",  "gmtime",
        "gmtime_r",  "strftime",     "ftime",
        "timespec_get",
    };
    return names;
}

const std::vector<const char *> &
wallclockTypeNames()
{
    static const std::vector<const char *> names = {
        "system_clock", "random_device", "high_resolution_clock"};
    return names;
}

bool
isLogCall(const std::string &name)
{
    return name == "cb_inform" || name == "cb_warn" ||
           name == "cb_fatal" || name == "cb_panic" ||
           (name.size() > 4 && name.compare(0, 4, "LOG_") == 0);
}

bool
isSinkCall(const std::string &name)
{
    if (isLogCall(name))
        return true;
    // stdio / file / socket output: anything that moves bytes out of
    // the process's address space. memcpy/assignment are not sinks -
    // they only propagate taint.
    static const char *out_fns[] = {
        "printf", "fprintf", "dprintf", "vprintf", "vfprintf",
        "fwrite", "fputs",   "puts",    "perror",  "write",
        "pwrite", "send",    "sendto",  "sendmsg", "syslog",
    };
    for (const char *fn : out_fns)
        if (name == fn)
            return true;
    return false;
}

bool
looksSecret(const std::string &ident)
{
    const std::string low = lowered(ident);
    static const char *patterns[] = {"key", "secret", "master",
                                     "passphrase", "password"};
    for (const char *p : patterns)
        if (low.find(p) != std::string::npos)
            return true;
    return false;
}

bool
looksKeyMaterial(const std::string &ident)
{
    if (!looksSecret(ident))
        return false;
    const std::string low = lowered(ident);
    // Metadata about keys, not the bytes themselves: key_size,
    // keytable_addr, key_match, distinct_keys, max_key_latency_ps...
    static const char *demotions[] = {
        "size",  "len",      "addr",  "offset", "idx",
        "index", "count",    "match", "hits",   "distinct",
        "name",  "label",    "path",  "type",   "latency",
        "rate",  "level",    "table", "_ps",    "_ns",
        "_ms",   "rounds",   "nkeys", "n_keys",
    };
    for (const char *d : demotions)
        if (low.find(d) != std::string::npos)
            return false;
    // A bare `key` is as often a stat-registry / JSON lookup key as
    // it is key bytes; too weak to amplify across the call graph.
    return low != "key" && low != "keys";
}

std::vector<Finding>
runRules(const std::string &path, const LexResult &lex,
         const std::set<std::string> &disabled)
{
    std::vector<Finding> out;
    auto enabled = [&](const char *rule) {
        return disabled.find(rule) == disabled.end();
    };
    if (enabled("secret-wipe"))
        ruleSecretWipe(path, lex.tokens, out);
    if (enabled("banned-api"))
        ruleBannedApi(path, lex.tokens, out);
    if (enabled("no-wallclock-in-sim"))
        ruleNoWallclock(path, lex.tokens, out);
    if (enabled("include-hygiene"))
        ruleIncludeHygiene(path, lex.tokens, out);
    if (enabled("log-no-secrets"))
        ruleLogNoSecrets(path, lex.tokens, out);
    if (enabled("no-raw-thread"))
        ruleNoRawThread(path, lex.tokens, out);
    return out;
}

} // namespace coldboot::lint
