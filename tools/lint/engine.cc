#include "lint/engine.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "lint/dataflow.hh"
#include "lint/parse.hh"
#include "obs/json.hh"

namespace coldboot::lint
{

namespace fs = std::filesystem;

namespace
{

constexpr const char *version = "1.0.0";
constexpr const char *configName = ".coldboot-lint";

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".cxx" ||
           ext == ".hh" || ext == ".h" || ext == ".hpp";
}

std::string
trimmed(std::string_view sv)
{
    size_t b = sv.find_first_not_of(" \t\r");
    if (b == std::string_view::npos)
        return {};
    size_t e = sv.find_last_not_of(" \t\r");
    return std::string(sv.substr(b, e - b + 1));
}

/** One `disable` directive from a .coldboot-lint file. */
struct ConfigEntry
{
    std::string rule;
    std::string file_substring; ///< empty = whole subtree
};

/**
 * Parse a .coldboot-lint file. Returns false (with @p error set) on
 * a malformed line or unknown rule - a broken config should fail the
 * run loudly, not silently change what gets linted.
 */
bool
parseConfig(const std::string &path, std::vector<ConfigEntry> &out,
            std::string &error)
{
    std::ifstream in(path);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string t = trimmed(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::istringstream words(t);
        std::string verb, rule, substring;
        words >> verb >> rule >> substring;
        if (verb != "disable" || rule.empty()) {
            error = path + ":" + std::to_string(lineno) +
                    ": expected 'disable <rule> [file-substring]'";
            return false;
        }
        if (!isKnownRule(rule)) {
            error = path + ":" + std::to_string(lineno) +
                    ": unknown rule '" + rule + "'";
            return false;
        }
        out.push_back({rule, substring});
    }
    return true;
}

/** Loads and caches per-directory configs along the walk. */
class ConfigStack
{
  public:
    /**
     * Rules disabled for @p file, from every .coldboot-lint between
     * @p root and the file's directory. Returns false on a config
     * parse error (reported via @p error).
     */
    bool
    disabledFor(const fs::path &root, const fs::path &file,
                std::set<std::string> &disabled, std::string &error)
    {
        std::vector<fs::path> dirs;
        fs::path dir = file.parent_path();
        // Collect root..dir; stop at root (file is under root).
        while (true) {
            dirs.push_back(dir);
            if (dir == root || !dir.has_parent_path() ||
                dir == dir.parent_path())
                break;
            dir = dir.parent_path();
        }
        const std::string fname = file.filename().string();
        for (auto it = dirs.rbegin(); it != dirs.rend(); ++it) {
            const auto *entries = load(*it, error);
            if (entries == nullptr)
                return false;
            for (const auto &e : *entries) {
                if (e.file_substring.empty() ||
                    fname.find(e.file_substring) != std::string::npos)
                    disabled.insert(e.rule);
            }
        }
        return true;
    }

  private:
    const std::vector<ConfigEntry> *
    load(const fs::path &dir, std::string &error)
    {
        auto it = cache.find(dir.string());
        if (it == cache.end()) {
            Entry entry;
            fs::path cfg = dir / configName;
            std::error_code ec;
            if (fs::exists(cfg, ec))
                entry.ok = parseConfig(cfg.string(), entry.entries,
                                       entry.error);
            it = cache.emplace(dir.string(), std::move(entry)).first;
        }
        if (!it->second.ok) {
            error = it->second.error;
            return nullptr;
        }
        return &it->second.entries;
    }

    struct Entry
    {
        bool ok = true;
        std::string error;
        std::vector<ConfigEntry> entries;
    };
    std::map<std::string, Entry> cache;
};

/** A parsed, valid `coldboot-lint: allow(...)` comment. */
struct Suppression
{
    int line = 0; ///< line the comment starts on
    std::string rule;
    /** Comment is alone on its line (may waive the next line). */
    bool standalone = false;
};

/**
 * Scan comments for `coldboot-lint:` markers. Valid suppressions go
 * to @p suppressions; malformed ones become bad-suppression
 * findings.
 */
void
collectSuppressions(const std::string &path,
                    const std::vector<Comment> &comments,
                    std::vector<Suppression> &suppressions,
                    std::vector<Finding> &findings)
{
    for (const auto &c : comments) {
        // The marker must open the comment - prose that merely
        // mentions the syntax mid-sentence is not a suppression.
        const std::string text = trimmed(c.text);
        if (text.compare(0, 14, "coldboot-lint:") != 0)
            continue;
        std::string rest = trimmed(text.substr(14));
        auto bad = [&](const std::string &why) {
            findings.push_back({"bad-suppression", path, c.line, 1,
                                why + " (expected 'coldboot-lint: "
                                "allow(<rule>) -- <why>')",
                 {}});
        };
        if (rest.compare(0, 6, "allow(") != 0) {
            bad("suppression must use allow(<rule>)");
            continue;
        }
        size_t close = rest.find(')', 6);
        if (close == std::string::npos) {
            bad("unterminated allow(");
            continue;
        }
        std::string rule = trimmed(rest.substr(6, close - 6));
        if (!isKnownRule(rule)) {
            bad("unknown rule '" + rule + "'");
            continue;
        }
        std::string tail = trimmed(rest.substr(close + 1));
        if (tail.compare(0, 2, "--") != 0 ||
            trimmed(tail.substr(2)).empty()) {
            bad("missing justification after '--'");
            continue;
        }
        suppressions.push_back({c.line, rule, c.standalone});
    }
}

/**
 * Whether a finding at line @p f_line is waived by @p s. A trailing
 * suppression (comment after code) covers only its own line; a
 * standalone one covers the strictly-adjacent next line - never a
 * line further down, even across blanks.
 */
bool
suppresses(const Suppression &s, const std::string &rule, int f_line)
{
    if (s.rule != rule)
        return false;
    if (f_line == s.line)
        return true;
    return s.standalone && f_line == s.line + 1;
}

/**
 * Everything the engine derives from one file in isolation:
 * token-rule findings (suppression-filtered), suppressions, and the
 * parsed summary for the call-graph passes.
 */
struct FileArtifacts
{
    std::vector<Finding> findings;
    std::vector<Suppression> suppressions;
    FileSummary summary;
};

FileArtifacts
computeArtifacts(const std::string &display_path,
                 std::string_view content,
                 const std::set<std::string> &disabled)
{
    FileArtifacts art;
    LexResult lexed = lex(content);
    std::vector<Finding> findings =
        runRules(display_path, lexed, disabled);

    std::vector<Finding> meta;
    collectSuppressions(display_path, lexed.comments,
                        art.suppressions, meta);

    auto waived = [&](const Finding &f) {
        for (const auto &s : art.suppressions)
            if (suppresses(s, f.rule, f.line))
                return true;
        return false;
    };
    findings.erase(
        std::remove_if(findings.begin(), findings.end(), waived),
        findings.end());

    if (disabled.find("bad-suppression") == disabled.end())
        findings.insert(findings.end(), meta.begin(), meta.end());

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.col != b.col)
                      return a.col < b.col;
                  return a.rule < b.rule;
              });
    art.findings = std::move(findings);
    art.summary = parseSummary(display_path, lexed);
    return art;
}

} // anonymous namespace

const char *
lintVersion()
{
    return version;
}

std::vector<Finding>
lintSource(const std::string &display_path, std::string_view content,
           const std::set<std::string> &disabled)
{
    return computeArtifacts(display_path, content, disabled)
        .findings;
}

LintResult
lintTree(const LintOptions &options)
{
    LintResult result;
    fs::path root(options.root);
    std::error_code ec;
    root = fs::absolute(root, ec);
    if (ec || !fs::is_directory(root)) {
        result.internal_error = true;
        result.error_message =
            "root is not a directory: " + options.root;
        return result;
    }

    ConfigStack configs;
    std::vector<fs::path> files;
    for (const auto &rel : options.paths) {
        fs::path sub = root / rel;
        if (fs::is_regular_file(sub, ec)) {
            files.push_back(sub);
            continue;
        }
        if (!fs::is_directory(sub, ec)) {
            result.internal_error = true;
            result.error_message =
                "no such file or directory: " + sub.string();
            return result;
        }
        for (fs::recursive_directory_iterator it(sub, ec), end;
             it != end && !ec; it.increment(ec)) {
            if (it->is_regular_file(ec) && isSourceFile(it->path()))
                files.push_back(it->path());
        }
        if (ec) {
            result.internal_error = true;
            result.error_message = "walking " + sub.string() + ": " +
                                   ec.message();
            return result;
        }
    }
    std::sort(files.begin(), files.end());

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<FileArtifacts> artifacts;
    std::vector<std::set<std::string>> disabled_per_file;
    artifacts.reserve(files.size());
    disabled_per_file.reserve(files.size());

    for (const auto &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            result.internal_error = true;
            result.error_message = "cannot read " + file.string();
            return result;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string content = buf.str();

        std::set<std::string> disabled;
        std::string cfg_error;
        if (!configs.disabledFor(root, file, disabled, cfg_error)) {
            result.internal_error = true;
            result.error_message = cfg_error;
            return result;
        }

        // Report repo-relative paths with forward slashes (SARIF
        // wants URIs; text output wants clickable paths).
        std::string rel =
            fs::relative(file, root, ec).generic_string();
        if (ec)
            rel = file.generic_string();

        FileArtifacts art = computeArtifacts(rel, content, disabled);
        result.findings.insert(result.findings.end(),
                               art.findings.begin(),
                               art.findings.end());
        artifacts.push_back(std::move(art));
        disabled_per_file.push_back(std::move(disabled));
        ++result.files_scanned;
    }

    // Cross-TU call-graph passes over the parsed summaries. Their
    // findings honor per-directory config and inline suppressions
    // through the finding's primary file, same as token findings.
    const auto a0 = std::chrono::steady_clock::now();
    std::vector<FileSummary> summaries;
    summaries.reserve(artifacts.size());
    for (auto &art : artifacts)
        summaries.push_back(std::move(art.summary));
    std::map<std::string, size_t> file_index;
    for (size_t i = 0; i < summaries.size(); ++i)
        file_index[summaries[i].path] = i;

    for (auto &f : analyzeProject(summaries)) {
        auto it = file_index.find(f.file);
        if (it != file_index.end()) {
            const auto &disabled = disabled_per_file[it->second];
            if (disabled.count(f.rule) != 0)
                continue;
            bool waived = false;
            for (const auto &s :
                 artifacts[it->second].suppressions)
                if (suppresses(s, f.rule, f.line)) {
                    waived = true;
                    break;
                }
            if (waived)
                continue;
        }
        result.findings.push_back(std::move(f));
    }
    const auto t1 = std::chrono::steady_clock::now();
    using std::chrono::duration_cast;
    using std::chrono::milliseconds;
    result.analysis_ms =
        duration_cast<milliseconds>(t1 - a0).count();
    result.elapsed_ms = duration_cast<milliseconds>(t1 - t0).count();

    std::sort(result.findings.begin(), result.findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.col < b.col;
              });
    return result;
}

std::string
emitText(const LintResult &result)
{
    std::ostringstream out;
    for (const auto &f : result.findings)
        out << f.file << ":" << f.line << ":" << f.col << ": ["
            << f.rule << "] " << f.message << "\n";
    out << result.files_scanned << " file(s) scanned, "
        << result.findings.size() << " finding(s)\n";
    return out.str();
}

std::string
emitJson(const LintResult &result)
{
    namespace json = obs::json;
    std::ostringstream out;
    out << "{\"tool\":\"coldboot-lint\",\"version\":\""
        << json::escape(version) << "\",\"files_scanned\":"
        << result.files_scanned << ",\"analysis_ms\":" << result.analysis_ms
        << ",\"elapsed_ms\":" << result.elapsed_ms
        << ",\"findings\":[";
    bool first = true;
    for (const auto &f : result.findings) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"rule\":\"" << json::escape(f.rule)
            << "\",\"file\":\"" << json::escape(f.file)
            << "\",\"line\":" << f.line << ",\"col\":" << f.col
            << ",\"message\":\"" << json::escape(f.message) << "\"";
        if (!f.flow.empty()) {
            out << ",\"flow\":[";
            bool ffirst = true;
            for (const auto &step : f.flow) {
                if (!ffirst)
                    out << ",";
                ffirst = false;
                out << "{\"file\":\"" << json::escape(step.file)
                    << "\",\"line\":" << step.line
                    << ",\"col\":" << step.col << ",\"note\":\""
                    << json::escape(step.note) << "\"}";
            }
            out << "]";
        }
        out << "}";
    }
    out << "]}";
    return out.str();
}

std::string
emitSarif(const LintResult &result)
{
    namespace json = obs::json;
    std::ostringstream out;
    out << "{\"$schema\":\"https://raw.githubusercontent.com/"
           "oasis-tcs/sarif-spec/master/Schemata/"
           "sarif-schema-2.1.0.json\","
        << "\"version\":\"2.1.0\",\"runs\":[{"
        << "\"tool\":{\"driver\":{\"name\":\"coldboot-lint\","
        << "\"version\":\"" << json::escape(version) << "\","
        << "\"informationUri\":"
           "\"https://example.invalid/coldboot-lint\","
        << "\"rules\":[";
    bool first = true;
    for (const auto &r : ruleCatalog()) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"id\":\"" << json::escape(r.id)
            << "\",\"shortDescription\":{\"text\":\""
            << json::escape(r.description)
            << "\"},\"fullDescription\":{\"text\":\""
            << json::escape(r.rationale)
            << "\"},\"help\":{\"text\":\""
            << json::escape(std::string("Violation:\n") +
                            r.example_bad + "\n\nFix:\n" +
                            r.example_fix)
            << "\"}}";
    }
    out << "]}},\"results\":[";
    first = true;
    for (const auto &f : result.findings) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"ruleId\":\"" << json::escape(f.rule)
            << "\",\"level\":\"error\",\"message\":{\"text\":\""
            << json::escape(f.message)
            << "\"},\"locations\":[{\"physicalLocation\":{"
            << "\"artifactLocation\":{\"uri\":\""
            << json::escape(f.file) << "\"},\"region\":{"
            << "\"startLine\":" << f.line
            << ",\"startColumn\":" << f.col << "}}}]";
        if (!f.flow.empty()) {
            // Inter-procedural path as one codeFlow/threadFlow,
            // source first, sink last (SARIF 3.36-3.38).
            out << ",\"codeFlows\":[{\"threadFlows\":[{"
                   "\"locations\":[";
            bool sfirst = true;
            for (const auto &step : f.flow) {
                if (!sfirst)
                    out << ",";
                sfirst = false;
                out << "{\"location\":{\"physicalLocation\":{"
                    << "\"artifactLocation\":{\"uri\":\""
                    << json::escape(step.file)
                    << "\"},\"region\":{\"startLine\":"
                    << step.line << ",\"startColumn\":"
                    << (step.col > 0 ? step.col : 1)
                    << "}},\"message\":{\"text\":\""
                    << json::escape(step.note) << "\"}}}";
            }
            out << "]}]}]";
        }
        out << "}";
    }
    out << "]}]}";
    return out.str();
}

} // namespace coldboot::lint
