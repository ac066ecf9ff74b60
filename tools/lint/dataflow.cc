#include "lint/dataflow.hh"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "lint/callgraph.hh"

namespace coldboot::lint
{

namespace
{

constexpr size_t kNpos = static_cast<size_t>(-1);
/** Inter-procedural paths longer than this are not reported. */
constexpr int kMaxHops = 12;
/** Call-graph walks give up past this depth (cycles aside). */
constexpr int kMaxDepth = 20;

bool
typeMentions(const std::string &type, const char *word)
{
    return type.find(word) != std::string::npos;
}

bool
typeIsSecret(const std::string &type)
{
    for (const char *n : secretTypeNames())
        if (typeMentions(type, n))
            return true;
    return false;
}

bool
typeIsSelfWiping(const std::string &type)
{
    for (const char *n : wipingTypeNames())
        if (typeMentions(type, n))
            return true;
    return false;
}

/**
 * Owned byte storage the enclosing object is responsible for wiping:
 * containers and in-place arrays, but not pointers/spans/views
 * (ownership elsewhere) and not scalars (a `key_schedule_rounds`
 * count is not key material).
 */
bool
typeOwnsBytes(const std::string &type)
{
    if (typeMentions(type, "*") || typeMentions(type, "span") ||
        typeMentions(type, "view") || typeMentions(type, "ptr") ||
        typeMentions(type, "&"))
        return false;
    return typeMentions(type, "vector") ||
           typeMentions(type, "array") ||
           typeMentions(type, "string") || typeMentions(type, "[]");
}

/** Intersect a call-argument identifier list with a taint set. */
const std::string *
firstTainted(const std::vector<std::string> &idents,
             const std::set<std::string> &taint)
{
    for (const auto &id : idents)
        if (taint.count(id))
            return &id;
    return nullptr;
}

/**
 * Close @p taint over the function's assignment edges: `a = b` with
 * b tainted taints a. Flow-insensitive fixpoint (order within the
 * body is ignored - conservative).
 */
void
closeOverAssigns(const FunctionDef &fn, std::set<std::string> &taint)
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &a : fn.assigns) {
            if (taint.count(a.lhs))
                continue;
            if (firstTainted(a.rhs, taint) != nullptr) {
                taint.insert(a.lhs);
                changed = true;
            }
        }
    }
}

/**
 * How param @p k of a function reaches a sink: either a direct sink
 * call in its body, or a call edge into another (node, param) that
 * does. `dist` is the hop count to the sink (1 = sinks directly).
 */
struct SinkReach
{
    int dist = -1; ///< -1 = does not reach a sink
    bool via_sink = false;
    int line = 0, col = 0;  ///< witness call site
    std::string callee;     ///< witness callee name
    size_t next_node = 0;   ///< when !via_sink: the callee node...
    size_t next_param = 0;  ///< ...and which of its params
};

/** The secret-taint inter-procedural pass. */
class TaintPass
{
  public:
    TaintPass(const std::vector<FileSummary> &summaries,
              const CallGraph &graph)
        : summaries(summaries), graph(graph)
    {
        buildParamTaints();
        solveSinkReachability();
    }

    void
    report(std::vector<Finding> &out) const
    {
        for (size_t n = 0; n < graph.nodes().size(); ++n)
            reportNode(n, out);
    }

  private:
    const std::vector<FileSummary> &summaries;
    const CallGraph &graph;
    /** Per node: per named param, the intra-function taint set. */
    std::vector<std::map<size_t, std::set<std::string>>> param_taint;
    /** Sink reachability per (node, param index). */
    std::map<std::pair<size_t, size_t>, SinkReach> reach;

    void
    buildParamTaints()
    {
        param_taint.resize(graph.nodes().size());
        for (size_t n = 0; n < graph.nodes().size(); ++n) {
            const FunctionDef &fn = *graph.nodes()[n].fn;
            for (size_t k = 0; k < fn.params.size(); ++k) {
                if (fn.params[k].name.empty())
                    continue;
                std::set<std::string> taint = {fn.params[k].name};
                closeOverAssigns(fn, taint);
                param_taint[n][k] = std::move(taint);
            }
        }
    }

    void
    solveSinkReachability()
    {
        // Direct sinks first (dist 1)...
        for (size_t n = 0; n < graph.nodes().size(); ++n) {
            const FunctionDef &fn = *graph.nodes()[n].fn;
            for (const auto &[k, taint] : param_taint[n]) {
                for (const auto &c : fn.calls) {
                    if (c.member || !isSinkCall(c.callee))
                        continue;
                    bool hit = false;
                    for (const auto &arg : c.args)
                        if (firstTainted(arg, taint)) {
                            hit = true;
                            break;
                        }
                    if (!hit)
                        continue;
                    SinkReach &r = reach[{n, k}];
                    if (r.dist == -1) {
                        r = {1, true, c.line, c.col, c.callee, 0, 0};
                    }
                    break;
                }
            }
        }
        // ...then propagate backwards over call edges until fixed.
        for (int pass = 0; pass < kMaxHops; ++pass) {
            bool changed = false;
            for (size_t n = 0; n < graph.nodes().size(); ++n) {
                const FunctionDef &fn = *graph.nodes()[n].fn;
                for (const auto &[k, taint] : param_taint[n]) {
                    SinkReach &cur = reach[{n, k}];
                    for (const auto &c : fn.calls) {
                        for (size_t m : graph.resolve(c.callee)) {
                            if (m == n)
                                continue;
                            if (edgeImproves(c, taint, m, cur)) {
                                changed = true;
                            }
                        }
                    }
                }
            }
            if (!changed)
                break;
        }
    }

    /**
     * If call @p c hands taint into some param of node @p m that
     * reaches a sink, and that shortens @p cur, update @p cur.
     */
    bool
    edgeImproves(const CallSite &c,
                 const std::set<std::string> &taint, size_t m,
                 SinkReach &cur)
    {
        const FunctionDef &callee = *graph.nodes()[m].fn;
        for (size_t j = 0;
             j < c.args.size() && j < callee.params.size(); ++j) {
            if (callee.params[j].name.empty())
                continue;
            if (!firstTainted(c.args[j], taint))
                continue;
            auto it = reach.find({m, j});
            if (it == reach.end() || it->second.dist < 0)
                continue;
            int d = it->second.dist + 1;
            if (d > kMaxHops)
                continue;
            if (cur.dist != -1 && cur.dist <= d)
                continue;
            cur = {d, false, c.line, c.col, c.callee, m, j};
            return true;
        }
        return false;
    }

    /** Seed set of one function, with where each seed came from. */
    struct Seed
    {
        int line = 0;
        std::string why; ///< e.g. "local of type MinedKey"
    };

    std::map<std::string, Seed>
    seedsOf(const FunctionDef &fn) const
    {
        std::map<std::string, Seed> seeds;
        for (const auto &l : fn.secret_locals)
            seeds.emplace(l.name,
                          Seed{l.line ? l.line : fn.line,
                               "local of key-material type " +
                                   l.type});
        for (const auto &p : fn.params)
            if (!p.name.empty() && typeIsSecret(p.type))
                seeds.emplace(
                    p.name,
                    Seed{fn.line, "parameter of key-material type"});
        auto heuristic = [&](const std::string &id, int line) {
            if (looksKeyMaterial(id))
                seeds.emplace(
                    id, Seed{line, "identifier names key material"});
        };
        for (const auto &a : fn.assigns) {
            heuristic(a.lhs, a.line);
            for (const auto &r : a.rhs)
                heuristic(r, a.line);
        }
        for (const auto &c : fn.calls)
            for (const auto &arg : c.args)
                for (const auto &id : arg)
                    heuristic(id, c.line);
        return seeds;
    }

    /**
     * Walk a SinkReach witness chain into flow steps and return the
     * final sink's callee name.
     */
    std::string
    appendChain(size_t node, size_t param,
                std::vector<FlowStep> &flow) const
    {
        std::string sink;
        for (int hop = 0; hop <= kMaxHops; ++hop) {
            auto it = reach.find({node, param});
            if (it == reach.end() || it->second.dist < 0)
                break;
            const SinkReach &r = it->second;
            const GraphNode &gn = graph.nodes()[node];
            if (r.via_sink) {
                flow.push_back({gn.file->path, r.line, r.col,
                                "sinks into '" + r.callee + "' in " +
                                    gn.fn->qual});
                sink = r.callee;
                break;
            }
            const GraphNode &tgt = graph.nodes()[r.next_node];
            flow.push_back(
                {gn.file->path, r.line, r.col,
                 gn.fn->qual + " passes it to '" + tgt.fn->qual +
                     "' parameter '" +
                     tgt.fn->params[r.next_param].name + "'"});
            node = r.next_node;
            param = r.next_param;
        }
        return sink;
    }

    void
    reportNode(size_t n, std::vector<Finding> &out) const
    {
        const GraphNode &gn = graph.nodes()[n];
        const FunctionDef &fn = *gn.fn;
        auto seeds = seedsOf(fn);
        if (seeds.empty())
            return;

        std::set<std::string> taint;
        std::map<std::string, const std::string *> root_of;
        for (const auto &[name, seed] : seeds) {
            taint.insert(name);
            root_of[name] = &name;
        }
        // Close over assigns, remembering which seed each alias
        // traces back to (first writer wins - good enough for the
        // report; the taint itself is exact either way).
        bool changed = true;
        while (changed) {
            changed = false;
            for (const auto &a : fn.assigns) {
                if (taint.count(a.lhs))
                    continue;
                const std::string *src = firstTainted(a.rhs, taint);
                if (src == nullptr)
                    continue;
                taint.insert(a.lhs);
                root_of[a.lhs] = root_of[*src];
                changed = true;
            }
        }

        // One finding per (call site, root): a loop that hands the
        // same key to the same sink twice is one problem.
        std::set<std::pair<int, std::string>> reported;
        for (const auto &c : fn.calls) {
            if (!c.member && isSinkCall(c.callee)) {
                for (const auto &arg : c.args) {
                    const std::string *x = firstTainted(arg, taint);
                    if (x == nullptr)
                        continue;
                    // Direct `cb_warn(..., master_key)` is owned by
                    // the token rule log-no-secrets; report here
                    // only what that rule cannot see (aliases,
                    // typed seeds).
                    const std::string &root = *root_of.at(*x);
                    if (isLogCall(c.callee) && looksSecret(*x) &&
                        *x == root)
                        continue;
                    if (!reported.emplace(c.line, root).second)
                        continue;
                    Finding f;
                    f.rule = "secret-taint";
                    f.file = gn.file->path;
                    f.line = c.line;
                    f.col = c.col;
                    f.message = "key material '" + root +
                                "' reaches output sink '" +
                                c.callee + "'" +
                                (*x != root ? " via alias '" + *x +
                                                  "'"
                                            : "");
                    f.flow.push_back(
                        {gn.file->path, seeds.at(root).line, 1,
                         "source: " + seeds.at(root).why + " ('" +
                             root + "')"});
                    f.flow.push_back({gn.file->path, c.line, c.col,
                                      "sinks into '" + c.callee +
                                          "' in " + fn.qual});
                    out.push_back(std::move(f));
                    break;
                }
                continue;
            }
            for (size_t m : graph.resolve(c.callee)) {
                if (m == n)
                    continue;
                const FunctionDef &callee = *graph.nodes()[m].fn;
                bool done = false;
                for (size_t j = 0; j < c.args.size() &&
                                   j < callee.params.size() &&
                                   !done;
                     ++j) {
                    if (callee.params[j].name.empty())
                        continue;
                    const std::string *x =
                        firstTainted(c.args[j], taint);
                    if (x == nullptr)
                        continue;
                    auto it = reach.find({m, j});
                    if (it == reach.end() || it->second.dist < 0)
                        continue;
                    const std::string &root = *root_of.at(*x);
                    if (!reported.emplace(c.line, root).second)
                        continue;
                    Finding f;
                    f.rule = "secret-taint";
                    f.file = gn.file->path;
                    f.line = c.line;
                    f.col = c.col;
                    f.flow.push_back(
                        {gn.file->path, seeds.at(root).line, 1,
                         "source: " + seeds.at(root).why + " ('" +
                             root + "')"});
                    f.flow.push_back(
                        {gn.file->path, c.line, c.col,
                         fn.qual + " passes '" + *x + "' to '" +
                             callee.qual + "' parameter '" +
                             callee.params[j].name + "'"});
                    std::string sink = appendChain(m, j, f.flow);
                    f.message =
                        "key material '" + root + "' flows into '" +
                        callee.qual + "' and reaches output sink" +
                        (sink.empty() ? "" : " '" + sink + "'") +
                        " (" + std::to_string(it->second.dist) +
                        " hop(s) away)";
                    out.push_back(std::move(f));
                    done = true;
                }
                if (done)
                    break;
            }
        }
    }
};

/** The transitive-determinism pass. */
void
reportDeterminism(const CallGraph &graph, std::vector<Finding> &out)
{
    struct Hop
    {
        size_t parent;
        int line, col;
    };
    std::set<std::string> dedup;

    for (size_t n = 0; n < graph.nodes().size(); ++n) {
        const GraphNode &gn = graph.nodes()[n];
        for (const auto &c : gn.fn->calls) {
            if (c.callee != "parallelForChunks" &&
                c.callee != "parallelMapReduceChunks" &&
                c.callee != "scanDump")
                continue;
            for (int lam_local : c.lambda_args) {
                size_t root = graph.lambdaNode(
                    gn.file_index, static_cast<size_t>(lam_local));
                if (root == CallGraph::npos)
                    continue;
                // BFS from the parallel body. Depth 0 (the lambda
                // itself) is the token rule's territory; only
                // transitively-reached functions are news.
                std::map<size_t, Hop> parent;
                std::vector<std::pair<size_t, int>> queue = {
                    {root, 0}};
                std::set<size_t> visited = {root};
                for (size_t qi = 0; qi < queue.size(); ++qi) {
                    auto [cur, depth] = queue[qi];
                    const GraphNode &cn = graph.nodes()[cur];
                    if (depth > 0 && !cn.fn->nondet.empty()) {
                        const NondetUse &use = cn.fn->nondet.front();
                        std::string key =
                            gn.file->path +
                            std::to_string(c.line) + cn.fn->qual;
                        if (dedup.insert(key).second) {
                            Finding f;
                            f.rule = "transitive-determinism";
                            f.file = gn.file->path;
                            f.line = c.line;
                            f.col = c.col;
                            f.message =
                                "parallel region transitively "
                                "calls nondeterministic '" +
                                use.what + "' in " + cn.fn->qual +
                                " (" + cn.file->path + ":" +
                                std::to_string(use.line) + ")";
                            f.flow.push_back(
                                {gn.file->path, c.line, c.col,
                                 "deterministic parallel region "
                                 "starts here (" +
                                     c.callee + ")"});
                            // Parent chain, root-first.
                            std::vector<FlowStep> chain;
                            size_t walk = cur;
                            while (walk != root) {
                                auto pit = parent.find(walk);
                                if (pit == parent.end())
                                    break;
                                const GraphNode &wn =
                                    graph.nodes()[walk];
                                const GraphNode &pn =
                                    graph.nodes()[pit->second
                                                      .parent];
                                chain.push_back(
                                    {pn.file->path,
                                     pit->second.line,
                                     pit->second.col,
                                     pn.fn->qual + " calls " +
                                         wn.fn->qual});
                                walk = pit->second.parent;
                            }
                            for (auto rit = chain.rbegin();
                                 rit != chain.rend(); ++rit)
                                f.flow.push_back(*rit);
                            f.flow.push_back(
                                {cn.file->path, use.line, use.col,
                                 "'" + use.what +
                                     "' breaks seeded determinism "
                                     "here"});
                            out.push_back(std::move(f));
                        }
                    }
                    if (depth >= kMaxDepth)
                        continue;
                    for (const auto &cc : cn.fn->calls) {
                        for (size_t tgt :
                             graph.resolve(cc.callee)) {
                            if (!visited.insert(tgt).second)
                                continue;
                            parent[tgt] = {cur, cc.line, cc.col};
                            queue.push_back({tgt, depth + 1});
                        }
                    }
                }
            }
        }
    }
}

/** The wipe-coverage pass. */
class WipePass
{
  public:
    WipePass(const std::vector<FileSummary> &summaries,
             const CallGraph &graph)
        : summaries(summaries), graph(graph)
    {
    }

    void
    report(std::vector<Finding> &out) const
    {
        for (const auto &fs : summaries) {
            for (const auto &sd : fs.structs) {
                if (typeIsSelfWiping(sd.name))
                    continue;
                std::vector<const Param *> unwiped;
                for (const auto &m : sd.members) {
                    // A member literally named `key` is key bytes
                    // far more often than a lookup key, so bare
                    // `key`/`keys` stay in scope here even though
                    // the taint pass demotes them.
                    const std::string &mn = m.name;
                    if (!looksKeyMaterial(mn) && mn != "key" &&
                        mn != "keys")
                        continue;
                    if (typeIsSelfWiping(m.type) ||
                        typeIsSecret(m.type))
                        continue; // the member wipes itself
                    if (typeOwnsBytes(m.type))
                        unwiped.push_back(&m);
                }
                if (unwiped.empty())
                    continue;
                if (sd.dtor_wipes || dtorWipes(sd.name))
                    continue;
                Finding f;
                f.rule = "wipe-coverage";
                f.file = fs.path;
                f.line = sd.line;
                f.col = sd.col;
                std::string names;
                for (const Param *m : unwiped) {
                    if (!names.empty())
                        names += ", ";
                    names += m->name;
                }
                f.message =
                    "struct " + sd.name +
                    " owns key-material member(s) " + names +
                    " but has no destructor that secureWipe()s "
                    "them";
                for (const Param *m : unwiped)
                    f.flow.push_back(
                        {fs.path, m->line ? m->line : sd.line, 1,
                         "key-material member '" + m->name + "' (" +
                             m->type + ") declared here"});
                out.push_back(std::move(f));
            }
        }
    }

  private:
    const std::vector<FileSummary> &summaries;
    const CallGraph &graph;

    /**
     * Whether any `~Name` definition in the project (e.g. an
     * out-of-line dtor in the .cc) reaches secureWipe()/wipe()
     * within a few calls.
     */
    bool
    dtorWipes(const std::string &name) const
    {
        std::set<size_t> visited;
        std::vector<std::pair<size_t, int>> queue;
        for (size_t id : graph.resolve("~" + name))
            if (visited.insert(id).second)
                queue.push_back({id, 0});
        for (size_t qi = 0; qi < queue.size(); ++qi) {
            auto [cur, depth] = queue[qi];
            const FunctionDef &fn = *graph.nodes()[cur].fn;
            for (const auto &c : fn.calls) {
                if (c.callee == "secureWipe" || c.callee == "wipe")
                    return true;
                if (depth >= 3)
                    continue;
                for (size_t tgt : graph.resolve(c.callee))
                    if (visited.insert(tgt).second)
                        queue.push_back({tgt, depth + 1});
            }
        }
        return false;
    }
};

} // anonymous namespace

std::vector<Finding>
analyzeProject(const std::vector<FileSummary> &summaries)
{
    CallGraph graph(summaries);
    std::vector<Finding> out;
    TaintPass(summaries, graph).report(out);
    reportDeterminism(graph, out);
    WipePass(summaries, graph).report(out);
    return out;
}

} // namespace coldboot::lint
