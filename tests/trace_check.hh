/**
 * @file
 * Structural checks of the Chrome trace_event array `--trace` writes,
 * shared by the smoke tests. A well-formed trace holds complete
 * slices (`ph: "X"`, with a duration and a span id in args) and flow
 * events; every flow id pairs exactly one start (`ph: "s"`) with one
 * finish (`ph: "f"`, `bp: "e"`). Flow events appear whenever a pool
 * task is submitted while tracing, so a checker that allows only
 * slices fails on any multi-worker run.
 */

#ifndef COLDBOOT_TESTS_TRACE_CHECK_HH
#define COLDBOOT_TESTS_TRACE_CHECK_HH

#include <map>
#include <string>

#include "obs/json.hh"

namespace coldboot::tracecheck
{

inline double
numField(const obs::json::Value &ev, const char *key)
{
    const auto *v = ev.find(key);
    return v != nullptr ? v->number : -1.0;
}

inline std::string
strField(const obs::json::Value &ev, const char *key)
{
    const auto *v = ev.find(key);
    return v != nullptr ? v->str : std::string();
}

/** A trace indexed by span id and flow id. */
struct TraceIndex
{
    /** Every event carries the fields its phase requires. */
    bool fields_ok = true;
    /** Every flow id has exactly one start and one finish. */
    bool flows_paired = true;
    /** Complete slices by their args.span id. */
    std::map<std::string, const obs::json::Value *> slice_by_span;
    /** Flow starts and finishes by flow id (the last one seen). */
    std::map<std::string, const obs::json::Value *> flow_start;
    std::map<std::string, const obs::json::Value *> flow_finish;
};

/** Index and validate @p doc, a parsed trace array. */
inline TraceIndex
indexTrace(const obs::json::Value &doc)
{
    TraceIndex idx;
    std::map<std::string, int> starts, finishes;
    idx.fields_ok = doc.isArray() && !doc.array.empty();
    for (const auto &ev : doc.array) {
        std::string ph = strField(ev, "ph");
        if (strField(ev, "name").empty() || ev.find("ts") == nullptr ||
            ev.find("pid") == nullptr || ev.find("tid") == nullptr)
            idx.fields_ok = false;
        if (ph == "X") {
            const auto *args = ev.find("args");
            if (args == nullptr || args->find("span") == nullptr ||
                ev.find("dur") == nullptr) {
                idx.fields_ok = false;
                continue;
            }
            idx.slice_by_span[args->find("span")->str] = &ev;
        } else if (ph == "s" || ph == "f") {
            std::string id = strField(ev, "id");
            if (id.empty() || (ph == "f" && strField(ev, "bp") != "e"))
                idx.fields_ok = false;
            ++(ph == "s" ? starts : finishes)[id];
            (ph == "s" ? idx.flow_start : idx.flow_finish)[id] = &ev;
        } else {
            idx.fields_ok = false;
        }
    }
    for (const auto &[id, n] : starts) {
        auto fin = finishes.find(id);
        idx.flows_paired = idx.flows_paired && n == 1 &&
                           fin != finishes.end() && fin->second == 1;
    }
    idx.flows_paired =
        idx.flows_paired && finishes.size() == starts.size();
    return idx;
}

} // namespace coldboot::tracecheck

#endif // COLDBOOT_TESTS_TRACE_CHECK_HH
