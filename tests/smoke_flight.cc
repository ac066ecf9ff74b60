/**
 * @file
 * Pure-ctest smoke test for causal tracing (the name dates from the
 * retired flight recorder it once also covered): build a tiny
 * cold-boot dump in-process, then drive `coldboot-tool` end to end:
 *
 *  - `attack --threads 4 --trace` must emit Chrome
 *    trace_event JSON in which every pool task's "exec.task" slice is
 *    linked to its submission site by a flow-start/flow-finish pair
 *    (`ph: "s"` / `ph: "f"`), the finish lands inside the task slice
 *    on the task's thread, and task parent ids resolve to real
 *    enclosing spans - the structural properties Perfetto needs to
 *    draw the arrows;
 *
 *  - the determinism gate: key-recovery output must be byte-identical
 *    with tracing + the live telemetry server on vs off, at pool
 *    widths 1 and 4 (DESIGN.md §9/§12 - observation must not perturb
 *    results).
 *
 * Usage: smoke_flight <path-to-coldboot-tool>
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hh"
#include "dram/dram_module.hh"
#include "obs/json.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
#include "trace_check.hh"
#include "volume/veracrypt_volume.hh"

using namespace coldboot;
using namespace coldboot::platform;

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    } else {
        std::printf("ok: %s\n", what);
    }
}

/** A 2 MiB victim dump, mirroring `coldboot-tool simulate-victim`. */
void
writeTinyDump(const std::string &dump_path)
{
    constexpr uint64_t capacity = MiB(2);
    constexpr uint64_t seed = 47;

    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, seed);
    victim.installDimm(0, std::make_shared<dram::DramModule>(
                              dram::Generation::DDR4, capacity,
                              dram::DecayParams{}, seed + 1));
    victim.boot();
    fillWorkload(victim, {}, seed + 2);

    auto vf = volume::VolumeFile::create("hunter2", 16, seed + 3);
    auto mounted = volume::MountedVolume::mount(
        victim, vf, "hunter2", capacity * 3 / 4 + 16);
    std::vector<uint8_t> secret(volume::sectorBytes, 0);
    std::memcpy(secret.data(), "flight", 6);
    mounted->writeSector(3, secret);

    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                     seed + 4);
    auto cold = coldBootTransfer(victim, attacker, 0);
    cold.dump.saveRaw(dump_path);
}

/** Run @p cmd, capture stdout; rc -1 on launch failure. */
int
runCapture(const std::string &cmd, std::string &output)
{
    output.clear();
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        output.append(buf, n);
    return pclose(pipe);
}

/**
 * The deterministic portion of an `attack` run's stdout: the
 * mined/recovered/pair counts (timing figures stripped) and the
 * recovered key material; everything timing-dependent is excluded.
 */
std::string
filterDeterministic(const std::string &output)
{
    std::string result;
    size_t pos = 0;
    while (pos < output.size()) {
        size_t eol = output.find('\n', pos);
        if (eol == std::string::npos)
            eol = output.size();
        std::string line = output.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.rfind("mined ", 0) == 0) {
            size_t cut = line.find("XTS pair(s);");
            if (cut != std::string::npos)
                line.resize(cut + std::strlen("XTS pair(s);"));
            result += line + "\n";
        } else if (line.rfind("XTS master keys", 0) == 0 ||
                   line.rfind("  data :", 0) == 0 ||
                   line.rfind("  tweak:", 0) == 0) {
            result += line + "\n";
        }
    }
    return result;
}

using tracecheck::numField;
using tracecheck::strField;

/**
 * Structural validation of the Chrome trace a pool-width-4 attack
 * writes: exactly the properties Perfetto/chrome://tracing rely on
 * to load the file and draw submit-to-run flow arrows.
 */
void
traceStructureTest(const std::string &tool,
                   const std::string &dump_path)
{
    const std::string trace_path = "smoke_flight_trace.json";
    std::remove(trace_path.c_str());

    std::string cmd = "\"" + tool + "\" attack \"" + dump_path +
                      "\" --threads 4 --trace \"" + trace_path + "\"";
    std::printf("+ %s\n", cmd.c_str());
    std::string output;
    int rc = runCapture(cmd, output);
    check(rc == 0 || rc == 1 * 256, "traced attack exits cleanly");

    auto doc = obs::json::parseFile(trace_path);
    check(doc.has_value(), "--trace artifact parses as JSON");
    if (!doc.has_value())
        return;
    check(doc->isArray() && !doc->array.empty(),
          "trace is a non-empty event array");

    // Index the events: slices by span id, flow starts/finishes by
    // flow-binding id.
    auto idx = tracecheck::indexTrace(*doc);
    const auto &slice_by_span = idx.slice_by_span;
    std::vector<const obs::json::Value *> task_slices;
    size_t named_spans = 0;
    for (const auto &[span, ev] : slice_by_span) {
        if (strField(*ev, "name") == "exec.task")
            task_slices.push_back(ev);
        else
            ++named_spans;
    }
    check(idx.fields_ok, "every event carries the required fields");
    check(idx.flows_paired,
          "every flow id has exactly one s/f pair");
    check(!task_slices.empty(),
          "pool tasks recorded as exec.task slices");
    check(named_spans > 0, "phase spans recorded alongside tasks");

    // Every pool task must be linked: a flow start at its submit
    // site and a flow finish bound inside the task slice.
    bool all_linked = true;
    bool finish_in_slice = true;
    bool causality_ordered = true;
    size_t parented_tasks = 0;
    for (const auto *task : task_slices) {
        const auto *args = task->find("args");
        std::string flow = args != nullptr ? strField(*args, "flow")
                                           : std::string();
        if (flow.empty() || idx.flow_start.count(flow) == 0 ||
            idx.flow_finish.count(flow) == 0) {
            all_linked = false;
            continue;
        }
        const auto *fin = idx.flow_finish.at(flow);
        double ts = numField(*task, "ts");
        double dur = numField(*task, "dur");
        if (numField(*fin, "tid") != numField(*task, "tid") ||
            numField(*fin, "ts") < ts ||
            numField(*fin, "ts") > ts + dur)
            finish_in_slice = false;
        // The flow start happens at submission, strictly no later
        // than the finish stamped inside the running task.
        // (Identical timestamps are possible at µs resolution.)
        if (numField(*idx.flow_start.at(flow), "ts") >
            numField(*fin, "ts"))
            causality_ordered = false;
        std::string parent =
            args != nullptr ? strField(*args, "parent")
                            : std::string();
        if (parent != "0x0" && slice_by_span.count(parent) != 0)
            ++parented_tasks;
    }
    check(all_linked, "every exec.task has a linked s/f flow");
    check(finish_in_slice,
          "flow finish lands inside its task slice, same tid");
    check(causality_ordered, "flow start precedes flow finish");
    check(parented_tasks > 0,
          "task parent ids resolve to real enclosing spans");

    // The attack's own phase spans (the submitters of the pool
    // tasks) must be present by name.
    bool saw_pipeline = false;
    bool saw_parallel_for = false;
    for (const auto &kv : slice_by_span) {
        if (strField(*kv.second, "name") == "attack.pipeline")
            saw_pipeline = true;
        if (strField(*kv.second, "name") == "exec.parallel_for")
            saw_parallel_for = true;
    }
    check(saw_pipeline, "attack.pipeline phase span recorded");
    check(saw_parallel_for, "exec.parallel_for submit span recorded");
}

void
determinismTest(const std::string &tool, const std::string &dump_path)
{
    struct Variant
    {
        const char *label;
        std::string cmd;
    };
    const std::string base = "\"" + tool + "\" attack \"" + dump_path +
                             "\"";
    // The server's banner line is not a key line, so the filter
    // drops it.
    const std::string obs_on = " --trace smoke_flight_det_trace.json"
                               " --serve-obs 127.0.0.1:0";
    std::vector<Variant> variants = {
        {"threads=1 obs=off", base + " --threads 1"},
        {"threads=1 obs=on", base + " --threads 1" + obs_on},
        {"threads=4 obs=off", base + " --threads 4"},
        {"threads=4 obs=on", base + " --threads 4" + obs_on},
    };

    std::string reference;
    for (const auto &v : variants) {
        std::printf("+ %s\n", v.cmd.c_str());
        std::string output;
        int rc = runCapture(v.cmd, output);
        check(rc == 0 || rc == 1 * 256, v.label);
        std::string filtered = filterDeterministic(output);
        check(!filtered.empty(), "attack output non-empty");
        if (reference.empty()) {
            reference = filtered;
            continue;
        }
        bool same = filtered == reference;
        if (!same)
            std::fprintf(stderr,
                         "  [%s] diverged:\n--- reference\n%s--- got\n"
                         "%s",
                         v.label, reference.c_str(), filtered.c_str());
        check(same, "attack results byte-identical to reference");
    }
    std::remove("smoke_flight_det_trace.json");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: smoke_flight <coldboot-tool>\n");
        return 2;
    }
    std::string tool = argv[1];
    std::string dump_path = "smoke_flight_dump.img";
    writeTinyDump(dump_path);

    traceStructureTest(tool, dump_path);
    determinismTest(tool, dump_path);

    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("smoke_flight: all checks passed\n");
    return 0;
}
