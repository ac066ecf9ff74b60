#include "obs/runtime.hh"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/http.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace coldboot::obs
{

namespace
{

std::atomic<int> g_signal{0};
/** The started FlushAndExit runtime whose files the handler writes. */
std::atomic<Runtime *> g_flush_on_signal{nullptr};

/**
 * The flush calls are not strictly async-signal-safe, but the
 * alternative on a Ctrl-C'd multi-hour scan is losing the artifacts
 * entirely - and a second signal still kills the process at once.
 */
void
onTerminateSignal(int sig)
{
    int expected = 0;
    if (!g_signal.compare_exchange_strong(expected, sig))
        _exit(128 + sig);
    if (Runtime *rt = g_flush_on_signal.load()) {
        rt->finish();
        _exit(128 + sig);
    }
}

} // anonymous namespace

const char *const Runtime::usage =
    "observability flags (any position):\n"
    "  --stats-json <file>   write the stats registry as JSON at\n"
    "                        exit, also on failure or SIGINT/SIGTERM\n"
    "  --trace <file>        write phase spans as Chrome trace_event\n"
    "                        JSON at exit\n"
    "  --serve-obs <[addr:]port>\n"
    "                        serve live telemetry over HTTP\n"
    "                        (/metrics /stats /trace /progress\n"
    "                        /healthz); port 0 picks an ephemeral\n"
    "                        port\n";

Runtime::Runtime(int &argc, char **argv)
{
    int kept = argc > 0 ? 1 : 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string *value = arg == "--stats-json"  ? &stats_path
                             : arg == "--trace"     ? &trace_path
                             : arg == "--serve-obs" ? &serve_spec
                                                    : nullptr;
        if (value == nullptr)
            argv[kept++] = argv[i];
        else if (i + 1 < argc)
            *value = argv[++i];
        else
            arg_error = arg + " requires an argument";
    }
    argc = kept;
    argv[argc] = nullptr;
}

Runtime::~Runtime()
{
    if (!started)
        return;
    finish();
    g_flush_on_signal.store(nullptr);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
}

void
Runtime::start(OnSignal on_signal)
{
    started = true;
    if (!trace_path.empty())
        PhaseTracer::global().setEnabled(true);

    if (on_signal == OnSignal::FlushAndExit)
        g_flush_on_signal.store(this);
    std::signal(SIGINT, onTerminateSignal);
    std::signal(SIGTERM, onTerminateSignal);

    if (serve_spec.empty())
        return;
    ServeSpec spec;
    std::string error;
    if (!parseServeSpec(serve_spec, &spec, &error))
        cb_fatal("--serve-obs: %s", error.c_str());
    server = std::make_unique<ObsHttpServer>(spec);
    if (!server->start(&error))
        cb_fatal("--serve-obs: %s", error.c_str());
    // Flushed so wrappers scraping a `--serve-obs 127.0.0.1:0` child
    // can read the bound port.
    std::printf("serving observability on http://%s:%u/\n",
                server->address().c_str(), server->port());
    std::fflush(stdout);
}

int
Runtime::signalReceived()
{
    return g_signal.load(std::memory_order_acquire);
}

void
Runtime::finish()
{
    if (!started || finished.load())
        return;
    if (!stats_path.empty()) {
        exec::ThreadPool::publishGlobalWorkerStats();
        StatRegistry::global().writeJsonFile(stats_path);
    }
    if (!trace_path.empty())
        PhaseTracer::global().writeTraceFile(trace_path);
    // Set only now, so a signal landing mid-write rewrites the files
    // rather than exiting on a torn one.
    finished.store(true);
}

void
Runtime::linger()
{
    const char *ms = std::getenv("COLDBOOT_SERVE_OBS_LINGER_MS");
    if (server == nullptr || ms == nullptr || *ms == '\0')
        return;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(std::strtoul(ms, nullptr, 10));
    while (!server->quitRequested() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

} // namespace coldboot::obs
