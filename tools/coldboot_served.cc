/**
 * @file
 * coldboot-served - the long-running multi-client dump-analysis
 * daemon. Clients (coldboot-client, or anything speaking
 * serve/protocol.hh) submit attack / mine / descramble jobs against
 * server-side dump paths; the daemon schedules them as resumable
 * sessions on the shared thread pool with bounded concurrency and an
 * RSS budget, and serves results byte-identical to the one-shot
 * coldboot-tool commands.
 *
 * Typical session:
 *   coldboot-served --port 0 --stats-json stats.json &
 *   # stdout: "serving analysis jobs on 127.0.0.1:PORT"
 *   coldboot-client 127.0.0.1:PORT attack /dumps/capture.img
 *
 * SIGINT/SIGTERM drain gracefully: the listener stops, queued jobs
 * are cancelled, running jobs are cancel-raised at their next
 * cooperative checkpoint, and the stats/trace artifacts are flushed
 * before exit (the same flush-on-signal contract as coldboot-tool).
 * A second signal kills the process immediately.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/flight.hh"
#include "obs/http.hh"
#include "obs/sampler.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "serve/server.hh"

using namespace coldboot;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: coldboot-served [options]\n"
        "  --port <[addr:]port>  job endpoint (default 127.0.0.1:0;\n"
        "                        port 0 picks an ephemeral port,\n"
        "                        printed on stdout)\n"
        "  --max-jobs <n>        concurrent jobs (default 2)\n"
        "  --rss-budget-mib <n>  streaming-footprint budget across\n"
        "                        running jobs (default 2048)\n"
        "  --job-streaming-mib <n>\n"
        "                        per-job footprint charge cap\n"
        "                        (default 256)\n"
        "  --mmap-threshold-mib <n>\n"
        "                        dumps at/above this stream via\n"
        "                        buffered pread (default 1024)\n"
        "  --handlers <n>        concurrent client connections\n"
        "                        (default 4)\n"
        "  --serve-obs <[addr:]port>\n"
        "                        also serve the observability HTTP\n"
        "                        plane (/metrics /progress ...)\n"
        "  --stats-json <file>   write the stats registry as JSON on\n"
        "                        exit (and on SIGINT/SIGTERM)\n"
        "  --trace <file>        write phase spans as Chrome\n"
        "                        trace_event JSON on exit\n"
        "  --threads <n>         worker threads for parallel scans\n");
    return 2;
}

/** Signal state: 0 = running, else the signal that asked us to die. */
std::atomic<int> g_signal_seen{0};

/**
 * First SIGINT/SIGTERM only raises the flag - the main loop performs
 * the orderly drain, because a scheduler drain is nowhere near
 * async-signal-safe. A second signal means "now": die immediately
 * with the conventional status.
 */
void
onTerminateSignal(int sig)
{
    int expected = 0;
    if (!g_signal_seen.compare_exchange_strong(expected, sig))
        _exit(128 + sig);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    obs::ServeSpec bind; // 127.0.0.1:0
    serve::ServerOptions opts;
    std::string stats_path, trace_path, obs_spec;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n",
                             flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--port") {
            const char *v = next("--port");
            if (v == nullptr)
                return usage();
            std::string error;
            if (!obs::parseServeSpec(v, &bind, &error)) {
                std::fprintf(stderr, "--port: %s\n", error.c_str());
                return usage();
            }
        } else if (arg == "--max-jobs") {
            const char *v = next("--max-jobs");
            if (v == nullptr)
                return usage();
            opts.scheduler.max_concurrent_jobs =
                std::strtoull(v, nullptr, 10);
        } else if (arg == "--rss-budget-mib") {
            const char *v = next("--rss-budget-mib");
            if (v == nullptr)
                return usage();
            opts.scheduler.rss_budget_bytes =
                std::strtoull(v, nullptr, 10) << 20;
        } else if (arg == "--job-streaming-mib") {
            const char *v = next("--job-streaming-mib");
            if (v == nullptr)
                return usage();
            opts.scheduler.per_job_streaming_bytes =
                std::strtoull(v, nullptr, 10) << 20;
        } else if (arg == "--mmap-threshold-mib") {
            const char *v = next("--mmap-threshold-mib");
            if (v == nullptr)
                return usage();
            opts.scheduler.mmap_threshold_bytes =
                std::strtoull(v, nullptr, 10) << 20;
        } else if (arg == "--handlers") {
            const char *v = next("--handlers");
            if (v == nullptr)
                return usage();
            opts.handler_threads = std::strtoull(v, nullptr, 10);
        } else if (arg == "--serve-obs") {
            const char *v = next("--serve-obs");
            if (v == nullptr)
                return usage();
            obs_spec = v;
        } else if (arg == "--stats-json") {
            const char *v = next("--stats-json");
            if (v == nullptr)
                return usage();
            stats_path = v;
        } else if (arg == "--trace") {
            const char *v = next("--trace");
            if (v == nullptr)
                return usage();
            trace_path = v;
        } else if (arg == "--threads") {
            const char *v = next("--threads");
            if (v == nullptr)
                return usage();
            unsigned n = exec::parseThreadCount(v);
            if (n == 0) {
                std::fprintf(stderr, "--threads: bad count '%s'\n",
                             v);
                return usage();
            }
            exec::setThreadOverride(n);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            return usage();
        }
    }

    std::signal(SIGINT, onTerminateSignal);
    std::signal(SIGTERM, onTerminateSignal);
    // The global tracer buffers spans only for an export.
    if (!trace_path.empty())
        obs::PhaseTracer::global().setEnabled(true);

    opts.bind = bind;
    serve::JobServer server(opts);
    std::string error;
    if (!server.start(&error))
        cb_fatal("coldboot-served: %s", error.c_str());
    // Announced on stdout (and flushed) so wrappers launching
    // `--port 0` can read the bound endpoint.
    std::printf("serving analysis jobs on %s:%u\n",
                server.address().c_str(), server.port());
    std::fflush(stdout);

    // Optional observability plane riding alongside: job progress /
    // ETA shows on /progress, serve.jobs.* on /metrics.
    std::unique_ptr<obs::TelemetrySampler> sampler;
    std::unique_ptr<obs::ObsHttpServer> obs_server;
    if (!obs_spec.empty()) {
        obs::ServeSpec spec;
        if (!obs::parseServeSpec(obs_spec, &spec, &error))
            cb_fatal("--serve-obs: %s", error.c_str());
        sampler = std::make_unique<obs::TelemetrySampler>();
        sampler->start();
        obs::ObsHttpServer::Options obs_opts;
        obs_opts.bind = spec;
        obs_opts.sampler = sampler.get();
        obs_server = std::make_unique<obs::ObsHttpServer>(obs_opts);
        if (!obs_server->start(&error))
            cb_fatal("--serve-obs: %s", error.c_str());
        std::printf("serving observability on http://%s:%u/\n",
                    obs_server->address().c_str(),
                    obs_server->port());
        std::fflush(stdout);
    }

    // Main loop: park until a signal or a protocol Shutdown asks for
    // the drain.
    while (g_signal_seen.load(std::memory_order_acquire) == 0 &&
           !server.shutdownRequested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    int sig = g_signal_seen.load(std::memory_order_acquire);
    cb_inform("coldboot-served: %s; draining",
              sig != 0 ? "termination signal" : "shutdown request");
    server.stop();
    if (obs_server != nullptr)
        obs_server->stop();
    if (sampler != nullptr)
        sampler->stop();

    // Flush artifacts after the drain so they capture the full run -
    // the same exit contract as coldboot-tool's signal path.
    if (!stats_path.empty())
        obs::StatRegistry::global().writeJsonFile(stats_path);
    if (!trace_path.empty())
        obs::PhaseTracer::global().writeTraceFile(trace_path);

    return sig != 0 ? 128 + sig : 0;
}
