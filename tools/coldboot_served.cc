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

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/runtime.hh"
#include "obs/tcp_listener.hh"
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
        "  --threads <n>         worker threads for parallel scans\n");
    std::fputs(obs::Runtime::usage, stderr);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    obs::Runtime runtime(argc, argv);
    if (!runtime.error().empty()) {
        std::fprintf(stderr, "%s\n", runtime.error().c_str());
        return usage();
    }
    obs::ServeSpec bind; // 127.0.0.1:0
    serve::ServerOptions opts;

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

    runtime.start(obs::Runtime::OnSignal::Record);
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

    // Main loop: park until a signal or a protocol Shutdown asks for
    // the drain.
    while (obs::Runtime::signalReceived() == 0 &&
           !server.shutdownRequested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    int sig = obs::Runtime::signalReceived();
    cb_inform("coldboot-served: %s; draining",
              sig != 0 ? "termination signal" : "shutdown request");
    server.stop();
    // Flush after the drain so the artifacts capture the full run.
    runtime.finish();
    return sig != 0 ? 128 + sig : 0;
}
