/**
 * @file
 * The observability bootstrap shared by coldboot-tool,
 * coldboot-served and coldboot-bench: three command-line flags
 * (Runtime::usage), the sinks they arm, SIGINT/SIGTERM handling, and
 * the stats/trace flush at exit.
 *
 * The flags are the only way to request these outputs. In
 * particular the global tracer is armed only by a sink that will
 * export it - `--trace`, or a server serving `/trace` - so a process
 * never buffers spans that nobody writes.
 *
 * The global pool's per-worker counters reach the registry only when
 * a reader asks: a `/metrics` or `/stats` scrape, or finish() just
 * before it writes `--stats-json`. No background thread refreshes
 * them.
 */

#ifndef COLDBOOT_OBS_RUNTIME_HH
#define COLDBOOT_OBS_RUNTIME_HH

#include <atomic>
#include <memory>
#include <string>

namespace coldboot::obs
{

class ObsHttpServer;

/**
 * One per process. Construction strips the shared flags from argv;
 * start() arms what they ask for; finish() (or destruction) writes
 * the requested files once; destruction stops the HTTP plane and
 * restores default signal handling.
 */
class Runtime
{
  public:
    /** What the first SIGINT/SIGTERM does. A second one always
     *  `_exit(128 + sig)`s at once. */
    enum class OnSignal
    {
        /** Write stats/trace from the handler, `_exit(128 + sig)`. */
        FlushAndExit,
        /** Only record it (signalReceived()); the binary drains,
         *  then exits normally through finish(). */
        Record,
    };

    /** Usage lines for the shared flags. */
    static const char *const usage;

    /**
     * Remove the shared flags and their values from @p argv wherever
     * they appear, keeping every other argument in order and
     * updating @p argc. A flag missing its value sets error().
     */
    Runtime(int &argc, char **argv);

    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** The argument error, or "" when the flags parsed. */
    const std::string &error() const { return arg_error; }

    /**
     * Arm the global tracer (`--trace`); start the HTTP server and
     * announce the bound address on stdout; install the
     * SIGINT/SIGTERM handler. cb_fatal()s when the `--serve-obs`
     * endpoint is malformed or cannot be bound.
     */
    void start(OnSignal on_signal);

    /** The first SIGINT/SIGTERM received (0 = none). */
    static int signalReceived();

    /** Write the requested stats/trace files, the stats after
     *  mirroring the global pool's per-worker counters. Once; no-op
     *  before start(). Runs whether or not the command succeeded. */
    void finish();

    /**
     * Test hook for scrapers of short runs: with a server up and
     * COLDBOOT_SERVE_OBS_LINGER_MS set, keep serving until that many
     * milliseconds pass or a `GET /quit` arrives.
     */
    void linger();

  private:
    std::string stats_path, trace_path, serve_spec;
    std::string arg_error;
    bool started = false;
    std::atomic<bool> finished{false};
    std::unique_ptr<ObsHttpServer> server;
};

} // namespace coldboot::obs

#endif // COLDBOOT_OBS_RUNTIME_HH
