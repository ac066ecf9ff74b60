/**
 * @file
 * Dependency-free embedded HTTP/1.1 observability server - the
 * export surface of the live telemetry plane. Read-only by design:
 * every endpoint renders process state, none mutates it (the single
 * exception, `GET /quit`, only raises a flag the hosting tool polls).
 *
 * Endpoints:
 *   /healthz       200 "ok"                        (liveness probe)
 *   /metrics       Prometheus text exposition 0.0.4
 *   /stats         StatRegistry JSON dump
 *   /trace         Chrome trace (chrome://tracing / Perfetto)
 *   /progress      job progress / ETA (JSON)
 *   /quit          raises quitRequested() (test/linger hook)
 *
 * `/metrics` and `/stats` first mirror the global pool's per-worker
 * counters into the registry (exec::ThreadPool::
 * publishGlobalWorkerStats), so a scrape sees them as of now. `HEAD`
 * answers any path with the headers of its `GET` and no body.
 *
 * Binding defaults to 127.0.0.1 - telemetry for a key-extraction
 * attack is itself sensitive, so nothing listens beyond localhost
 * unless the operator says so explicitly. The accept loop blocks on
 * its own single-worker exec::ThreadPool and handles one connection
 * at a time; responses are small rendered strings sent with
 * `Connection: close`, which is plenty for scrape traffic and keeps
 * the server trivially auditable. A fixed I/O timeout on every
 * accepted socket bounds how long a silent client can hold that one
 * slot, and stop() cuts the connection in flight.
 */

#ifndef COLDBOOT_OBS_HTTP_HH
#define COLDBOOT_OBS_HTTP_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/tcp_listener.hh"

namespace coldboot::exec
{
class ThreadPool;
} // namespace coldboot::exec

namespace coldboot::obs
{

/**
 * The embedded server. start() binds and launches the accept loop;
 * stop() (or destruction) shuts the listening socket and any
 * connection in flight down, and joins.
 */
class ObsHttpServer
{
  public:
    /** How long one recv()/send() on a client may block: a client
     *  that connects and goes silent holds the server this long. */
    static constexpr std::chrono::seconds ioTimeout{2};

    /** @param bind Endpoint; the default is an ephemeral localhost
     *              port. */
    explicit ObsHttpServer(ServeSpec bind = {});

    ObsHttpServer(const ObsHttpServer &) = delete;
    ObsHttpServer &operator=(const ObsHttpServer &) = delete;

    ~ObsHttpServer();

    /**
     * Bind, listen and launch the accept loop. Returns false (with
     * @p error set) when the socket cannot be bound.
     */
    bool start(std::string *error = nullptr);

    /** Shut down the listener and the connection in flight, and join
     *  the accept loop (idempotent). */
    void stop();

    /** Address actually bound (valid after a successful start()). */
    const std::string &address() const { return listener.address(); }

    /** Port actually bound - resolves `port 0` requests. */
    uint16_t port() const { return listener.port(); }

    /** Whether a `GET /quit` has been received. */
    bool quitRequested() const
    {
        return quit_flag.load(std::memory_order_acquire);
    }

    /** Requests served so far (any status). */
    uint64_t requestsServed() const
    {
        return requests.load(std::memory_order_relaxed);
    }

  private:
    void acceptLoop();
    void handleConnection(int fd);
    /** Route a request; fills body/content type, returns status. */
    int route(const std::string &method, const std::string &path,
              std::string &body, std::string &content_type);

    ServeSpec bind;
    TcpListener listener;
    bool running = false;
    std::atomic<bool> stopping{false};
    /** Guards conn_fd, so stop() never shuts down an fd the loop has
     *  already closed (and the kernel may have reused). */
    std::mutex conn_mu;
    /** The connection being served (-1 = none). */
    int conn_fd = -1;
    std::atomic<bool> quit_flag{false};
    std::atomic<uint64_t> requests{0};

    /** Dedicated single-worker pool hosting the accept loop. */
    std::unique_ptr<exec::ThreadPool> loop_pool;
};

} // namespace coldboot::obs

#endif // COLDBOOT_OBS_HTTP_HH
