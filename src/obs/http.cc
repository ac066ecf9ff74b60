#include "obs/http.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/export.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace coldboot::obs
{

namespace
{

/** Request headers larger than this are rejected outright. */
constexpr size_t maxRequestBytes = 8192;

const char *
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      default: return "Internal Server Error";
    }
}

/** send() the whole buffer, riding out EINTR and partial writes. */
void
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // peer went away; nothing to do for a scraper
        }
        off += static_cast<size_t>(n);
    }
}

} // anonymous namespace

ObsHttpServer::ObsHttpServer(ServeSpec bind_) : bind(std::move(bind_))
{
}

ObsHttpServer::~ObsHttpServer()
{
    stop();
}

bool
ObsHttpServer::start(std::string *error)
{
    if (running)
        return true;
    if (!listener.open(bind, error))
        return false;
    // GET /trace exports the global tracer, so it must buffer spans.
    PhaseTracer::global().setEnabled(true);

    stopping.store(false, std::memory_order_release);
    loop_pool = std::make_unique<exec::ThreadPool>(1);
    loop_pool->submit([this] { acceptLoop(); });
    running = true;
    return true;
}

void
ObsHttpServer::stop()
{
    if (!running)
        return;
    stopping.store(true, std::memory_order_release);
    // Unblock accept() and any recv()/send() on the connection in
    // flight, join the loop, then close the listener.
    listener.shutdownListener();
    {
        std::lock_guard<std::mutex> lock(conn_mu);
        if (conn_fd >= 0)
            ::shutdown(conn_fd, SHUT_RDWR);
    }
    loop_pool.reset();
    listener.close();
    running = false;
}

void
ObsHttpServer::acceptLoop()
{
    while (!stopping.load(std::memory_order_acquire)) {
        int fd = listener.acceptConnection();
        if (fd < 0)
            return; // listener shut down (or broke)
        {
            // stop() raises `stopping` before taking this lock, so
            // either it sees conn_fd or this check sees the flag.
            std::lock_guard<std::mutex> lock(conn_mu);
            if (stopping.load(std::memory_order_acquire)) {
                ::close(fd);
                return;
            }
            conn_fd = fd;
        }
        timeval tv{ioTimeout.count(), 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        handleConnection(fd);
        std::lock_guard<std::mutex> lock(conn_mu);
        conn_fd = -1;
        ::close(fd);
    }
}

void
ObsHttpServer::handleConnection(int fd)
{
    // Read until the end of the request headers; the endpoints are
    // all GET so any body is ignored.
    std::string req;
    char buf[2048];
    while (req.find("\r\n\r\n") == std::string::npos &&
           req.size() < maxRequestBytes) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        req.append(buf, static_cast<size_t>(n));
    }

    // Request line: METHOD SP PATH SP VERSION.
    std::string method, path;
    size_t eol = req.find("\r\n");
    std::string line =
        req.substr(0, eol == std::string::npos ? req.size() : eol);
    size_t sp1 = line.find(' ');
    size_t sp2 =
        sp1 == std::string::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
        method = line.substr(0, sp1);
        path = line.substr(sp1 + 1, sp2 - sp1 - 1);
        // Strip any query string; routing is path-only.
        if (size_t q = path.find('?'); q != std::string::npos)
            path.resize(q);
    }

    std::string body, content_type = "text/plain; charset=utf-8";
    int status = 400;
    if (!method.empty() && !path.empty())
        status = route(method, path, body, content_type);
    if (status != 200 && body.empty())
        body = std::string(statusText(status)) + "\n";

    std::string resp = "HTTP/1.1 " + std::to_string(status) + " " +
                       statusText(status) + "\r\n";
    resp += "Content-Type: " + content_type + "\r\n";
    resp += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    resp += "Connection: close\r\n\r\n";
    // HEAD gets the headers a GET would, never the body (RFC 9110).
    if (method != "HEAD")
        resp += body;
    sendAll(fd, resp);
    requests.fetch_add(1, std::memory_order_relaxed);
}

int
ObsHttpServer::route(const std::string &method,
                     const std::string &path, std::string &body,
                     std::string &content_type)
{
    if (method != "GET" && method != "HEAD")
        return 405;

    if (path == "/healthz") {
        body = "ok\n";
        return 200;
    }
    if (path == "/metrics") {
        exec::ThreadPool::publishGlobalWorkerStats();
        body = renderPrometheusText(StatRegistry::global().snapshotAll());
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        return 200;
    }
    if (path == "/stats") {
        exec::ThreadPool::publishGlobalWorkerStats();
        body = StatRegistry::global().dumpJson();
        content_type = "application/json";
        return 200;
    }
    if (path == "/trace") {
        body = PhaseTracer::global().chromeTraceJson();
        content_type = "application/json";
        return 200;
    }
    if (path == "/progress") {
        body = ProgressTracker::global().dumpJson();
        content_type = "application/json";
        return 200;
    }
    if (path == "/quit") {
        quit_flag.store(true, std::memory_order_release);
        body = "bye\n";
        return 200;
    }
    return 404;
}

} // namespace coldboot::obs
