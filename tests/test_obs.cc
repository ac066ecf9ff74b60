/**
 * @file
 * Unit tests for the observability layer: counter and histogram
 * math, concurrent increments, the JSON export round-trip (through
 * the in-tree parser) and the Chrome trace exporter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

using namespace coldboot;
using namespace coldboot::obs;

TEST(Counter, AddAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, EmptySnapshot)
{
    Distribution d;
    auto s = d.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.sum, 0.0);
    EXPECT_EQ(s.mean, 0.0);
    EXPECT_EQ(s.stddev, 0.0);
}

TEST(Distribution, SingleSampleHasZeroStddev)
{
    Distribution d;
    d.sample(7.5);
    auto s = d.snapshot();
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.min, 7.5);
    EXPECT_DOUBLE_EQ(s.max, 7.5);
    EXPECT_DOUBLE_EQ(s.mean, 7.5);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Distribution, MeanAndPopulationStddev)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    auto s = d.snapshot();
    EXPECT_EQ(s.count, 8u);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    // Canonical population-stddev example: sigma = 2.
    EXPECT_NEAR(s.stddev, 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Distribution, BucketEdgesAreHalfOpen)
{
    // Buckets: (-inf,0) [0,10) [10,20) [20,+inf)
    Distribution d({0.0, 10.0, 20.0});
    d.sample(-1.0);  // underflow
    d.sample(0.0);   // [0,10) - on-edge goes to the upper bucket
    d.sample(9.999); // [0,10)
    d.sample(10.0);  // [10,20)
    d.sample(20.0);  // overflow [20,+inf)
    d.sample(25.0);  // overflow
    auto s = d.snapshot();
    ASSERT_EQ(s.bucket_edges.size(), 3u);
    ASSERT_EQ(s.bucket_counts.size(), 4u);
    EXPECT_EQ(s.bucket_counts[0], 1u);
    EXPECT_EQ(s.bucket_counts[1], 2u);
    EXPECT_EQ(s.bucket_counts[2], 1u);
    EXPECT_EQ(s.bucket_counts[3], 2u);
}

TEST(Distribution, ResetClearsEverything)
{
    Distribution d({1.0});
    d.sample(0.5);
    d.sample(1.5);
    d.reset();
    auto s = d.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.bucket_counts[0], 0u);
    EXPECT_EQ(s.bucket_counts[1], 0u);
}

TEST(Registry, SameNameReturnsSameInstance)
{
    StatRegistry reg;
    Counter &a = reg.counter("layer.comp.metric", "desc");
    Counter &b = reg.counter("layer.comp.metric");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(reg.counterValue("layer.comp.metric"), 3u);
    EXPECT_TRUE(reg.has("layer.comp.metric"));
    EXPECT_FALSE(reg.has("layer.comp.other"));
}

TEST(Registry, ConcurrentIncrementsAreExact)
{
    StatRegistry reg;
    Counter &c = reg.counter("test.concurrent.counter");
    Distribution &d = reg.distribution("test.concurrent.dist");
    constexpr int threads = 8;
    constexpr int per_thread = 10000;
    // coldboot-lint: allow(no-raw-thread) -- stressing the registry below the ThreadPool layer
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&c, &d] {
            for (int i = 0; i < per_thread; ++i) {
                c.add();
                d.sample(1.0);
            }
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(c.value(),
              static_cast<uint64_t>(threads) * per_thread);
    auto s = d.snapshot();
    EXPECT_EQ(s.count, static_cast<uint64_t>(threads) * per_thread);
    EXPECT_DOUBLE_EQ(s.mean, 1.0);
}

TEST(Registry, ResetForTestZeroesButKeepsReferences)
{
    StatRegistry reg;
    Counter &c = reg.counter("a.b.c");
    c.add(9);
    reg.resetForTest();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(&c, &reg.counter("a.b.c"));
    EXPECT_TRUE(reg.has("a.b.c"));
}

TEST(Registry, ScalarStoresFiniteValues)
{
    StatRegistry reg;
    reg.setScalar("bench.x.value", 3.25, "a figure");
    EXPECT_DOUBLE_EQ(reg.scalarValue("bench.x.value"), 3.25);
    // Non-finite values must never reach the JSON dump.
    reg.setScalar("bench.x.bad", std::nan(""));
    EXPECT_DOUBLE_EQ(reg.scalarValue("bench.x.bad"), 0.0);
    reg.setScalar("bench.x.inf", INFINITY);
    EXPECT_DOUBLE_EQ(reg.scalarValue("bench.x.inf"), 0.0);
}

TEST(Registry, JsonRoundTrip)
{
    StatRegistry reg;
    reg.counter("attack.test.blocks", "blocks").add(123);
    Distribution &d =
        reg.distribution("engine.test.lat_ns", "ns", {0.0, 12.5});
    d.sample(5.0);
    d.sample(20.0);
    reg.setScalar("bench.test.figure", 1.5);

    auto doc = json::parse(reg.dumpJson());
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());

    const auto *meta = doc->find("meta");
    ASSERT_NE(meta, nullptr);
    const auto *wall = meta->find("wall_seconds");
    ASSERT_NE(wall, nullptr);
    EXPECT_GE(wall->number, 0.0);

    const auto *stats = doc->find("stats");
    ASSERT_NE(stats, nullptr);

    const auto *c = stats->find("attack.test.blocks");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->find("type")->str, "counter");
    EXPECT_DOUBLE_EQ(c->find("value")->number, 123.0);
    EXPECT_EQ(c->find("desc")->str, "blocks");

    const auto *dd = stats->find("engine.test.lat_ns");
    ASSERT_NE(dd, nullptr);
    EXPECT_EQ(dd->find("type")->str, "distribution");
    EXPECT_DOUBLE_EQ(dd->find("count")->number, 2.0);
    EXPECT_DOUBLE_EQ(dd->find("mean")->number, 12.5);
    ASSERT_NE(dd->find("bucket_counts"), nullptr);
    ASSERT_EQ(dd->find("bucket_counts")->array.size(), 3u);
    EXPECT_DOUBLE_EQ(dd->find("bucket_counts")->array[1].number,
                     1.0);
    EXPECT_DOUBLE_EQ(dd->find("bucket_counts")->array[2].number,
                     1.0);

    const auto *s = stats->find("bench.test.figure");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->find("type")->str, "scalar");
    EXPECT_DOUBLE_EQ(s->find("value")->number, 1.5);
}

TEST(Registry, TextDumpContainsEveryStat)
{
    StatRegistry reg;
    reg.counter("z.last.metric").add(1);
    reg.counter("a.first.metric").add(2);
    std::string text = reg.dumpText();
    EXPECT_NE(text.find("a.first.metric"), std::string::npos);
    EXPECT_NE(text.find("z.last.metric"), std::string::npos);
    // Name-sorted dump: a.* precedes z.*.
    EXPECT_LT(text.find("a.first.metric"), text.find("z.last.metric"));
}

TEST(Tracer, ScopedSpanRecordsCompleteEvent)
{
    PhaseTracer tracer;
    {
        ScopedSpan span("phase.test", tracer);
    }
    ASSERT_EQ(tracer.eventCount(), 1u);
    auto events = tracer.events();
    EXPECT_EQ(events[0].name, "phase.test");
    EXPECT_GE(events[0].dur_us, 0.0);
}

TEST(Tracer, StopIsIdempotentAndReturnsSeconds)
{
    PhaseTracer tracer;
    ScopedSpan span("phase.stop", tracer);
    double secs = span.stop();
    EXPECT_GE(secs, 0.0);
    EXPECT_DOUBLE_EQ(span.stop(), secs);
    ASSERT_EQ(tracer.eventCount(), 1u);
}

TEST(Tracer, DisabledTracerDropsSpans)
{
    PhaseTracer tracer;
    tracer.setEnabled(false);
    {
        ScopedSpan span("phase.dropped", tracer);
    }
    EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST(Tracer, ChromeTraceJsonHasRequiredFields)
{
    PhaseTracer tracer;
    {
        ScopedSpan a("mine", tracer);
        ScopedSpan b("search", tracer);
        // Needs escaping, and ends in a stray non-UTF-8 byte.
        ScopedSpan c("q\"b\\\n\xff", tracer);
    }
    auto doc = json::parse(tracer.chromeTraceJson());
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isArray());
    ASSERT_EQ(doc->array.size(), 3u);
    bool odd_name = false;
    for (const auto &ev : doc->array) {
        ASSERT_TRUE(ev.isObject());
        ASSERT_NE(ev.find("name"), nullptr);
        ASSERT_NE(ev.find("ph"), nullptr);
        EXPECT_EQ(ev.find("ph")->str, "X");
        ASSERT_NE(ev.find("ts"), nullptr);
        ASSERT_NE(ev.find("dur"), nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        ASSERT_NE(ev.find("tid"), nullptr);
        EXPECT_GE(ev.find("ts")->number, 0.0);
        EXPECT_GE(ev.find("dur")->number, 0.0);
        // The stray byte comes back as U+FFFD.
        odd_name = odd_name ||
                   ev.find("name")->str == "q\"b\\\n\xef\xbf\xbd";
    }
    EXPECT_TRUE(odd_name);
}

TEST(Tracer, ResetForTestDropsEvents)
{
    PhaseTracer tracer;
    tracer.recordSpan("x", 0.0, 1.0);
    tracer.resetForTest();
    EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST(Tracer, ScopedTimerSamplesDistribution)
{
    Distribution d;
    {
        ScopedTimer t(d);
    }
    auto s = d.snapshot();
    ASSERT_EQ(s.count, 1u);
    EXPECT_GE(s.min, 0.0);
}

TEST(Tracer, NestedSpansLinkToEnclosingParent)
{
    PhaseTracer tracer;
    uint64_t outer_id = 0;
    uint64_t inner_id = 0;
    {
        ScopedSpan outer("outer", tracer);
        outer_id = outer.id();
        EXPECT_EQ(outer.parentId(), 0u);
        EXPECT_EQ(tracer.currentSpanId(), outer_id);
        {
            ScopedSpan inner("inner", tracer);
            inner_id = inner.id();
            EXPECT_EQ(inner.parentId(), outer_id);
            EXPECT_EQ(tracer.currentSpanId(), inner_id);
        }
        // Context restored: the outer span is current again.
        EXPECT_EQ(tracer.currentSpanId(), outer_id);
    }
    EXPECT_EQ(tracer.currentSpanId(), 0u);

    auto events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    for (const auto &ev : events) {
        if (ev.name == "inner") {
            EXPECT_EQ(ev.id, inner_id);
            EXPECT_EQ(ev.parent, outer_id);
        } else {
            EXPECT_EQ(ev.name, "outer");
            EXPECT_EQ(ev.id, outer_id);
            EXPECT_EQ(ev.parent, 0u);
        }
    }
}

TEST(Tracer, PoolTaskSpanUsesProvidedParentAndRestoresContext)
{
    PhaseTracer tracer;
    ScopedSpan worker("worker.context", tracer);
    {
        // The pool-task form: parent comes from the submitter's
        // captured context, not from this thread's current span.
        ScopedSpan task("exec.task", 0xabcd, 0, tracer);
        EXPECT_EQ(task.parentId(), 0xabcdu);
        EXPECT_EQ(tracer.currentSpanId(), task.id());
    }
    EXPECT_EQ(tracer.currentSpanId(), worker.id());
}

TEST(Tracer, OverflowIsCountedNeverSilent)
{
    Counter &dropped_stat =
        StatRegistry::global().counter("obs.trace.dropped");
    uint64_t stat_before = dropped_stat.value();

    PhaseTracer tracer(4);
    for (int i = 0; i < 10; ++i)
        tracer.recordSpan("overflow", i * 1.0, 1.0);

    EXPECT_EQ(tracer.eventCount(), 4u);
    EXPECT_EQ(tracer.droppedCount(), 6u);
    EXPECT_EQ(dropped_stat.value() - stat_before, 6u);

    // resetForTest clears the buffered events and the drop count.
    tracer.resetForTest();
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.droppedCount(), 0u);
}

TEST(Tracer, ChromeTraceJsonCarriesSpanIdsInArgs)
{
    PhaseTracer tracer;
    {
        ScopedSpan outer("outer", tracer);
        ScopedSpan inner("inner", tracer);
    }
    auto doc = json::parse(tracer.chromeTraceJson());
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->array.size(), 2u);

    std::string outer_span;
    for (const auto &ev : doc->array) {
        const auto *args = ev.find("args");
        ASSERT_NE(args, nullptr);
        ASSERT_NE(args->find("span"), nullptr);
        ASSERT_NE(args->find("parent"), nullptr);
        // Ids render as hex strings (Chrome id convention).
        EXPECT_EQ(args->find("span")->str.rfind("0x", 0), 0u);
        if (ev.find("name")->str == "outer")
            outer_span = args->find("span")->str;
    }
    for (const auto &ev : doc->array) {
        if (ev.find("name")->str == "inner") {
            EXPECT_EQ(ev.find("args")->find("parent")->str,
                      outer_span);
        }
    }
}

TEST(Tracer, FlowEventsRenderAsChromeFlowPair)
{
    PhaseTracer tracer;
    uint64_t flow = tracer.newId();
    tracer.recordFlowStart("exec.task", flow);
    {
        ScopedSpan task("exec.task", 0, flow, tracer);
    }
    auto doc = json::parse(tracer.chromeTraceJson());
    ASSERT_TRUE(doc.has_value());

    const json::Value *start = nullptr;
    const json::Value *finish = nullptr;
    const json::Value *slice = nullptr;
    for (const auto &ev : doc->array) {
        const std::string &ph = ev.find("ph")->str;
        if (ph == "s")
            start = &ev;
        else if (ph == "f")
            finish = &ev;
        else if (ph == "X")
            slice = &ev;
    }
    ASSERT_NE(start, nullptr);
    ASSERT_NE(finish, nullptr);
    ASSERT_NE(slice, nullptr);

    // The s/f pair binds by category + id...
    EXPECT_EQ(start->find("cat")->str, "flow");
    EXPECT_EQ(finish->find("cat")->str, "flow");
    EXPECT_EQ(start->find("id")->str, finish->find("id")->str);
    EXPECT_EQ(finish->find("bp")->str, "e");
    // ...and the finish lands inside the task slice (same thread,
    // timestamp within the slice), so viewers attach the arrow there.
    EXPECT_EQ(finish->find("tid")->number,
              slice->find("tid")->number);
    EXPECT_GE(finish->find("ts")->number, slice->find("ts")->number);
    EXPECT_LE(finish->find("ts")->number,
              slice->find("ts")->number +
                  slice->find("dur")->number);
    EXPECT_EQ(slice->find("args")->find("flow")->str,
              start->find("id")->str);
    EXPECT_LE(start->find("ts")->number, finish->find("ts")->number);
}

TEST(Json, ParsesScalarsAndNesting)
{
    auto doc = json::parse(
        R"({"a": [1, -2.5, 1e3], "b": {"c": "x\n"}, "d": true,)"
        R"( "e": null})");
    ASSERT_TRUE(doc.has_value());
    const auto *a = doc->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
    EXPECT_DOUBLE_EQ(a->array[1].number, -2.5);
    EXPECT_DOUBLE_EQ(a->array[2].number, 1000.0);
    EXPECT_EQ(doc->find("b")->find("c")->str, "x\n");
    EXPECT_TRUE(doc->find("d")->boolean);
    EXPECT_TRUE(doc->find("e")->isNull());
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_FALSE(json::parse("{").has_value());
    EXPECT_FALSE(json::parse("[1,]").has_value());
    EXPECT_FALSE(json::parse("{\"a\": }").has_value());
    EXPECT_FALSE(json::parse("tru").has_value());
    EXPECT_FALSE(json::parse("{} trailing").has_value());
}
