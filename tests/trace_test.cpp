/// Tests for the util::trace observability layer: span recording,
/// counters/gauges, aggregation, exporter formats, and the
/// zero-overhead null sink contract.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr {
namespace {

namespace trace = util::trace;

/// Every test runs against clean, enabled global trace state and
/// leaves tracing off for the rest of the process.
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::reset();
        trace::set_enabled(true);
    }

    void
    TearDown() override
    {
        trace::set_enabled(false);
        trace::reset();
    }
};

TEST_F(TraceTest, SpanIsAggregatedByName)
{
    for (int i = 0; i < 3; ++i) {
        trace::Span span("unit.pass");
    }
    const auto metrics = trace::collect();
    ASSERT_EQ(metrics.spans.count("unit.pass"), 1u);
    const auto& stats = metrics.spans.at("unit.pass");
    EXPECT_EQ(stats.count, 3u);
    EXPECT_GE(stats.total_ms, 0.0);
    EXPECT_LE(stats.min_ms, stats.max_ms);
}

TEST_F(TraceTest, CountersAccumulateAndGaugesOverwrite)
{
    trace::counter_add("unit.count", 2.0);
    trace::counter_add("unit.count", 3.0);
    trace::gauge_set("unit.gauge", 1.0);
    trace::gauge_set("unit.gauge", 7.5);
    const auto metrics = trace::collect();
    EXPECT_DOUBLE_EQ(metrics.counters.at("unit.count"), 5.0);
    EXPECT_DOUBLE_EQ(metrics.gauges.at("unit.gauge"), 7.5);
}

TEST_F(TraceTest, DisabledRecordingIsInert)
{
    trace::set_enabled(false);
    {
        trace::Span span("unit.ignored");
        EXPECT_DOUBLE_EQ(span.elapsed_ms(), 0.0);
    }
    trace::counter_add("unit.ignored", 1.0);
    trace::gauge_set("unit.ignored", 1.0);
    const auto metrics = trace::collect();
    EXPECT_TRUE(metrics.spans.empty());
    EXPECT_TRUE(metrics.counters.empty());
    EXPECT_TRUE(metrics.gauges.empty());
}

TEST_F(TraceTest, ChromeTraceExportIsWellFormed)
{
    {
        trace::Span span("unit.export");
    }
    trace::counter_add("unit.value", 4.0);
    std::ostringstream os;
    trace::write_chrome_trace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"unit.export\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"caqr_metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"unit.value\":4"), std::string::npos);
}

TEST_F(TraceTest, SummaryCsvHasSpanAndCounterRows)
{
    {
        trace::Span span("unit.csv");
    }
    trace::counter_add("unit.csv_count", 9.0);
    trace::gauge_set("unit.csv_gauge", 0.5);
    std::ostringstream os;
    trace::write_summary_csv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("kind,name,count"), std::string::npos);
    EXPECT_NE(csv.find("span,unit.csv,1"), std::string::npos);
    EXPECT_NE(csv.find("counter,unit.csv_count"), std::string::npos);
    EXPECT_NE(csv.find("gauge,unit.csv_gauge"), std::string::npos);
}

TEST_F(TraceTest, ConcurrentSpansAndCountersAreAllRecorded)
{
    util::ThreadPool pool(3);
    pool.map(64, [](std::size_t) {
        trace::Span span("unit.worker");
        trace::counter_add("unit.tasks", 1.0);
        return 0;
    });
    const auto metrics = trace::collect();
    EXPECT_EQ(metrics.spans.at("unit.worker").count, 64u);
    EXPECT_DOUBLE_EQ(metrics.counters.at("unit.tasks"), 64.0);
}

TEST_F(TraceTest, ResetDiscardsEverything)
{
    trace::counter_add("unit.gone", 1.0);
    trace::reset();
    EXPECT_TRUE(trace::collect().counters.empty());
}

// ---------------------------------------------------------------------
// Request context propagation and per-request capture
// ---------------------------------------------------------------------

TEST_F(TraceTest, RequestScopeTagsGlobalSpansWithRequestId)
{
    trace::RequestContext ctx;
    ctx.id = 7;
    {
        trace::RequestScope scope(&ctx, nullptr);
        trace::Span span("unit.tagged");
    }
    {
        trace::Span span("unit.untagged");
    }
    std::ostringstream os;
    trace::write_chrome_trace(os);
    const std::string json = os.str();
    const auto tagged = json.find("\"name\":\"unit.tagged\"");
    ASSERT_NE(tagged, std::string::npos);
    const auto tagged_end = json.find('}', tagged);
    EXPECT_NE(json.substr(tagged, tagged_end - tagged).find("\"req\":7"),
              std::string::npos)
        << json.substr(tagged, tagged_end - tagged);
    const auto untagged = json.find("\"name\":\"unit.untagged\"");
    ASSERT_NE(untagged, std::string::npos);
    const auto untagged_end = json.find('}', untagged);
    EXPECT_EQ(
        json.substr(untagged, untagged_end - untagged).find("\"req\""),
        std::string::npos);
}

/// The always-on contract: a bound capture records spans even with
/// the global trace switch off — slow-request capture must not
/// require globally enabled tracing.
TEST_F(TraceTest, CaptureRecordsWithGlobalTracingDisabled)
{
    trace::set_enabled(false);
    trace::RequestContext ctx;
    ctx.id = 3;
    trace::RequestCapture capture(ctx.id);
    {
        trace::RequestScope scope(&ctx, &capture);
        trace::Span span("unit.captured");
    }
    EXPECT_EQ(capture.span_count(), 1u);
    EXPECT_TRUE(capture.has_span("unit.captured"));
    EXPECT_EQ(capture.dropped(), 0u);

    // The global sink saw nothing.
    EXPECT_TRUE(trace::collect().spans.empty());

    std::ostringstream os;
    capture.write_chrome_trace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"name\":\"unit.captured\""),
              std::string::npos);
    EXPECT_NE(json.find("\"caqr_request\":{\"id\":3"),
              std::string::npos);
}

/// `sampled = false` opts the request out: the capture stays empty
/// even though it was passed to the scope.
TEST_F(TraceTest, UnsampledRequestCapturesNothing)
{
    trace::RequestContext ctx;
    ctx.id = 4;
    ctx.sampled = false;
    trace::RequestCapture capture(ctx.id);
    {
        trace::RequestScope scope(&ctx, &capture);
        trace::Span span("unit.unsampled");
    }
    EXPECT_EQ(capture.span_count(), 0u);
    EXPECT_FALSE(capture.has_span("unit.unsampled"));
}

/// Scopes nest and restore: pool workers rebind per task, and the
/// previous binding comes back when the inner scope dies.
TEST_F(TraceTest, RequestScopeNestsAndRestores)
{
    trace::RequestContext outer_ctx;
    outer_ctx.id = 10;
    trace::RequestContext inner_ctx;
    inner_ctx.id = 11;
    trace::RequestCapture outer(outer_ctx.id);
    trace::RequestCapture inner(inner_ctx.id);

    EXPECT_EQ(trace::current_request(), nullptr);
    {
        trace::RequestScope outer_scope(&outer_ctx, &outer);
        ASSERT_NE(trace::current_request(), nullptr);
        EXPECT_EQ(trace::current_request()->id, 10u);
        {
            trace::RequestScope inner_scope(&inner_ctx, &inner);
            EXPECT_EQ(trace::current_request()->id, 11u);
            trace::Span span("unit.inner");
        }
        EXPECT_EQ(trace::current_request()->id, 10u);
        trace::Span span("unit.outer");
    }
    EXPECT_EQ(trace::current_request(), nullptr);
    EXPECT_EQ(trace::current_capture(), nullptr);

    EXPECT_TRUE(inner.has_span("unit.inner"));
    EXPECT_FALSE(inner.has_span("unit.outer"));
    EXPECT_TRUE(outer.has_span("unit.outer"));
    EXPECT_FALSE(outer.has_span("unit.inner"));
}

/// Concurrent pool workers bound to different requests never bleed
/// spans into each other's captures.
TEST_F(TraceTest, ConcurrentCapturesStayIsolated)
{
    constexpr int kRequests = 4;
    constexpr int kSpansEach = 32;
    std::vector<trace::RequestContext> contexts(kRequests);
    std::vector<std::unique_ptr<trace::RequestCapture>> captures;
    for (int r = 0; r < kRequests; ++r) {
        contexts[r].id = static_cast<std::uint64_t>(100 + r);
        captures.push_back(std::make_unique<trace::RequestCapture>(
            contexts[r].id));
    }

    util::ThreadPool pool(4);
    pool.map(kRequests, [&](std::size_t r) {
        trace::RequestScope scope(&contexts[r], captures[r].get());
        for (int i = 0; i < kSpansEach; ++i) {
            trace::Span span("unit.req" + std::to_string(r));
        }
        return 0;
    });

    for (int r = 0; r < kRequests; ++r) {
        EXPECT_EQ(captures[r]->span_count(),
                  static_cast<std::size_t>(kSpansEach))
            << "request " << r;
        EXPECT_TRUE(
            captures[r]->has_span("unit.req" + std::to_string(r)));
        for (int other = 0; other < kRequests; ++other) {
            if (other == r) continue;
            EXPECT_FALSE(captures[r]->has_span(
                "unit.req" + std::to_string(other)))
                << "request " << r << " holds spans of " << other;
        }
    }
}

/// util::FanOut carries the caller's request binding onto the pool:
/// spans from 64 tasks on a 3-worker pool all land in the caller's
/// capture, whichever thread ran them.
TEST_F(TraceTest, FanOutTasksRecordIntoCallerCapture)
{
    trace::set_enabled(false);
    trace::RequestContext ctx;
    ctx.id = 21;
    trace::RequestCapture capture(ctx.id);
    util::ThreadPool pool(3);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    {
        trace::RequestScope scope(&ctx, &capture);
        util::FanOut fan_out(4, &pool);
        fan_out.map(64, [&](std::size_t) {
            trace::Span span("unit.fanout");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            std::lock_guard<std::mutex> lock(mutex);
            threads.insert(std::this_thread::get_id());
            return 0;
        });
    }
    EXPECT_GT(threads.size(), 1u) << "no task ran on a pool worker";
    EXPECT_EQ(capture.span_count(), 64u);
    EXPECT_TRUE(capture.has_span("unit.fanout"));

    // The workers' bindings were restored after each task.
    const auto bound = pool.map(8, [](std::size_t) {
        return trace::current_capture() == nullptr ? 0 : 1;
    });
    for (const int binding : bound) EXPECT_EQ(binding, 0);
}

/// The same holds on a transient pool (no borrowed pool given).
TEST_F(TraceTest, FanOutTransientPoolRecordsIntoCallerCapture)
{
    trace::set_enabled(false);
    trace::RequestContext ctx;
    ctx.id = 22;
    trace::RequestCapture capture(ctx.id);
    {
        trace::RequestScope scope(&ctx, &capture);
        util::FanOut fan_out(4, nullptr);
        fan_out.map(16, [](std::size_t) {
            trace::Span span("unit.transient");
            return 0;
        });
    }
    EXPECT_EQ(capture.span_count(), 16u);
}

/// The span cap holds: past kMaxSpans new spans are counted as
/// dropped, not stored.
TEST_F(TraceTest, CaptureCapsSpansAndCountsDrops)
{
    trace::RequestCapture capture(1);
    const auto start = std::chrono::steady_clock::now();
    const std::size_t attempts = trace::RequestCapture::kMaxSpans + 5;
    for (std::size_t i = 0; i < attempts; ++i) {
        capture.record("unit.flood", start, 1.0);
    }
    EXPECT_EQ(capture.span_count(), trace::RequestCapture::kMaxSpans);
    EXPECT_EQ(capture.dropped(), 5u);

    std::ostringstream os;
    capture.write_chrome_trace(os);
    EXPECT_NE(os.str().find("\"dropped\":5"), std::string::npos);
}

}  // namespace
}  // namespace caqr
