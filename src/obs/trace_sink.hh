/**
 * @file
 * Chrome-trace (chrome://tracing / Perfetto) event sink, gated by the
 * PRISM_TRACE environment variable.
 *
 * When PRISM_TRACE=<path> is set, the first Machine constructed in the
 * process claims the sink and records transaction spans (coherence
 * transactions, page transfers) and message instants; the trace is
 * written on Machine destruction.  The claim is released when the sink
 * is destroyed, so sequential runs in one process each get a chance to
 * trace (last writer wins on the file).  Parallel sweep workers that
 * lose the claim run untraced — tracing is a single-run debugging
 * tool, not a sweep tool.
 *
 * With PRISM_TRACE unset no sink exists and every recording site is a
 * null-pointer test on a cold path: zero measurable overhead.
 *
 * Every finished coherence or paging transaction goes through one
 * function, recordTxn: it samples the transaction's latency histogram
 * and, when a sink exists, records the same interval as a span.
 */

#ifndef PRISM_OBS_TRACE_SINK_HH
#define PRISM_OBS_TRACE_SINK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace prism {

/** Buffers trace events and writes Chrome trace-event JSON. */
class TraceSink
{
  public:
    /**
     * Claim the process-wide trace slot.  Returns the sink when
     * PRISM_TRACE names a path and no other live sink holds the claim,
     * nullptr otherwise.
     */
    static std::unique_ptr<TraceSink> claimFromEnv();

    ~TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Record a complete ("X") span: [begin, end) ticks. */
    void
    span(std::string_view name, std::string_view category,
         std::int32_t pid, std::int32_t tid, Tick begin, Tick end)
    {
        events_.push_back(Event{std::string(name), std::string(category),
                                pid, tid, begin,
                                end >= begin ? end - begin : 0, 'X'});
    }

    /** Record an instant ("i") event. */
    void
    instant(std::string_view name, std::string_view category,
            std::int32_t pid, std::int32_t tid, Tick at)
    {
        events_.push_back(Event{std::string(name), std::string(category),
                                pid, tid, at, 0, 'i'});
    }

    /** Name a process (node) row in the viewer. */
    void processName(std::int32_t pid, std::string name);

    /** Write the buffered events as Chrome trace JSON to path(). */
    void write() const;

    const std::string &path() const { return path_; }
    std::size_t eventCount() const { return events_.size(); }

  private:
    explicit TraceSink(std::string path) : path_(std::move(path)) {}

    struct Event {
        std::string name;
        std::string category;
        std::int32_t pid;
        std::int32_t tid;
        Tick ts;
        Tick dur;
        char phase;
    };

    struct ProcessMeta {
        std::int32_t pid;
        std::string name;
    };

    std::string path_;
    std::vector<Event> events_;
    std::vector<ProcessMeta> processes_;
};

/**
 * A transaction of node @p node that began at @p begin finished at
 * @p end: sample its latency into @p h and, when tracing (@p sink
 * non-null), record span @p name of @p category on the node's row,
 * lane @p lane (the line index, or 0 for a page transfer).
 */
inline void
recordTxn(Histogram &h, TraceSink *sink, std::string_view name,
          std::string_view category, NodeId node, std::uint32_t lane,
          Tick begin, Tick end)
{
    h.sample(end - begin);
    if (sink) {
        sink->span(name, category, static_cast<std::int32_t>(node),
                   static_cast<std::int32_t>(lane), begin, end);
    }
}

} // namespace prism

#endif // PRISM_OBS_TRACE_SINK_HH
