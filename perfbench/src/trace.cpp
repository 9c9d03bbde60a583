#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex
std::deque<std::string> g_names;  // guarded by g_mutex
std::atomic<std::uint32_t> g_next_thread{0};
const Clock::time_point g_epoch = Clock::now();

thread_local std::vector<std::int64_t> t_open;  // open span stack
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

}  // namespace

void Tracer::enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::size_t Tracer::size() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans.size();
}

const char* Tracer::intern(const std::string& name) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (const std::string& n : g_names) {
    if (n == name) return n.c_str();
  }
  return g_names.emplace_back(name).c_str();
}

Tracer::Span::Span(const char* name, std::uint64_t id) {
  if (!enabled()) return;
  SpanRecord rec;
  rec.name = name;
  rec.parent = t_open.empty() ? -1 : t_open.back();
  rec.id = id;
  rec.thread = t_thread;
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    index_ = static_cast<std::int64_t>(g_spans.size());
    g_spans.push_back(rec);
  }
  t_open.push_back(index_);
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_spans[static_cast<std::size_t>(index_)].start_ns = start;
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  t_open.pop_back();
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_spans[static_cast<std::size_t>(index_)].end_ns = end;
}

std::map<std::string, SpanTotals> Tracer::totals(std::size_t first) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<double> child_ms(g_spans.size(), 0.0);
  for (std::size_t i = first; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = first; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.self_ms += dur - child_ms[i];
    t.samples_ms.push_back(dur);
  }
  return out;
}

bool Tracer::write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"id\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
