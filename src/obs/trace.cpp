#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace cal::obs::trace {

namespace {

struct Event {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

/// One per recording thread.  The owning thread writes slots [0, next)
/// and publishes them with a release store on `published`; the flusher
/// acquire-loads `published` and only reads below it.  Slots are never
/// recycled (full buffer -> drop + count), so published slots are
/// immutable once visible.
struct ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t id) : tid(id) { slots.resize(kCapacity); }

  const std::uint32_t tid;
  std::vector<Event> slots;
  std::size_t next = 0;                    ///< writer-local
  std::atomic<std::size_t> published{0};   ///< release by writer
  std::size_t flushed = 0;                 ///< flusher-local (under flush mutex)
  std::mutex name_mu;                      ///< guards `name`
  std::string name;
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

/// Leaked on purpose: buffers must outlive their threads (a flush can
/// run after a worker exited) and outlive static destruction (the
/// CAL_TRACE atexit flush walks them).
std::vector<ThreadBuffer*>& buffers() {
  static auto* v = new std::vector<ThreadBuffer*>();
  return *v;
}

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_env_loaded{false};
std::once_flag g_env_once;
std::atomic<std::uint64_t> g_dropped{0};

std::string& env_flush_path() {
  static auto* p = new std::string();
  return *p;
}

void atexit_flush() {
  if (!env_flush_path().empty()) flush_json_file(env_flush_path());
}

void ensure_env_loaded() noexcept {
  if (g_env_loaded.load(std::memory_order_acquire)) return;
  std::call_once(g_env_once, [] {
    if (const char* env = std::getenv("CAL_TRACE");
        env != nullptr && *env != '\0') {
      env_flush_path() = env;
      g_enabled.store(true, std::memory_order_relaxed);
      std::atexit(atexit_flush);
    }
    g_env_loaded.store(true, std::memory_order_release);
  });
}

thread_local ThreadBuffer* tl_buffer = nullptr;
// A name set before this thread's buffer exists.  Only the owning
// thread reads it (when the buffer is created), so its exit-time
// destructor cannot race a flush, which reads buffer names only.
thread_local std::string tl_pending_name;

ThreadBuffer& local_buffer() {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mutex());
    auto* buf = new ThreadBuffer(static_cast<std::uint32_t>(buffers().size()));
    buf->name = tl_pending_name;
    buffers().push_back(buf);
    tl_buffer = buf;
  }
  return *tl_buffer;
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

/// Microsecond timestamp with fixed 3-decimal precision: deterministic
/// formatting, sub-microsecond resolution preserved.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

}  // namespace

bool enabled() noexcept {
  ensure_env_loaded();
  return g_enabled.load(std::memory_order_relaxed);
}

void start() {
  ensure_env_loaded();
  g_enabled.store(true, std::memory_order_relaxed);
}

void stop() {
  ensure_env_loaded();
  g_enabled.store(false, std::memory_order_relaxed);
}

void set_thread_name(const std::string& name) {
  if (tl_buffer != nullptr) {
    std::lock_guard<std::mutex> lock(tl_buffer->name_mu);
    tl_buffer->name = name;
    return;
  }
  // No buffer yet (tracing may never arm): stash the name thread-local
  // so a buffer created later inherits it.
  tl_pending_name = name;
}

std::uint64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  const auto d = std::chrono::steady_clock::now() - epoch;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns) {
  ThreadBuffer& b = local_buffer();
  const std::size_t i = b.next;
  if (i >= kCapacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.slots[i] = Event{name, start_ns, dur_ns};
  b.next = i + 1;
  b.published.store(i + 1, std::memory_order_release);
}

std::uint64_t dropped() {
  return g_dropped.load(std::memory_order_relaxed);
}

void flush_json(std::ostream& out) {
  // One flusher at a time: `flushed` bookkeeping is single-writer under
  // the registry mutex, which also freezes the buffer list.
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::string text = "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) text += ",\n";
    first = false;
  };
  for (ThreadBuffer* b : buffers()) {
    std::string name;
    {
      std::lock_guard<std::mutex> name_lock(b->name_mu);
      name = b->name;
    }
    if (name.empty()) name = "thread-" + std::to_string(b->tid);
    comma();
    text += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
            std::to_string(b->tid) + ",\"args\":{\"name\":\"";
    append_json_escaped(text, name);
    text += "\"}}";
  }
  for (ThreadBuffer* b : buffers()) {
    const std::size_t published = b->published.load(std::memory_order_acquire);
    for (std::size_t i = b->flushed; i < published; ++i) {
      const Event& e = b->slots[i];
      comma();
      text += "{\"name\":\"";
      append_json_escaped(text, e.name);
      text += "\",\"cat\":\"cal\",\"ph\":\"X\",\"ts\":";
      append_us(text, e.start_ns);
      text += ",\"dur\":";
      append_us(text, e.dur_ns);
      text += ",\"pid\":1,\"tid\":" + std::to_string(b->tid) + "}";
    }
    b->flushed = published;
  }
  text += "]}\n";
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
}

void flush_json_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("trace: cannot open '" + path + "' for writing");
  }
  flush_json(out);
}

}  // namespace cal::obs::trace
