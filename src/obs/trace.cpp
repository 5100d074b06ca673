#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/env.hpp"

namespace simra::obs {

namespace {

/// Caps keep a runaway sweep from holding the whole command history in
/// memory; drops are counted, deterministic per task, and reported.
constexpr std::size_t kEventCap = 65536;
constexpr std::size_t kRichSpanCap = 16384;

thread_local TaskBuffer* tl_current = nullptr;

/// Microseconds rendering of a nanosecond stamp, fixed 6 decimals —
/// stable text for byte-comparable artifacts.
std::string us(double ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f", ns / 1000.0);
  return buf;
}

void render_fields(std::ostringstream& os, const Fields& fields) {
  for (const auto& [key, value] : fields)
    os << ",\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
}

}  // namespace

TaskBuffer::TaskBuffer(std::uint32_t track, std::string label,
                       std::size_t capacity)
    : track_(track), label_(std::move(label)), ring_capacity_(capacity) {
  // Start small and let push_back grow geometrically: serving batches
  // record tens of commands, and a buffer is created per batch, so a
  // large up-front reservation would dominate the cost of tracing there.
  // Long chip tasks amortize the handful of regrows over seconds of work.
  ring_.reserve(std::min<std::size_t>(ring_capacity_, 128));
}

void TaskBuffer::add_span(RichSpan span) {
  if (spans_.size() >= kRichSpanCap) {
    ++events_dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

void TaskBuffer::add_request(const RequestTrace& request) {
  if (requests_.size() >= kRichSpanCap) {
    ++events_dropped_;
    return;
  }
  requests_.push_back(request);
}

void TaskBuffer::add_event(std::string type, Fields fields) {
  if (events_.size() >= kEventCap) {
    ++events_dropped_;
    return;
  }
  events_.push_back({std::move(type), std::move(fields)});
}

void TaskBuffer::absorb(const TaskBuffer& child, double ts_offset_ns) {
  for (CommandSpan span : child.command_spans()) {
    span.ts_ns += ts_offset_ns;
    record_command(span);
  }
  absorbed_dropped_ += child.commands_dropped();
  for (RichSpan span : child.spans()) {
    span.ts_ns += ts_offset_ns;
    add_span(std::move(span));
  }
  for (RequestTrace request : child.requests()) {
    request.routed_ns += ts_offset_ns;
    request.batch_start_ns += ts_offset_ns;
    request.exec_start_ns += ts_offset_ns;
    request.exec_end_ns += ts_offset_ns;
    add_request(request);
  }
  for (const Event& event : child.events()) add_event(event.type, event.fields);
  events_dropped_ += child.events_dropped();
}

double TaskBuffer::end_ns() const {
  double end = 0.0;
  for (const CommandSpan& c : ring_)
    end = std::max(end, c.ts_ns + static_cast<double>(c.dur_ns));
  for (const RichSpan& s : spans_) end = std::max(end, s.ts_ns + s.dur_ns);
  for (const RequestTrace& r : requests_) end = std::max(end, r.exec_end_ns);
  return end;
}

std::vector<CommandSpan> TaskBuffer::command_spans() const {
  if (ring_head_ <= ring_capacity_) return ring_;
  std::vector<CommandSpan> out;
  out.reserve(ring_.size());
  const std::size_t start = ring_head_ % ring_capacity_;
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(start + i) % ring_capacity_]);
  return out;
}

std::uint64_t TaskBuffer::commands_dropped() const noexcept {
  return (ring_head_ > ring_capacity_ ? ring_head_ - ring_capacity_ : 0) +
         absorbed_dropped_;
}

std::size_t ring_capacity() {
  static const std::size_t capacity = [] {
    const std::int64_t configured = env_int("SIMRA_TRACE_BUF", 8192);
    return static_cast<std::size_t>(std::max<std::int64_t>(configured, 16));
  }();
  return capacity;
}

TaskBuffer* current_task() noexcept { return tl_current; }

TaskScope::TaskScope(TaskBuffer* buffer) noexcept : previous_(tl_current) {
  tl_current = buffer;
}

TaskScope::~TaskScope() { tl_current = previous_; }

Log& Log::instance() {
  static Log* log = new Log();  // never destroyed (read at atexit flush).
  return *log;
}

TaskBuffer& Log::harness_chunk_locked() {
  if (chunks_.empty() || chunks_.back()->track() != 0) {
    chunks_.push_back(
        std::make_shared<TaskBuffer>(0, "harness", ring_capacity()));
  }
  return *chunks_.back();
}

void Log::submit(std::shared_ptr<TaskBuffer> buffer) {
  if (buffer == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  chunks_.push_back(std::move(buffer));
}

void Log::global_event(std::string type, Fields fields) {
  std::lock_guard<std::mutex> lock(mutex_);
  harness_chunk_locked().add_event(std::move(type), std::move(fields));
}

void Log::global_span(RichSpan span) {
  std::lock_guard<std::mutex> lock(mutex_);
  harness_chunk_locked().add_span(std::move(span));
}

void Log::global_command(const CommandSpan& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  harness_chunk_locked().record_command(span);
}

std::string Log::render_events_jsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"manifest\":" << render_manifest_json(/*with_host=*/false)
     << "}\n";
  std::uint64_t seq = 0;
  for (const auto& chunk : chunks_) {
    for (const Event& event : chunk->events()) {
      os << "{\"seq\":" << seq++ << ",\"scope\":\""
         << json_escape(chunk->label()) << "\",\"type\":\""
         << json_escape(event.type) << "\"";
      render_fields(os, event.fields);
      os << "}\n";
    }
    if (chunk->events_dropped() > 0) {
      os << "{\"seq\":" << seq++ << ",\"scope\":\""
         << json_escape(chunk->label())
         << "\",\"type\":\"obs.dropped\",\"events\":\""
         << chunk->events_dropped() << "\"}\n";
    }
  }
  return os.str();
}

std::string Log::render_trace_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\n\"manifest\": " << render_manifest_json(/*with_host=*/false)
     << ",\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&os, &first](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };
  emit(R"({"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"simra harness"}})");
  emit(R"({"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"simra chips"}})");

  std::set<std::uint32_t> named_tracks;
  for (const auto& chunk : chunks_) {
    const int pid = chunk->track() == 0 ? 0 : 1;
    const std::string tid = std::to_string(chunk->track());
    if (named_tracks.insert(chunk->track()).second) {
      std::ostringstream meta;
      meta << R"({"ph":"M","pid":)" << pid << R"(,"tid":)" << tid
           << R"(,"name":"thread_name","args":{"name":")"
           << json_escape(chunk->label()) << "\"}}";
      emit(meta.str());
    }
    const std::vector<CommandSpan> commands = chunk->command_spans();
    if (chunk->track() != 0) {
      // The enclosing chip-task span, synthesized over the task's virtual
      // timeline so the whole trace stays wall-clock-free (and therefore
      // byte-identical at any SIMRA_THREADS).
      std::ostringstream task;
      task << R"({"name":"chip_task )" << json_escape(chunk->label())
           << R"(","cat":"charz","ph":"X","ts":0,"dur":)"
           << us(chunk->end_ns())
           << R"(,"pid":1,"tid":)" << tid << R"(,"args":{"attempts":")"
           << chunk->attempts << R"(","succeeded":")"
           << (chunk->succeeded ? "true" : "false") << R"(","commands":")"
           << chunk->commands_recorded() << R"(","commands_dropped":")"
           << chunk->commands_dropped() << "\"";
      if (!chunk->error.empty())
        task << R"(,"error":")" << json_escape(chunk->error) << "\"";
      task << "}}";
      emit(task.str());
    }
    for (const CommandSpan& c : commands) {
      std::ostringstream cmd;
      cmd << R"({"name":")" << c.name << R"(","cat":"cmd","ph":"X","ts":)"
          << us(c.ts_ns) << R"(,"dur":)"
          << us(static_cast<double>(c.dur_ns)) << R"(,"pid":)" << pid
          << R"(,"tid":)" << tid << R"(,"args":{"bank":)" << c.bank
          << R"(,"op":)" << c.op << "}}";
      emit(cmd.str());
    }
    for (const RichSpan& s : chunk->spans()) {
      std::ostringstream span;
      span << R"({"name":")" << json_escape(s.name) << R"(","cat":")"
           << s.cat << "\",";
      if (s.dur_ns > 0.0) {
        span << R"("ph":"X","ts":)" << us(s.ts_ns) << R"(,"dur":)"
             << us(s.dur_ns);
      } else {
        span << R"("ph":"i","s":"g","ts":)" << us(s.ts_ns);
      }
      span << R"(,"pid":)" << pid << R"(,"tid":)" << tid << R"(,"args":{)";
      std::ostringstream args;
      render_fields(args, s.args);
      std::string rendered = args.str();
      if (!rendered.empty()) rendered.erase(0, 1);  // leading comma.
      span << rendered << "}}";
      emit(span.str());
    }
    // Request span trees, expanded from their fixed-size records: the
    // parent "req <id>" span then its three phase children, each in the
    // same X/instant form as a rich span.
    const auto emit_phase = [&](const RequestTrace& r, const char* name,
                                double ts, double end) {
      const double dur = std::max(end - ts, 0.0);
      std::ostringstream span;
      span << R"({"name":")" << name << R"(","cat":"serve.request",)";
      if (dur > 0.0) {
        span << R"("ph":"X","ts":)" << us(ts) << R"(,"dur":)" << us(dur);
      } else {
        span << R"("ph":"i","s":"g","ts":)" << us(ts);
      }
      span << R"(,"pid":)" << pid << R"(,"tid":)" << tid
           << R"(,"args":{"req":")" << r.id << "\"}}";
      emit(span.str());
    };
    for (const RequestTrace& r : chunk->requests()) {
      const double dur = std::max(r.exec_end_ns - r.routed_ns, 0.0);
      std::ostringstream span;
      span << R"({"name":"req )" << r.id << R"(","cat":"serve.request",)";
      if (dur > 0.0) {
        span << R"("ph":"X","ts":)" << us(r.routed_ns) << R"(,"dur":)"
             << us(dur);
      } else {
        span << R"("ph":"i","s":"g","ts":)" << us(r.routed_ns);
      }
      span << R"(,"pid":)" << pid << R"(,"tid":)" << tid
           << R"(,"args":{"op":")" << r.op << R"(","tenant":")" << r.tenant
           << R"(","status":")" << r.status << R"(","batch":")" << r.batch
           << R"(","attempts":")" << r.attempts << R"(","reroutes":")"
           << r.reroutes << R"(","wait_rounds":")" << r.wait_rounds
           << R"(","commands":")" << r.commands << "\"}}";
      emit(span.str());
      emit_phase(r, "queue_wait", r.routed_ns, r.batch_start_ns);
      emit_phase(r, "batch_wait", r.batch_start_ns, r.exec_start_ns);
      emit_phase(r, "execute", r.exec_start_ns, r.exec_end_ns);
    }
  }
  os << "\n]\n}\n";
  return os.str();
}

void Log::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  chunks_.clear();
}

void emit_event(std::string type, Fields fields) {
  if (!enabled()) return;
  if (TaskBuffer* task = current_task()) {
    task->add_event(std::move(type), std::move(fields));
  } else {
    Log::instance().global_event(std::move(type), std::move(fields));
  }
}

void emit_span(RichSpan span) {
  if (!enabled()) return;
  if (TaskBuffer* task = current_task()) {
    task->add_span(std::move(span));
  } else {
    Log::instance().global_span(std::move(span));
  }
}

void record_command(const CommandSpan& span) {
  if (TaskBuffer* task = current_task()) {
    task->record_command(span);
  } else {
    Log::instance().global_command(span);
  }
}

std::shared_ptr<TaskBuffer> make_chip_task_buffer(std::uint64_t module_index,
                                                  std::size_t chip_index) {
  const auto track =
      static_cast<std::uint32_t>(module_index * 256 + chip_index + 1);
  return std::make_shared<TaskBuffer>(
      track, "m" + std::to_string(module_index) + "c" +
                 std::to_string(chip_index),
      ring_capacity());
}

}  // namespace simra::obs
