#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace simra::obs {

/// One rendered key/value pair of an event or span. Values are rendered
/// as JSON strings (events must be byte-comparable, so no float
/// formatting subtleties leak in).
using Field = std::pair<std::string, std::string>;
using Fields = std::vector<Field>;

/// One command-slot span from the executor, in *virtual* (simulated)
/// nanoseconds — a pure function of the program, so traces are identical
/// at any thread count. `name` must point at a string literal.
struct CommandSpan {
  const char* name = "";
  double ts_ns = 0.0;
  float dur_ns = 0.0;
  std::uint32_t op = 0;  ///< row for ACT, column for RD/WR, 0 otherwise.
  std::int32_t bank = -1;
};

/// A low-volume annotated span (chip task, figure phase). ts/dur follow
/// the emitting layer's clock; deterministic layers use virtual time.
struct RichSpan {
  std::string name;
  const char* cat = "obs";
  double ts_ns = 0.0;
  double dur_ns = 0.0;
  Fields args;
};

/// One structured event, rendered as a JSONL line. The global sequence ID
/// is assigned at render time from the deterministic chunk order.
struct Event {
  std::string type;
  Fields fields;
};

/// One served request's complete span tree — parent plus its
/// queue_wait/batch_wait/execute phases — as a single fixed-size record.
/// Recording a request costs one ~88-byte struct push instead of four
/// annotated span pushes (~1KB): the serving hot path records tens of
/// thousands of these per second, and the retained-buffer footprint
/// (first-touch page faults on memory that lives until flush) is what
/// dominates tracing cost there. The renderer expands the record into
/// the same four trace.json spans at flush time. `op` and `status` must
/// be string literals (serve::to_string results).
struct RequestTrace {
  std::uint64_t id = 0;
  std::uint64_t batch = 0;
  double routed_ns = 0.0;       ///< parent + queue_wait start.
  double batch_start_ns = 0.0;  ///< queue_wait end, batch_wait start.
  double exec_start_ns = 0.0;   ///< batch_wait end, execute start.
  double exec_end_ns = 0.0;     ///< execute + parent end.
  const char* op = "";
  const char* status = "ok";
  std::uint32_t tenant = 0;
  std::uint32_t attempts = 0;
  std::uint32_t reroutes = 0;
  std::uint32_t wait_rounds = 0;
  std::uint32_t commands = 0;
};

/// Recording buffer for one deterministic unit of work (one chip task, or
/// the main-thread "harness" stream). Command spans live in a fixed-size
/// ring (capacity `SIMRA_TRACE_BUF`, default 8192) that keeps the most
/// recent spans and counts the overwritten ones; because the ring is per
/// *task* — not per OS thread — its retained window is identical at any
/// thread count. A buffer is written by exactly one thread at a time
/// (thread-confined; ownership is handed to the main thread at seal), so
/// recording takes no locks.
class TaskBuffer {
 public:
  TaskBuffer(std::uint32_t track, std::string label,
             std::size_t ring_capacity);

  /// Inline: the executor records one span per issued command.
  void record_command(const CommandSpan& span) {
    if (ring_.size() < ring_capacity_) {
      ring_.push_back(span);
    } else {
      ring_[ring_head_ % ring_capacity_] = span;
    }
    ++ring_head_;
  }
  void add_span(RichSpan span);
  void add_request(const RequestTrace& request);
  void add_event(std::string type, Fields fields);

  std::uint32_t track() const noexcept { return track_; }
  const std::string& label() const noexcept { return label_; }

  /// Appends another buffer's retained contents to this one, shifting its
  /// virtual timestamps by `ts_offset_ns` — the merge step that folds a
  /// chip task's per-subtask buffers into one chip stream in deterministic
  /// (attempt, subtask) order. Dropped-span/event tallies carry over, so
  /// the absorbing buffer still reports the true recorded totals.
  void absorb(const TaskBuffer& child, double ts_offset_ns);

  /// End of the recorded virtual timeline: max ts + dur over retained
  /// command, rich and request spans (0 when empty).
  double end_ns() const;

  /// Ring contents in recording order (oldest retained first).
  std::vector<CommandSpan> command_spans() const;
  std::uint64_t commands_recorded() const noexcept {
    return ring_head_ + absorbed_dropped_;
  }
  std::uint64_t commands_dropped() const noexcept;
  const std::vector<RichSpan>& spans() const noexcept { return spans_; }
  const std::vector<RequestTrace>& requests() const noexcept {
    return requests_;
  }
  const std::vector<Event>& events() const noexcept { return events_; }
  std::uint64_t events_dropped() const noexcept { return events_dropped_; }

  // Chip-task metadata, set by the harness at seal time and exported as
  // the task's enclosing span.
  unsigned attempts = 0;
  bool succeeded = true;
  std::string error;

 private:
  std::uint32_t track_;
  std::string label_;
  std::vector<CommandSpan> ring_;
  std::size_t ring_capacity_;
  std::uint64_t ring_head_ = 0;  ///< total commands ever recorded.
  std::vector<RichSpan> spans_;
  std::vector<RequestTrace> requests_;
  std::vector<Event> events_;
  std::uint64_t events_dropped_ = 0;
  /// Commands already dropped by absorbed child rings, counted into
  /// commands_recorded()/commands_dropped() without disturbing this
  /// ring's own head index.
  std::uint64_t absorbed_dropped_ = 0;
};

/// Ring capacity from SIMRA_TRACE_BUF (default 8192, floor 16), cached.
std::size_t ring_capacity();

/// The buffer the current thread records into, nullptr outside any scope.
TaskBuffer* current_task() noexcept;

/// Binds a buffer to the current thread for the scope's lifetime (scopes
/// nest; the previous binding is restored).
class TaskScope {
 public:
  explicit TaskScope(TaskBuffer* buffer) noexcept;
  ~TaskScope();
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  TaskBuffer* previous_;
};

/// The process-wide ordered log. Chunks — sealed task buffers plus
/// main-thread "harness" segments — are appended in deterministic program
/// order by the main thread (workers only ever touch their own scoped
/// buffer), which is what makes the rendered artifacts byte-identical
/// across `SIMRA_THREADS` settings.
class Log {
 public:
  static Log& instance();

  /// Appends a sealed task buffer. Called from the main thread, in task
  /// order.
  void submit(std::shared_ptr<TaskBuffer> buffer);

  /// Emission helpers for unscoped call sites (the main thread between
  /// sweeps): append to the trailing harness chunk under the log mutex.
  void global_event(std::string type, Fields fields);
  void global_span(RichSpan span);
  void global_command(const CommandSpan& span);

  /// JSONL: one manifest header line, then every event with its assigned
  /// sequence ID. Deterministic (no wall-clock content).
  std::string render_events_jsonl() const;

  /// Chrome/Perfetto trace JSON: manifest header, track metadata, the
  /// synthesized chip-task spans, command spans (virtual time), and rich
  /// spans. Deterministic (no wall-clock content).
  std::string render_trace_json() const;

  void reset();

 private:
  Log() = default;
  TaskBuffer& harness_chunk_locked();

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<TaskBuffer>> chunks_;
};

/// Convenience emitters: no-ops when the layer is disabled; scoped
/// emission is lock-free, unscoped emission lands in the harness chunk.
void emit_event(std::string type, Fields fields);
void emit_span(RichSpan span);
void record_command(const CommandSpan& span);

/// Allocates a task buffer on the standard chip track layout
/// (track = module * 256 + chip + 1, label "m<module>c<chip>").
std::shared_ptr<TaskBuffer> make_chip_task_buffer(std::uint64_t module_index,
                                                  std::size_t chip_index);

}  // namespace simra::obs
