// Run journal: ordered JSONL emission of spans, events and metric snapshots.
//
// Schema (`hunter.journal.v1`) — one JSON object per line, first line is the
// meta record, every subsequent record carries its append sequence number:
//
//   {"type":"meta","schema":"hunter.journal.v1","attrs":{...}}
//   {"type":"span","seq":0,"stage":"deploy","name":"clone0","t":0,"dur":3,
//    "charged":true,"attrs":{...}}
//   {"type":"event","seq":1,"name":"retry","t":3,"attrs":{...}}
//   {"type":"metrics","seq":2,"label":"batch0","t":145.7,"metrics":[...]}
//
// Determinism contract (DESIGN.md §10):
//  * all doubles are rendered with common::FormatDouble17 (classic locale,
//    round-trip precision; non-finite values as "NaN"/"Infinity"/"-Infinity"
//    strings), so journals are byte-identical regardless of host locale;
//  * records are emitted in append order — no hash-map iteration anywhere;
//  * Write -> ParseJournal -> WriteParsed reproduces the input byte-for-byte;
//  * folding `dur` over charged spans in record order equals the simulated
//    clock total bit-exactly (see obs/trace.h).

#ifndef HUNTER_OBS_JOURNAL_H_
#define HUNTER_OBS_JOURNAL_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hunter::common {
class ThreadPool;
}  // namespace hunter::common

namespace hunter::obs {

inline constexpr char kJournalSchema[] = "hunter.journal.v1";

// One journal line (other than meta). Exactly one of the three payloads is
// meaningful, selected by `type`.
struct Record {
  enum class Type { kSpan, kEvent, kMetrics };
  Type type = Type::kSpan;
  SpanRecord span;
  EventRecord event;
  std::string metrics_label;
  double metrics_at_seconds = 0.0;
  std::vector<MetricSnapshot> metrics;
};

class Journal {
 public:
  // `clock` must outlive the journal. `registry` may be null if no metric
  // snapshots are taken. `meta` is emitted on the first line (e.g. seed,
  // workload) — keep values pre-rendered via common::FormatDouble17.
  Journal(common::SimClock* clock, MetricsRegistry* registry,
          std::vector<Attr> meta = {});

  // The owned tracer points back at this journal, so the journal is pinned
  // in place once constructed.
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  Tracer& tracer() { return tracer_; }
  MetricsRegistry* registry() const { return registry_; }

  // The run's thread pool, for tuner-side parallel sections (the Random
  // Forest's trees); null when the run has none. Not owned. It rides on the
  // journal because the journal is the one run-scoped object every tuner
  // decorator forwards (Tuner::BindObservability). Never written to the
  // journal's bytes.
  common::ThreadPool* executor() const { return executor_; }
  void set_executor(common::ThreadPool* executor) { executor_ = executor; }

  // Appends a snapshot of every registered metric, stamped with the current
  // simulated time. No-op (recorded as an empty snapshot) without a registry.
  void SnapshotMetrics(const std::string& label);

  // Record sinks used by the Tracer; also available to tests building
  // journals by hand.
  void AppendSpan(SpanRecord span);
  void AppendEvent(EventRecord event);

  const std::vector<Record>& records() const { return records_; }
  const std::vector<Attr>& meta() const { return meta_; }

  // Serializes the journal as JSONL. Byte-stable: classic locale, fixed key
  // order, append-order records.
  void Write(std::ostream& out) const;

 private:
  common::SimClock* clock_;
  MetricsRegistry* registry_;
  std::vector<Attr> meta_;
  std::vector<Record> records_;
  Tracer tracer_;
  common::ThreadPool* executor_ = nullptr;
};

// A journal read back from disk; shares the Record representation with the
// writer so re-emission is byte-identical.
struct ParsedJournal {
  std::string schema;
  std::vector<Attr> meta;
  std::vector<Record> records;
};

// Parses JSONL produced by Journal::Write (or tracecat-compatible input).
// Locale-independent (std::from_chars). Returns false and fills `error`
// (with a line number) on malformed input.
bool ParseJournal(std::istream& in, ParsedJournal* out, std::string* error);

// Re-serializes a parsed journal with the writer's exact formatting.
void WriteParsed(const ParsedJournal& journal, std::ostream& out);

}  // namespace hunter::obs

#endif  // HUNTER_OBS_JOURNAL_H_
