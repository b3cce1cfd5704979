// Window-operator micro-benchmarks: put() throughput across window kinds
// and group-by fan-out (the paper's discussion flags window-based actors as
// the performance-critical component).
//
// This binary replaces the global operator new/delete with counting ones,
// so the window benches also report heap use: `allocs_per_put` counts the
// allocations made inside the measured operator/receiver calls (building
// the input event is excluded), and `live_bytes_per_group` is the heap the
// operator holds at the end of the run (groups plus their buffered events,
// in malloc_usable_size bytes) divided by its group count.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "core/port.h"
#include "core/schema.h"
#include "stream/push_channel.h"
#include "window/window_operator.h"
#include "window/windowed_receiver.h"

namespace {
std::atomic<uint64_t> heap_allocs{0};
std::atomic<int64_t> heap_live_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  heap_allocs.fetch_add(1, std::memory_order_relaxed);
  heap_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                            std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    heap_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
    std::free(p);
  }
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace cwf {
namespace {

uint64_t HeapAllocs() { return heap_allocs.load(std::memory_order_relaxed); }

int64_t HeapLiveBytes() {
  return heap_live_bytes.load(std::memory_order_relaxed);
}

// Sets the heap counters; `live_before` is HeapLiveBytes() taken before the
// operator was built, and `groups` 0 skips live_bytes_per_group.
void ReportHeap(benchmark::State& state, uint64_t put_allocs,
                int64_t live_before, size_t groups) {
  state.counters["allocs_per_put"] =
      static_cast<double>(put_allocs) / static_cast<double>(state.iterations());
  if (groups > 0) {
    state.counters["live_bytes_per_group"] =
        static_cast<double>(HeapLiveBytes() - live_before) /
        static_cast<double>(groups);
  }
}

CWEvent IntEvent(int64_t v, int64_t ts_us, uint64_t seq) {
  CWEvent e;
  e.token = Token(v);
  e.timestamp = Timestamp(ts_us);
  e.wave = WaveTag::Root(seq);
  e.last_in_wave = true;
  e.seq = seq;
  return e;
}

CWEvent KeyedEvent(int64_t key, int64_t ts_us, uint64_t seq) {
  auto rec = std::make_shared<Record>();
  rec->Set("k", Value(key));
  rec->Set("v", Value(static_cast<int64_t>(seq)));
  CWEvent e;
  e.token = Token(RecordPtr(std::move(rec)));
  e.timestamp = Timestamp(ts_us);
  e.wave = WaveTag::Root(seq);
  e.last_in_wave = true;
  e.seq = seq;
  return e;
}

void BM_TupleWindowPut(benchmark::State& state) {
  // Sliding, step 1: every put past the first `size` emits one window and
  // pops one event. Beyond copying the window, the cost must not grow with
  // the window size (the group FIFO's push/pop are amortized O(1)).
  const uint64_t size = static_cast<uint64_t>(state.range(0));
  WindowOperator op(WindowSpec::Tuples(state.range(0), 1));
  std::vector<Window> out;
  uint64_t seq = 0;
  uint64_t put_allocs = 0;
  for (auto _ : state) {
    out.clear();
    ++seq;
    const CWEvent event = IntEvent(1, static_cast<int64_t>(seq), seq);
    const uint64_t allocs = HeapAllocs();
    CWF_CHECK(op.Put(event, &out).ok());
    put_allocs += HeapAllocs() - allocs;
    CWF_CHECK(seq < size ||
              (out.size() == 1 && out[0].size() == size &&
               out[0].front().seq == seq - size + 1));
    benchmark::DoNotOptimize(out);
    if (seq % 4096 == 0) {
      op.DrainExpired();
    }
  }
  ReportHeap(state, put_allocs, 0, 0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleWindowPut)->Arg(2)->Arg(4)->Arg(32)->Arg(1024);

void BM_TimeWindowPut(benchmark::State& state) {
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60))
                        .DeleteUsedEvents(true));
  std::vector<Window> out;
  uint64_t seq = 0;
  uint64_t put_allocs = 0;
  for (auto _ : state) {
    out.clear();
    ++seq;
    const CWEvent event = IntEvent(1, static_cast<int64_t>(seq) * 1000, seq);
    const uint64_t allocs = HeapAllocs();
    CWF_CHECK(op.Put(event, &out).ok());
    put_allocs += HeapAllocs() - allocs;
    // Events are 1 ms apart, so a window holds the 60,000 events before
    // the one that closes it (59,999 for the first, which starts at 0).
    CWF_CHECK(out.empty() ||
              (out.size() == 1 && out[0].back().seq == seq - 1 &&
               out[0].size() == (seq == 60000 ? 59999u : 60000u)));
    benchmark::DoNotOptimize(out);
  }
  ReportHeap(state, put_allocs, 0, 0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeWindowPut);

// A position report keyed like LRB's Avgsv window, by (car, xway, dir, seg)
// derived from `key`: small, correlated ints, so a weak hash combine (a sum
// or xor of the fields) folds many groups into few buckets.
CWEvent LrbKeyedEvent(int64_t key, int64_t ts_us, uint64_t seq) {
  auto rec = std::make_shared<Record>();
  rec->Set("car", Value(key));
  rec->Set("xway", Value(key % 4));
  rec->Set("dir", Value(key % 2));
  rec->Set("seg", Value((key / 2) % 100));
  rec->Set("speed", Value(static_cast<int64_t>(seq % 100)));
  CWEvent e;
  e.token = Token(RecordPtr(std::move(rec)));
  e.timestamp = Timestamp(ts_us);
  e.wave = WaveTag::Root(seq);
  e.last_in_wave = true;
  e.seq = seq;
  return e;
}

void BM_GroupByWindowPut(benchmark::State& state) {
  const int64_t keys = state.range(0);
  const int64_t live_before = HeapLiveBytes();
  WindowOperator op(
      WindowSpec::Tuples(4, 1).GroupBy({"k"}).DeleteUsedEvents(true));
  std::vector<Window> out;
  uint64_t seq = 0;
  uint64_t put_allocs = 0;
  for (auto _ : state) {
    out.clear();
    ++seq;
    const CWEvent event = KeyedEvent(static_cast<int64_t>(seq) % keys,
                                     static_cast<int64_t>(seq), seq);
    const uint64_t allocs = HeapAllocs();
    CWF_CHECK(op.Put(event, &out).ok());
    put_allocs += HeapAllocs() - allocs;
    benchmark::DoNotOptimize(out);
  }
  out = {};
  ReportHeap(state, put_allocs, live_before, op.GroupCount());
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(keys) + " groups");
}
BENCHMARK(BM_GroupByWindowPut)->Arg(10)->Arg(1000)->Arg(100000);

void BM_GroupByWindowPutLrbKey(benchmark::State& state) {
  const int64_t keys = state.range(0);
  const int64_t live_before = HeapLiveBytes();
  WindowOperator op(WindowSpec::Tuples(4, 1)
                        .GroupBy({"car", "xway", "dir", "seg"})
                        .DeleteUsedEvents(true));
  std::vector<Window> out;
  uint64_t seq = 0;
  uint64_t put_allocs = 0;
  for (auto _ : state) {
    out.clear();
    ++seq;
    const CWEvent event = LrbKeyedEvent(static_cast<int64_t>(seq) % keys,
                                        static_cast<int64_t>(seq), seq);
    const uint64_t allocs = HeapAllocs();
    CWF_CHECK(op.Put(event, &out).ok());
    put_allocs += HeapAllocs() - allocs;
    benchmark::DoNotOptimize(out);
  }
  CWF_CHECK(op.GroupCount() ==
            static_cast<size_t>(std::min<int64_t>(keys, seq)));
  out = {};
  ReportHeap(state, put_allocs, live_before, op.GroupCount());
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(keys) + " groups");
}
BENCHMARK(BM_GroupByWindowPutLrbKey)->Arg(10)->Arg(1000)->Arg(100000);

void BM_WindowedReceiverPut(benchmark::State& state) {
  // The receiver's Put adds RecordDepth() (QueueDepth() per deposit) on top
  // of the bare operator, and must stay flat in the group count. Every group
  // is primed with a pending event before timing starts; produced windows
  // are taken off the ready queue so memory stays bounded.
  const int64_t keys = state.range(0);
  const WindowSpec spec =
      WindowSpec::Tuples(4, 1).GroupBy({"k"}).DeleteUsedEvents(true);
  const int64_t live_before = HeapLiveBytes();
  InputPort port(nullptr, "in", spec);
  WindowedReceiver r(&port, spec);
  uint64_t seq = 0;
  for (int64_t k = 0; k < keys; ++k) {
    ++seq;
    CWF_CHECK(r.Put(KeyedEvent(k, static_cast<int64_t>(seq), seq)).ok());
  }
  uint64_t put_allocs = 0;
  for (auto _ : state) {
    ++seq;
    const CWEvent event = KeyedEvent(static_cast<int64_t>(seq) % keys,
                                     static_cast<int64_t>(seq), seq);
    const uint64_t allocs = HeapAllocs();
    CWF_CHECK(r.Put(event).ok());
    while (r.HasWindow()) {
      benchmark::DoNotOptimize(r.Get());
    }
    put_allocs += HeapAllocs() - allocs;
  }
  ReportHeap(state, put_allocs, live_before, static_cast<size_t>(keys));
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(keys) + " groups");
}
BENCHMARK(BM_WindowedReceiverPut)->Arg(10)->Arg(1000)->Arg(100000);

void BM_TimeWindowDeadlineIndex(benchmark::State& state) {
  // NextDeadline() must stay O(1) regardless of group count.
  const int64_t keys = state.range(0);
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60))
                        .GroupBy({"k"})
                        .DeleteUsedEvents(true));
  std::vector<Window> out;
  uint64_t seq = 0;
  for (int64_t k = 0; k < keys; ++k) {
    ++seq;
    CWF_CHECK(op.Put(KeyedEvent(k, 1000, seq), &out).ok());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.NextDeadline());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(keys) + " groups");
}
BENCHMARK(BM_TimeWindowDeadlineIndex)->Arg(10)->Arg(10000);

RecordPtr WideRecord(int64_t width) {
  auto rec = std::make_shared<Record>();
  for (int64_t i = 0; i < width; ++i) {
    rec->Set("field" + std::to_string(i), Value(i));
  }
  return rec;
}

void BM_RecordGetByName(benchmark::State& state) {
  // Linear scan with string comparison per access; the last field is the
  // worst case and the one group-by/join key extraction hits for tuples
  // whose key trails the payload.
  const int64_t width = state.range(0);
  RecordPtr rec = WideRecord(width);
  const std::string last = "field" + std::to_string(width - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec->Get(last));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(width) + " fields");
}
BENCHMARK(BM_RecordGetByName)->Arg(4)->Arg(8)->Arg(16);

void BM_RecordValueAtByIndex(benchmark::State& state) {
  // The schema-resolved path: RecordSchema::IndexOf once (off the hot
  // loop), then O(1) positional access per tuple.
  const int64_t width = state.range(0);
  RecordPtr rec = WideRecord(width);
  RecordSchema schema;
  for (int64_t i = 0; i < width; ++i) {
    schema.Int("field" + std::to_string(i));
  }
  const int index = schema.IndexOf("field" + std::to_string(width - 1));
  CWF_CHECK(index >= 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec->ValueAt(static_cast<size_t>(index)));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(width) + " fields");
}
BENCHMARK(BM_RecordValueAtByIndex)->Arg(4)->Arg(8)->Arg(16);

void BM_SchemaIndexOf(benchmark::State& state) {
  // The resolution step itself (hash lookup in the schema's index map), to
  // show the by-name cost that moved off the per-tuple path.
  const int64_t width = state.range(0);
  RecordSchema schema;
  for (int64_t i = 0; i < width; ++i) {
    schema.Int("field" + std::to_string(i));
  }
  const std::string last = "field" + std::to_string(width - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schema.IndexOf(last));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(width) + " fields");
}
BENCHMARK(BM_SchemaIndexOf)->Arg(4)->Arg(16);

// PushChannel deposit paths: per-tuple TryPush (one lock round-trip per
// tuple) against TryPushBatch (one lock per batch) — the contrast the
// ingest server's staging drain exploits.
void BM_PushChannelTryPush(benchmark::State& state) {
  PushChannel ch;
  uint64_t seq = 0;
  for (auto _ : state) {
    ++seq;
    benchmark::DoNotOptimize(
        ch.TryPush(Token(static_cast<int64_t>(seq)),
                   Timestamp(static_cast<int64_t>(seq))));
    if (seq % 4096 == 0) {
      ch.PopArrived(Timestamp::Max());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PushChannelTryPush);

void BM_PushChannelTryPushBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  PushChannel ch;
  std::vector<TraceEntry> entries(batch);
  uint64_t seq = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < batch; ++i) {
      ++seq;
      entries[i] = {Timestamp(static_cast<int64_t>(seq)),
                    Token(static_cast<int64_t>(seq))};
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(ch.TryPushBatch(entries));
    state.PauseTiming();
    ch.PopArrived(Timestamp::Max());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  state.SetLabel("batch=" + std::to_string(batch));
}
BENCHMARK(BM_PushChannelTryPushBatch)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace cwf
