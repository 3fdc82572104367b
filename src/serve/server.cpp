#include "serve/server.h"

#include <chrono>

#include "attack/eval.h"
#include "common/check.h"

namespace rowpress::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

const std::vector<double>& latency_ms_bounds() {
  static const std::vector<double> bounds = {
      0.05, 0.1, 0.25, 0.5, 1.0,   2.5,   5.0,   10.0,
      25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0};
  return bounds;
}

InferenceServer::InferenceServer(SharedModel& model, const data::Dataset& data,
                                 ServerConfig cfg,
                                 telemetry::MetricsRegistry* metrics)
    : model_(model), data_(data), cfg_(cfg), queue_(cfg.queue_capacity) {
  RP_REQUIRE(cfg_.threads > 0, "server needs at least one serving thread");
  RP_REQUIRE(cfg_.max_batch > 0, "max_batch must be positive");
  RP_REQUIRE(data_.size() > 0, "serving dataset is empty");
  if (metrics != nullptr) {
    tel_.submitted = &metrics->counter("serve.submitted");
    tel_.shed = &metrics->counter("serve.shed");
    tel_.degraded_shed = &metrics->counter("serve.degraded_shed");
    tel_.served = &metrics->counter("serve.served");
    tel_.correct = &metrics->counter("serve.correct");
    tel_.batches = &metrics->counter("serve.batches");
    tel_.slo_violations = &metrics->counter("serve.slo_violations");
    tel_.queue_depth = &metrics->gauge("serve.queue_depth");
    tel_.version = &metrics->gauge("serve.version");
    tel_.latency_ms = &metrics->histogram("serve.latency_ms",
                                          latency_ms_bounds());
    tel_.batch_size = &metrics->histogram(
        "serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256});
    tel_.forward_ms = &metrics->histogram("serve.forward_ms",
                                          latency_ms_bounds());
  }
}

InferenceServer::~InferenceServer() { stop(); }

void InferenceServer::start() {
  RP_REQUIRE(!started_, "server already started");
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(cfg_.threads));
  for (int i = 0; i < cfg_.threads; ++i)
    workers_.emplace_back([this, i] { serve_loop(i); });
}

void InferenceServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  queue_.close();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

Request InferenceServer::make_request(int sample_index) {
  RP_REQUIRE(sample_index >= 0 && sample_index < data_.size(),
             "sample index out of range");
  Request r;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.sample_index = sample_index;
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

void InferenceServer::note_submitted() {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (tel_.submitted) tel_.submitted->add();
  if (tel_.queue_depth)
    tel_.queue_depth->set(static_cast<double>(queue_.depth()));
}

void InferenceServer::set_admit_one_in(int n) {
  RP_REQUIRE(n >= 1, "admission divisor must be >= 1");
  admit_one_in_.store(n, std::memory_order_release);
}

bool InferenceServer::admit() {
  const int n = admit_one_in_.load(std::memory_order_acquire);
  if (n <= 1) return true;
  if (admit_seq_.fetch_add(1, std::memory_order_relaxed) % n == 0)
    return true;
  shed_.fetch_add(1, std::memory_order_relaxed);
  degraded_shed_.fetch_add(1, std::memory_order_relaxed);
  if (tel_.shed) tel_.shed->add();
  if (tel_.degraded_shed) tel_.degraded_shed->add();
  return false;
}

bool InferenceServer::try_submit(int sample_index) {
  if (!admit()) return false;
  if (queue_.try_push(make_request(sample_index))) {
    note_submitted();
    return true;
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  if (tel_.shed) tel_.shed->add();
  return false;
}

bool InferenceServer::submit(int sample_index) {
  if (!admit()) return false;
  if (queue_.push(make_request(sample_index))) {
    note_submitted();
    return true;
  }
  return false;
}

void InferenceServer::drain() const {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] {
    return served_.load(std::memory_order_acquire) ==
           submitted_.load(std::memory_order_acquire);
  });
}

ServeStats InferenceServer::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.correct = correct_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.slo_violations = slo_violations_.load(std::memory_order_relaxed);
  s.last_version = last_version_.load(std::memory_order_relaxed);
  s.degraded_shed = degraded_shed_.load(std::memory_order_relaxed);
  return s;
}

void InferenceServer::serve_loop(int worker) {
  // Each serving thread owns its replica: module-internal caches make a
  // forward non-reentrant, so sharing one module across threads would race.
  ModelReplica replica(model_.spec(),
                       cfg_.replica_seed + static_cast<std::uint64_t>(worker));
  replica.set_int8(cfg_.int8);
  std::vector<int> indices;
  for (;;) {
    auto batch = queue_.pop_batch(
        cfg_.max_batch, std::chrono::microseconds(cfg_.batch_wait_us));
    if (batch.empty()) return;  // queue closed and drained
    if (tel_.queue_depth)
      tel_.queue_depth->set(static_cast<double>(queue_.depth()));

    // Pin once per batch: every request in the batch is answered by one
    // consistent model version, even if flips land mid-forward.
    const auto pinned = model_.pin();
    nn::Module& m = replica.at(*pinned);

    indices.clear();
    for (const Request& r : batch) indices.push_back(r.sample_index);
    const auto forward_start = std::chrono::steady_clock::now();
    const nn::Tensor logits = m.forward(data::gather_inputs(data_, indices));
    const auto done = std::chrono::steady_clock::now();
    const auto labels = data::gather_labels(data_, indices);

    int correct = 0;
    int violations = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const int pred = attack::argmax_row(logits, static_cast<int>(i));
      if (pred == labels[i]) ++correct;
      const double latency = ms_between(batch[i].enqueue_time, done);
      if (latency > cfg_.slo_ms) ++violations;
      if (tel_.latency_ms) tel_.latency_ms->record(latency);
    }

    batches_.fetch_add(1, std::memory_order_relaxed);
    correct_.fetch_add(correct, std::memory_order_relaxed);
    slo_violations_.fetch_add(violations, std::memory_order_relaxed);
    last_version_.store(pinned->id, std::memory_order_relaxed);
    if (tel_.batches) tel_.batches->add();
    if (tel_.correct) tel_.correct->add(correct);
    if (tel_.slo_violations) tel_.slo_violations->add(violations);
    if (tel_.served) tel_.served->add(static_cast<std::int64_t>(batch.size()));
    if (tel_.version) tel_.version->set(static_cast<double>(pinned->id));
    if (tel_.batch_size)
      tel_.batch_size->record(static_cast<double>(batch.size()));
    if (tel_.forward_ms)
      tel_.forward_ms->record(ms_between(forward_start, done));

    // served_ last, with release ordering, so drain()'s served==submitted
    // check implies all per-batch accounting above is visible.  Published
    // under done_mu_: drain() tests its predicate and then blocks while
    // holding that mutex, so an unlocked bump + notify could land between
    // the two steps and be lost — after the last batch nothing would wake
    // drain() again.
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      served_.fetch_add(static_cast<std::int64_t>(batch.size()),
                        std::memory_order_release);
    }
    done_cv_.notify_all();
  }
}

}  // namespace rowpress::serve
