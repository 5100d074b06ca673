// End-to-end service behavior on the happy path and its edges: round
// trips for every op kind, exactly-once accounting, compile-time
// rejections (out-of-range slots included, on both scheduler paths),
// virtual-deadline expiry, EDF ordering, admission-full delivery, the
// background scheduler parking and waking under concurrent producers,
// env-driven configuration, and the workload generator itself.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/workload.hpp"
#include "support/scoped_env.hpp"

namespace simra::serve {
namespace {

using simra::testing::ScopedEnv;

ServiceConfig small_config(std::size_t shards = 2) {
  ServiceConfig config;
  config.shards = shards;
  config.max_batch = 8;
  config.queue_capacity = 256;
  config.max_in_flight = 256;
  config.tenant_quota = 256;
  config.seed = 0x5e12;
  return config;
}

TEST(Service, MixedWorkloadRoundTripsEveryOpKind) {
  Service service(small_config());
  const std::size_t columns = service.config().profiles.front().geometry.columns;

  WorkloadSpec spec;
  spec.columns = columns;
  spec.rows = 32;
  spec.seed_sources = true;
  spec.read_back = true;
  // Force all four ops to appear in a small stream.
  spec.weight_rowclone = 4;
  spec.weight_init = 2;
  spec.weight_copy = 2;
  spec.weight_majx = 2;

  constexpr std::size_t kRequests = 40;
  std::vector<std::unique_ptr<Ticket>> tickets;
  std::vector<OpKind> ops;
  for (std::size_t i = 0; i < kRequests; ++i) {
    Request request = make_request(spec, i);
    ops.push_back(request.op);
    tickets.push_back(std::make_unique<Ticket>());
    ASSERT_TRUE(service.submit(std::move(request), tickets.back().get()));
  }
  service.drain();

  bool saw[4] = {false, false, false, false};
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(tickets[i]->ready()) << "request " << i << " never delivered";
    const Response response = tickets[i]->wait();
    EXPECT_EQ(response.status, Status::kOk) << response.error;
    EXPECT_GT(response.id, 0u);
    EXPECT_GT(response.virtual_ns, 0.0);
    saw[static_cast<std::size_t>(ops[i])] = true;
    // Non-MAJX ops were submitted with read_back, MAJX always returns the
    // row buffer — so every response carries a full row.
    EXPECT_EQ(response.result.size(), columns);
  }
  for (bool kind_seen : saw) EXPECT_TRUE(kind_seen);

  const ServeStats& stats = service.stats();
  EXPECT_EQ(stats.admitted.load(), kRequests);
  EXPECT_EQ(stats.ok, kRequests);
  EXPECT_EQ(stats.delivered(), kRequests);
  EXPECT_EQ(stats.fused_requests, kRequests);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.batch_attempts, stats.batches);  // no faults injected.
  EXPECT_EQ(service.healthy_shards(), service.shard_count());
  EXPECT_NE(stats.summary(service.shard_count()).find("40 ok"),
            std::string::npos);
}

TEST(Service, RowCloneReadBackReturnsTheSeededPattern) {
  ServiceConfig config = small_config(1);
  Service service(config);
  const std::size_t columns = service.config().profiles.front().geometry.columns;

  Request request;
  request.op = OpKind::kRowClone;
  request.src = 3;
  request.dst = 9;
  request.read_back = true;
  BitVec pattern(columns);
  pattern.fill_byte(0xC3);
  request.operands.push_back(pattern);

  Ticket ticket;
  ASSERT_TRUE(service.submit(std::move(request), &ticket));
  service.drain();
  const Response response = ticket.wait();
  ASSERT_EQ(response.status, Status::kOk) << response.error;
  // RowClone is exact at these timings: the copy returns the seed.
  EXPECT_TRUE(response.result == pattern);
}

TEST(Service, InvalidRequestsAreRejectedWithAReason) {
  Service service(small_config(1));

  Request request;
  request.op = OpKind::kRowClone;
  request.src = 1;
  request.dst = 1;  // src == dst is invalid.
  Ticket ticket;
  ASSERT_TRUE(service.submit(std::move(request), &ticket));
  service.drain();

  const Response response = ticket.wait();
  EXPECT_EQ(response.status, Status::kRejected);
  EXPECT_EQ(response.error, "rowclone source equals destination");
  EXPECT_EQ(service.stats().rejected_invalid, 1u);
  EXPECT_EQ(service.stats().delivered(), 1u);
}

/// One request per op kind × {bank, subarray} naming a slot outside the
/// chip, otherwise well-formed, with the reason validate() gives for it.
struct OutOfRange {
  Request request;
  std::string reason;
};

std::vector<OutOfRange> out_of_range_requests(const dram::Geometry& geom) {
  std::vector<OutOfRange> cases;
  for (const OpKind op : {OpKind::kRowClone, OpKind::kMultiRowCopy,
                          OpKind::kBulkInit, OpKind::kMajx}) {
    for (const bool bad_bank : {true, false}) {
      Request request;
      request.op = op;
      request.src = 0;
      request.dst = 1;
      const std::size_t operands =
          op == OpKind::kMajx ? 3 : (op == OpKind::kBulkInit ? 1 : 0);
      for (std::size_t k = 0; k < operands; ++k)
        request.operands.emplace_back(geom.columns);
      if (bad_bank)
        request.bank = static_cast<dram::BankId>(geom.banks);
      else
        request.sa = static_cast<dram::SubarrayId>(geom.subarrays_per_bank());
      cases.push_back({std::move(request), bad_bank ? "bank out of range"
                                                    : "subarray out of range"});
    }
  }
  return cases;
}

/// Submits every out-of-range case plus one valid request, has the
/// service answer them through drain() or the background scheduler, and
/// checks each is rejected by name while the valid one is served and the
/// accounting closes.
void expect_out_of_range_rejected(bool background) {
  Service service(small_config());
  if (background) service.start();
  const dram::Geometry& geom = service.config().profiles.front().geometry;
  std::vector<OutOfRange> cases = out_of_range_requests(geom);
  std::vector<std::unique_ptr<Ticket>> tickets;
  for (OutOfRange& c : cases) {
    tickets.push_back(std::make_unique<Ticket>());
    ASSERT_TRUE(service.submit(c.request, tickets.back().get()));
  }
  Request valid;
  valid.op = OpKind::kRowClone;
  valid.src = 2;
  valid.dst = 5;
  Ticket valid_ticket;
  ASSERT_TRUE(service.submit(std::move(valid), &valid_ticket));
  Response valid_response;
  if (background) {
    // Let the scheduler loop, not stop()'s final drain, answer them. A
    // round that threw would answer them kFailed, and stop() rethrow.
    valid_response = valid_ticket.wait();
    service.stop();
  } else {
    service.drain();
    valid_response = valid_ticket.wait();
  }

  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(tickets[i]->ready()) << "case " << i << " never answered";
    const Response response = tickets[i]->wait();
    EXPECT_EQ(response.status, Status::kRejected)
        << to_string(cases[i].request.op) << " " << cases[i].reason;
    EXPECT_EQ(response.error, cases[i].reason);
  }
  EXPECT_EQ(valid_response.status, Status::kOk);
  const ServeStats& stats = service.stats();
  EXPECT_EQ(stats.rejected_invalid, cases.size());
  EXPECT_EQ(stats.ok + stats.expired + stats.failed + stats.rejected_invalid,
            stats.admitted.load());
  EXPECT_EQ(service.healthy_shards(), service.shard_count());
}

TEST(Service, OutOfRangeSlotsAreRejectedByDrain) {
  expect_out_of_range_rejected(/*background=*/false);
}

TEST(Service, OutOfRangeSlotsAreRejectedByTheBackgroundScheduler) {
  expect_out_of_range_rejected(/*background=*/true);
}

/// A fleet whose group size is not a power of two passes the constructor,
/// but steering throws the first time a request needs a group: an error
/// that escapes Shard::execute, standing in for any defect there.
ServiceConfig throwing_config() {
  ServiceConfig config = small_config();
  config.group_size = 3;
  return config;
}

constexpr const char* kThrowingConfigError =
    "group size must be a power of two";

Request rowclone(dram::RowAddr src) {
  Request request;
  request.op = OpKind::kRowClone;
  request.src = src;
  request.dst = src + 16;
  return request;
}

Request majx3(const dram::Geometry& geom) {
  Request request;
  request.op = OpKind::kMajx;
  for (int k = 0; k < 3; ++k) request.operands.emplace_back(geom.columns);
  return request;
}

TEST(Service, AThrowingRoundIsAnsweredBeforeDrainRethrows) {
  Service service(throwing_config());
  const dram::Geometry& geom = service.config().profiles.front().geometry;
  Ticket clone_ticket, majx_ticket;
  ASSERT_TRUE(service.submit(rowclone(0), &clone_ticket));
  ASSERT_TRUE(service.submit(majx3(geom), &majx_ticket));
  EXPECT_THROW(service.drain(), std::invalid_argument);

  // Both rode the round that threw, so both are failed with its text.
  for (Ticket* ticket : {&clone_ticket, &majx_ticket}) {
    ASSERT_TRUE(ticket->ready());
    const Response response = ticket->wait();
    EXPECT_EQ(response.status, Status::kFailed);
    EXPECT_EQ(response.error, kThrowingConfigError);
  }
  const ServeStats& stats = service.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.delivered(), stats.admitted.load());
}

TEST(Service, ASchedulerErrorLeavesNoTicketUnanswered) {
  // Clients block in wait(), as bench_serve's do, and call stop() only
  // once every ticket returned: a request left unanswered hangs here.
  Service service(throwing_config());
  const dram::Geometry& geom = service.config().profiles.front().geometry;
  service.start();
  std::vector<std::unique_ptr<Ticket>> tickets;
  const auto submit = [&](Request request) {
    tickets.push_back(std::make_unique<Ticket>());
    EXPECT_TRUE(service.submit(std::move(request), tickets.back().get()));
    return tickets.back().get();
  };
  for (dram::RowAddr row = 0; row < 4; ++row) submit(rowclone(row));
  Ticket* const majx = submit(majx3(geom));
  for (dram::RowAddr row = 4; row < 8; ++row) submit(rowclone(row));

  const Response majx_response = majx->wait();
  EXPECT_EQ(majx_response.status, Status::kFailed);
  EXPECT_EQ(majx_response.error, kThrowingConfigError);
  // The scheduler has stopped executing; a later submit is still answered.
  Ticket* const late = submit(rowclone(9));
  const Response late_response = late->wait();
  EXPECT_EQ(late_response.status, Status::kFailed);
  EXPECT_EQ(late_response.error, kThrowingConfigError);
  for (const auto& ticket : tickets) {
    if (ticket.get() == majx || ticket.get() == late) continue;
    const Response response = ticket->wait();
    EXPECT_TRUE(response.status == Status::kOk ||
                response.status == Status::kFailed)
        << to_string(response.status);
  }
  EXPECT_THROW(service.stop(), std::invalid_argument);

  const ServeStats& stats = service.stats();
  EXPECT_EQ(stats.admitted.load(), tickets.size());
  EXPECT_EQ(stats.ok + stats.failed, tickets.size());
  EXPECT_GE(stats.failed, 2u);
  service.stop();  // the error was collected; a second stop() is a no-op.
}

TEST(Service, VirtualDeadlinesExpireInsteadOfDispatching) {
  Service service(small_config(1));

  // Advance the shard's virtual clock past 1 us with some real work.
  for (int i = 0; i < 8; ++i) {
    Request request;
    request.op = OpKind::kRowClone;
    request.src = static_cast<dram::RowAddr>(i);
    request.dst = static_cast<dram::RowAddr>(i + 16);
    Ticket ticket;
    ASSERT_TRUE(service.submit(std::move(request), &ticket));
    service.drain();
    ASSERT_EQ(ticket.wait().status, Status::kOk);
  }
  ASSERT_GT(service.shard(0).clock_ns(), 1.0);

  Request late;
  late.op = OpKind::kRowClone;
  late.src = 0;
  late.dst = 1;
  late.deadline_ns = 1.0;  // already in the shard's past.
  Ticket ticket;
  ASSERT_TRUE(service.submit(std::move(late), &ticket));
  service.drain();
  const Response response = ticket.wait();
  EXPECT_EQ(response.status, Status::kExpired);
  EXPECT_EQ(service.stats().expired, 1u);
}

TEST(Service, DeadlinedRequestsDispatchEarliestDeadlineFirst) {
  Service service(small_config(1));

  // Submitted in the "wrong" order: the no-deadline request first, then a
  // far-future deadline. EDF must run the deadlined one earlier on the
  // shard's virtual timeline.
  Request relaxed;
  relaxed.op = OpKind::kRowClone;
  relaxed.src = 0;
  relaxed.dst = 1;
  Request urgent;
  urgent.op = OpKind::kRowClone;
  urgent.src = 2;
  urgent.dst = 3;
  urgent.deadline_ns = 1e9;

  Ticket relaxed_ticket;
  Ticket urgent_ticket;
  ASSERT_TRUE(service.submit(std::move(relaxed), &relaxed_ticket));
  ASSERT_TRUE(service.submit(std::move(urgent), &urgent_ticket));
  service.drain();

  const Response relaxed_response = relaxed_ticket.wait();
  const Response urgent_response = urgent_ticket.wait();
  ASSERT_EQ(relaxed_response.status, Status::kOk);
  ASSERT_EQ(urgent_response.status, Status::kOk);
  EXPECT_LT(urgent_response.virtual_ns, relaxed_response.virtual_ns);
}

TEST(Service, AdmissionFullDeliversRejectionsImmediately) {
  ServiceConfig config = small_config(1);
  config.max_in_flight = 2;
  Service service(config);

  Request request;
  request.op = OpKind::kRowClone;
  request.src = 0;
  request.dst = 1;
  Ticket first;
  Ticket second;
  Ticket third;
  ASSERT_TRUE(service.submit(request, &first));
  ASSERT_TRUE(service.submit(request, &second));
  EXPECT_FALSE(service.submit(request, &third));
  // The rejection is delivered synchronously, before any pump.
  ASSERT_TRUE(third.ready());
  const Response rejected = third.wait();
  EXPECT_EQ(rejected.status, Status::kRejected);
  EXPECT_EQ(rejected.error, "queue_full");
  EXPECT_EQ(service.stats().rejected_queue_full.load(), 1u);

  service.drain();
  EXPECT_EQ(first.wait().status, Status::kOk);
  EXPECT_EQ(second.wait().status, Status::kOk);
  // Admission released: the capacity is usable again.
  Ticket fourth;
  EXPECT_TRUE(service.submit(request, &fourth));
  service.drain();
  EXPECT_EQ(fourth.wait().status, Status::kOk);
}

TEST(Service, BackgroundSchedulerServesAsynchronousClients) {
  Service service(small_config());
  service.start();
  std::vector<std::unique_ptr<Ticket>> tickets;
  Request request;
  request.op = OpKind::kRowClone;
  request.src = 4;
  request.dst = 7;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(std::make_unique<Ticket>());
    ASSERT_TRUE(service.submit(request, tickets.back().get()));
  }
  for (auto& ticket : tickets)
    EXPECT_EQ(ticket->wait().status, Status::kOk);
  service.stop();
  EXPECT_EQ(service.stats().ok, 16u);
}

TEST(Service, ParkingSchedulerAnswersConcurrentProducersExactlyOnce) {
  // Producers submit in bursts with gaps, so the background scheduler
  // parks and is woken over and over, while this thread restarts it
  // under them. Requests that land between a stop() and the next start()
  // wait in the queue for the next loop. A lost wake-up hangs here.
  ServiceConfig config = small_config();
  config.queue_capacity = 2048;
  config.max_in_flight = 2048;
  config.tenant_quota = 2048;
  Service service(config);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 300;
  std::vector<std::unique_ptr<Ticket>> tickets(kProducers * kPerProducer);
  for (auto& ticket : tickets) ticket = std::make_unique<Ticket>();
  std::vector<char> waited(tickets.size(), 0);  // reply taken by a producer
  std::atomic<int> finished{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Request request;
        request.op = OpKind::kRowClone;
        request.tenant = static_cast<std::uint32_t>(p);
        request.src = static_cast<dram::RowAddr>(i % 16);
        request.dst = static_cast<dram::RowAddr>(16 + i % 16);
        const std::size_t k = static_cast<std::size_t>(p * kPerProducer + i);
        EXPECT_TRUE(service.submit(std::move(request), tickets[k].get()));
        // Odd producers block on some replies; even ones fire bursts.
        if (p % 2 == 1 && i % 3 == 0) {
          EXPECT_EQ(tickets[k]->wait().status, Status::kOk);
          waited[k] = 1;
        }
        if (i % 10 == 9)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  while (finished.load(std::memory_order_acquire) < kProducers) {
    service.start();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    service.stop();
  }
  for (std::thread& t : producers) t.join();
  service.start();
  service.stop();

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i]->ready()) << "ticket " << i << " never answered";
    if (waited[i] == 0) {
      EXPECT_EQ(tickets[i]->wait().status, Status::kOk) << "ticket " << i;
    }
  }
  // Every ticket answered at least once and the deliveries sum to the
  // tickets, so none was answered twice.
  const ServeStats& stats = service.stats();
  EXPECT_EQ(stats.admitted.load(), tickets.size());
  EXPECT_EQ(stats.delivered(), tickets.size());
  EXPECT_EQ(stats.ok, tickets.size());
}

TEST(Service, RejectsDegenerateAndMixedGeometryFleets) {
  ServiceConfig zero = small_config(1);
  zero.shards = 0;
  EXPECT_THROW(Service{zero}, std::invalid_argument);

  ServiceConfig mixed = small_config(2);
  mixed.profiles = {dram::VendorProfile::hynix_m(),
                    dram::VendorProfile::micron_e()};
  EXPECT_THROW(Service{mixed}, std::invalid_argument);
}

TEST(ServiceConfig, FromEnvReadsTheServeSurface) {
  ScopedEnv shards("SIMRA_SERVE_SHARDS", "3");
  ScopedEnv batch("SIMRA_SERVE_BATCH", "16");
  ScopedEnv quota("SIMRA_SERVE_QUOTA", "99");
  ScopedEnv steer("SIMRA_SERVE_STEER", "0");
  ScopedEnv vendors("SIMRA_SERVE_VENDORS", "hynix_a,hynix_m");
  const ServiceConfig config = ServiceConfig::from_env();
  EXPECT_EQ(config.shards, 3u);
  EXPECT_EQ(config.max_batch, 16u);
  EXPECT_EQ(config.tenant_quota, 99u);
  EXPECT_FALSE(config.steer_groups);
  ASSERT_EQ(config.profiles.size(), 2u);
  EXPECT_EQ(config.profiles[0].die_revision,
            dram::VendorProfile::hynix_a().die_revision);

  ScopedEnv bogus("SIMRA_SERVE_VENDORS", "unobtanium");
  EXPECT_THROW(ServiceConfig::from_env(), std::invalid_argument);
}

TEST(Workload, MixStringsParseAndRoundTrip) {
  WorkloadSpec spec;
  EXPECT_EQ(apply_mix(spec, "rowclone:1,init:2,copy:3,majx:4"),
            "rowclone:1,init:2,copy:3,majx:4");
  EXPECT_EQ(spec.weight_majx, 4u);
  EXPECT_EQ(mix_string(spec), "rowclone:1,init:2,copy:3,majx:4");

  EXPECT_THROW(apply_mix(spec, "rowclone"), std::invalid_argument);
  EXPECT_THROW(apply_mix(spec, "warp:1"), std::invalid_argument);
  EXPECT_THROW(apply_mix(spec, "rowclone:x"), std::invalid_argument);
  WorkloadSpec zero;
  EXPECT_THROW(apply_mix(zero, "rowclone:0,init:0,copy:0,majx:0"),
               std::invalid_argument);
}

TEST(Workload, RequestsAreAPureFunctionOfSpecAndIndex) {
  WorkloadSpec spec;
  spec.seed_sources = true;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const Request a = make_request(spec, i);
    const Request b = make_request(spec, i);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    ASSERT_EQ(a.operands.size(), b.operands.size());
    for (std::size_t k = 0; k < a.operands.size(); ++k)
      EXPECT_TRUE(a.operands[k] == b.operands[k]);
    if (a.op == OpKind::kRowClone) {
      EXPECT_NE(a.src, a.dst);
    }
    if (a.op == OpKind::kMajx) {
      EXPECT_EQ(a.operands.size(), spec.majx_x);
    }
  }
}

}  // namespace
}  // namespace simra::serve
