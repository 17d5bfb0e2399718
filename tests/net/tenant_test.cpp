// DrrScheduler, the wire edge's fair ingress queue, driven directly:
// cheap work overtakes a greedy tenant's expensive backlog, each tenant's
// own items stay FIFO, a tenant whose queue empties comes back with zero
// credit, and a drained tenant leaves no entry behind.
#include "net/tenant.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

namespace chainckpt::net {
namespace {

constexpr std::uint64_t kGreedy = 1;
constexpr std::uint64_t kPolite = 2;

TEST(DrrScheduler, CheapItemsOvertakeAGreedyTenantsExpensiveBacklog) {
  DrrScheduler<int> drr(/*quantum=*/1.0);
  for (int i = 0; i < 5; ++i) drr.push(kGreedy, 10.0, i);
  for (int i = 0; i < 3; ++i) drr.push(kPolite, 1.0, i);
  ASSERT_EQ(drr.size(), 8u);
  // The greedy tenant needs ten visits per item; the polite one is
  // served on every visit, so its three items come out first although
  // they were queued last.
  for (int i = 0; i < 3; ++i) {
    const auto [tenant, item] = drr.pop();
    EXPECT_EQ(tenant, kPolite);
    EXPECT_EQ(item, i);
  }
  for (int i = 0; i < 5; ++i) {
    const auto [tenant, item] = drr.pop();
    EXPECT_EQ(tenant, kGreedy);
    EXPECT_EQ(item, i);
  }
  EXPECT_TRUE(drr.empty());
}

TEST(DrrScheduler, EachTenantsItemsStayFifo) {
  DrrScheduler<int> drr(/*quantum=*/2.0);
  // Three tenants, interleaved pushes at mixed prices; item values
  // ascend within each tenant.
  for (int i = 0; i < 30; ++i) {
    const std::uint64_t tenant = 10 + static_cast<std::uint64_t>(i % 3);
    drr.push(tenant, 0.5 + (i % 7), i);
  }
  std::map<std::uint64_t, int> last;
  std::size_t popped = 0;
  while (!drr.empty()) {
    const auto [tenant, item] = drr.pop();
    const auto seen = last.find(tenant);
    if (seen != last.end()) EXPECT_GT(item, seen->second) << tenant;
    last[tenant] = item;
    ++popped;
  }
  EXPECT_EQ(popped, 30u);
  EXPECT_EQ(last.size(), 3u);
}

TEST(DrrScheduler, AReturningTenantStartsFromZeroCredit) {
  DrrScheduler<char> drr(/*quantum=*/2.0);
  // Serving a cost-1 item out of a quantum of 2 leaves 1 unit of
  // credit; the queue then empties and the credit must go with it.
  drr.push(kGreedy, 1.0, 'a');
  EXPECT_EQ(drr.pop().second, 'a');
  // Both tenants now need 3 units.  Each visit grants 2, so a fresh
  // tenant is served on its second visit and the kPolite tenant, first
  // in the round, wins.  Had kGreedy kept its unit, it would reach 3 on
  // its first visit and be served first.
  drr.push(kPolite, 3.0, 'b');
  drr.push(kGreedy, 3.0, 'c');
  EXPECT_EQ(drr.pop(), std::make_pair(kPolite, 'b'));
  EXPECT_EQ(drr.pop(), std::make_pair(kGreedy, 'c'));
  EXPECT_TRUE(drr.empty());
}

TEST(DrrScheduler, DrainedTenantsLeaveNoEntry) {
  DrrScheduler<std::uint64_t> drr(/*quantum=*/1.0);
  constexpr std::uint64_t kTenants = 10000;
  for (std::uint64_t t = 0; t < kTenants; ++t) drr.push(t, 1.0, t);
  EXPECT_EQ(drr.tenants(), kTenants);
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(drr.pop(), std::make_pair(t, t));
  }
  EXPECT_TRUE(drr.empty());
  EXPECT_EQ(drr.tenants(), 0u);
  // One-shot tenants arriving one at a time never accumulate either.
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    drr.push(kTenants + t, 1.0, t);
    drr.pop();
    ASSERT_EQ(drr.tenants(), 0u);
  }
}

}  // namespace
}  // namespace chainckpt::net
