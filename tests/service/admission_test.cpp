#include "service/admission.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace chainckpt::service {
namespace {

TEST(Admission, ExponentsFollowTheAlgorithmsComplexity) {
  EXPECT_EQ(complexity_exponent(core::Algorithm::kAD), 2.0);
  EXPECT_EQ(complexity_exponent(core::Algorithm::kADVstar), 3.0);
  EXPECT_EQ(complexity_exponent(core::Algorithm::kADMVstar), 4.0);
  EXPECT_EQ(complexity_exponent(core::Algorithm::kADMV), 6.0);
  EXPECT_EQ(complexity_exponent(core::Algorithm::kPeriodic), 2.0);
  EXPECT_EQ(complexity_exponent(core::Algorithm::kDaly), 2.0);
}

TEST(Admission, PriceGrowsWithChainLengthAndClass) {
  EXPECT_DOUBLE_EQ(price_units(core::Algorithm::kADVstar, 100), 1.0);
  EXPECT_DOUBLE_EQ(price_units(core::Algorithm::kADVstar, 400), 64.0);
  // At equal n, a heavier class always prices higher.
  for (std::size_t n : {10, 50, 200}) {
    EXPECT_LT(price_units(core::Algorithm::kAD, n),
              price_units(core::Algorithm::kADVstar, n));
    EXPECT_LT(price_units(core::Algorithm::kADVstar, n),
              price_units(core::Algorithm::kADMVstar, n));
    EXPECT_LT(price_units(core::Algorithm::kADMVstar, n),
              price_units(core::Algorithm::kADMV, n));
  }
  // The O(n^6) blow-up the budget exists for: ADMV at n = 100 outprices
  // ADV* at n = 400 by four orders of magnitude.
  EXPECT_GT(price_units(core::Algorithm::kADMV, 100),
            1e4 * price_units(core::Algorithm::kADVstar, 400));
}

TEST(Admission, AssessRejectsOverCapAndFullQueue) {
  AdmissionConfig config;
  config.max_job_units = price_units(core::Algorithm::kADMV, 50);
  config.queue_capacity = 2;
  const AdmissionController controller(config);

  const auto over_cap =
      controller.assess(core::Algorithm::kADMV, 120, 0, 0.0);
  EXPECT_EQ(over_cap.decision, AdmissionDecision::kReject);
  const auto under_cap =
      controller.assess(core::Algorithm::kADMV, 50, 0, 0.0);
  EXPECT_EQ(under_cap.decision, AdmissionDecision::kAdmit);
  const auto full_queue =
      controller.assess(core::Algorithm::kAD, 10, 2, 0.0);
  EXPECT_EQ(full_queue.decision, AdmissionDecision::kReject);
}

TEST(Admission, BudgetSeparatesAdmitFromQueue) {
  AdmissionConfig config;
  config.budget_units = 10.0;
  const AdmissionController controller(config);
  const double cost = price_units(core::Algorithm::kADVstar, 150);
  ASSERT_LT(cost, 10.0);
  EXPECT_EQ(controller.assess(core::Algorithm::kADVstar, 150, 0, 0.0)
                .decision,
            AdmissionDecision::kAdmit);
  EXPECT_EQ(controller.assess(core::Algorithm::kADVstar, 150, 0, 9.0)
                .decision,
            AdmissionDecision::kQueue);
  EXPECT_TRUE(controller.fits(cost, 10.0 - cost));
  EXPECT_FALSE(controller.fits(cost, 10.0));
  // Unlimited budget admits anything.
  const AdmissionController open{AdmissionConfig{}};
  EXPECT_TRUE(open.fits(1e12, 1e12));
}

TEST(Admission, ColdStartAdmitsAnyFutureDeadline) {
  // First-job cold start: with zero completed jobs the class has no
  // estimate, so even an absurd deadline on the heaviest class cannot be
  // called infeasible -- it must be admitted and left to expire
  // cooperatively if the guess was wrong.
  const AdmissionController controller;
  const auto verdict = controller.assess(core::Algorithm::kADMV, 100, 0, 0.0,
                                         std::chrono::milliseconds(1));
  EXPECT_NE(verdict.decision, AdmissionDecision::kReject);
  EXPECT_EQ(verdict.reject, RejectReason::kNone);
  EXPECT_LT(verdict.estimated_seconds, 0.0);  // kUncalibrated
}

TEST(Admission, DeadlineAlreadyPassedAtSubmitIsRejectedEvenCold) {
  // The submit-time race: a deadline computed against an earlier clock
  // can be negative by the time the submission lands.
  const AdmissionController controller;
  const auto verdict = controller.assess(core::Algorithm::kADVstar, 50, 0,
                                         0.0, std::chrono::milliseconds(-3));
  EXPECT_EQ(verdict.decision, AdmissionDecision::kReject);
  EXPECT_EQ(verdict.reject, RejectReason::kDeadlineInfeasible);
  // ...and even with the feasibility screen disabled: admitting a
  // negative deadline would run the job with no deadline at all (only
  // positive deadlines arm the token).
  AdmissionConfig screen_off;
  screen_off.deadline_headroom = 0.0;
  const AdmissionController off(screen_off);
  EXPECT_EQ(off.assess(core::Algorithm::kADVstar, 50, 0, 0.0,
                       std::chrono::milliseconds(-3))
                .reject,
            RejectReason::kDeadlineInfeasible);
}

TEST(Admission, CalibratedEstimateRejectsInfeasibleDeadlines) {
  AdmissionController controller;
  // Calibrate ADV* at 4 units/second.
  controller.observe(core::Algorithm::kADVstar, 8.0, 2.0);
  const double cost = price_units(core::Algorithm::kADVstar, 200);
  const double seconds = cost / 4.0;
  // A deadline below the estimate rejects with the estimate surfaced...
  const auto infeasible = controller.assess(
      core::Algorithm::kADVstar, 200, 0, 0.0,
      std::chrono::milliseconds(
          static_cast<int>(seconds * 1000.0 / 2.0)));
  EXPECT_EQ(infeasible.decision, AdmissionDecision::kReject);
  EXPECT_EQ(infeasible.reject, RejectReason::kDeadlineInfeasible);
  EXPECT_DOUBLE_EQ(infeasible.estimated_seconds, seconds);
  // ...a deadline above it admits...
  const auto feasible = controller.assess(
      core::Algorithm::kADVstar, 200, 0, 0.0,
      std::chrono::milliseconds(
          static_cast<int>(seconds * 1000.0 * 2.0)));
  EXPECT_EQ(feasible.decision, AdmissionDecision::kAdmit);
  // ...and calibration is per class: the same deadline on the still-cold
  // ADMV* class admits.
  const auto other_class = controller.assess(
      core::Algorithm::kADMVstar, 200, 0, 0.0,
      std::chrono::milliseconds(1));
  EXPECT_EQ(other_class.decision, AdmissionDecision::kAdmit);
}

TEST(Admission, DeadlineHeadroomScalesTheScreen) {
  // 4 units/second again; a deadline 1.5x the raw estimate is feasible
  // at headroom 1 but infeasible at headroom 2.
  AdmissionConfig strict;
  strict.deadline_headroom = 2.0;
  AdmissionController loose_ctl;
  AdmissionController strict_ctl(strict);
  loose_ctl.observe(core::Algorithm::kADVstar, 8.0, 2.0);
  strict_ctl.observe(core::Algorithm::kADVstar, 8.0, 2.0);
  const double seconds = price_units(core::Algorithm::kADVstar, 200) / 4.0;
  const auto deadline = std::chrono::milliseconds(
      static_cast<int>(seconds * 1500.0));
  EXPECT_EQ(loose_ctl.assess(core::Algorithm::kADVstar, 200, 0, 0.0, deadline)
                .decision,
            AdmissionDecision::kAdmit);
  EXPECT_EQ(strict_ctl
                .assess(core::Algorithm::kADVstar, 200, 0, 0.0, deadline)
                .reject,
            RejectReason::kDeadlineInfeasible);
  // Headroom 0 turns the screen off: even a 1 ms deadline on a
  // calibrated slow class admits.
  AdmissionConfig off;
  off.deadline_headroom = 0.0;
  AdmissionController off_ctl(off);
  off_ctl.observe(core::Algorithm::kADVstar, 8.0, 2.0);
  EXPECT_EQ(off_ctl
                .assess(core::Algorithm::kADVstar, 400, 0, 0.0,
                        std::chrono::milliseconds(1))
                .decision,
            AdmissionDecision::kAdmit);
}

TEST(Admission, EwmaTracksOvershootAndUndershoot) {
  AdmissionController controller;
  // First sample seeds the EWMA outright: 4 units/second.
  controller.observe(core::Algorithm::kADVstar, 8.0, 2.0);
  const double cost = price_units(core::Algorithm::kADVstar, 200);
  EXPECT_DOUBLE_EQ(controller.estimate(core::Algorithm::kADVstar, 200).seconds,
                   cost / 4.0);
  // Overshoot: a sample at 8 units/second pulls the rate to
  // 0.75 * 4 + 0.25 * 8 = 5 -- between old and new, nearer the old.
  controller.observe(core::Algorithm::kADVstar, 16.0, 2.0);
  EXPECT_DOUBLE_EQ(controller.estimate(core::Algorithm::kADVstar, 200).seconds,
                   cost / 5.0);
  // Undershoot: a crawl at 1 unit/second drags it to 0.75 * 5 + 0.25 = 4.
  controller.observe(core::Algorithm::kADVstar, 2.0, 2.0);
  EXPECT_DOUBLE_EQ(controller.estimate(core::Algorithm::kADVstar, 200).seconds,
                   cost / 4.0);
  // Degenerate samples (zero seconds, zero cost) must not poison the
  // rate -- the cold-start divide-by-zero chaos case.
  controller.observe(core::Algorithm::kADVstar, 0.0, 0.0);
  controller.observe(core::Algorithm::kADVstar, 8.0, 0.0);
  EXPECT_DOUBLE_EQ(controller.estimate(core::Algorithm::kADVstar, 200).seconds,
                   cost / 4.0);
}

TEST(Admission, CalibrationTurnsUnitsIntoSeconds) {
  AdmissionController controller;
  const auto cold = controller.estimate(core::Algorithm::kADVstar, 200);
  EXPECT_DOUBLE_EQ(cold.cost_units,
                   price_units(core::Algorithm::kADVstar, 200));
  EXPECT_LT(cold.seconds, 0.0);  // kUncalibrated before any observation

  // One observed job: 8 units in 2 seconds -> 4 units/second.
  controller.observe(core::Algorithm::kADVstar, 8.0, 2.0);
  const auto warm = controller.estimate(core::Algorithm::kADVstar, 200);
  EXPECT_DOUBLE_EQ(warm.seconds, warm.cost_units / 4.0);

  // Calibration is per class: ADMV stays uncalibrated.
  EXPECT_LT(controller.estimate(core::Algorithm::kADMV, 50).seconds, 0.0);
}

}  // namespace
}  // namespace chainckpt::service
