#include "obs/epoch_sampler.hpp"

#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace camps::obs {
namespace {

TEST(EpochSampler, SamplesOnScheduleAndStampsTicks) {
  sim::Simulator sim;
  u64 reads = 0;
  EpochSampler sampler(
      sim, 100,
      [&] {
        EpochSample s;
        s.demand_reads = reads;
        return s;
      });
  sampler.start();
  // Drive some "work" alongside the sampler, then stop everything at 350.
  sim.schedule(250, sim::Site::kCoreStep, 0, [&] { reads = 42; });
  sim.run_until(350);

  ASSERT_EQ(sampler.samples().size(), 3u);
  EXPECT_EQ(sampler.samples()[0].tick, 100u);
  EXPECT_EQ(sampler.samples()[1].tick, 200u);
  EXPECT_EQ(sampler.samples()[2].tick, 300u);
  EXPECT_EQ(sampler.samples()[0].demand_reads, 0u);
  EXPECT_EQ(sampler.samples()[2].demand_reads, 42u);
}

TEST(EpochSampler, CsvHasHeaderAndOneRowPerSample) {
  std::vector<EpochSample> samples(2);
  samples[0].tick = 100;
  samples[0].row_conflicts = 3;
  samples[0].row_conflict_rate = 0.25;
  samples[1].tick = 200;
  samples[1].buffer_occupancy = 7;

  const std::string csv = EpochSampler::series_csv(samples);
  EXPECT_EQ(csv,
            "tick,row_hits,row_empties,row_conflicts,row_conflict_rate,"
            "prefetches_issued,prefetch_accuracy,buffer_hits,buffer_misses,"
            "buffer_hit_rate,buffer_occupancy,link_down_busy_ticks,"
            "link_up_busy_ticks,demand_reads,demand_writes\n"
            "100,0,0,3,0.25,0,0,0,0,0,0,0,0,0,0\n"
            "200,0,0,0,0,0,0,0,0,0,7,0,0,0,0\n");
}

TEST(EpochSampler, JsonCarriesEpochPeriodAndAllFields) {
  std::vector<EpochSample> samples(1);
  samples[0].tick = 2400;
  samples[0].buffer_hit_rate = 0.5;

  const std::string json = EpochSampler::series_json(samples, 2400);
  EXPECT_NE(json.find(R"("epoch_ticks":2400)"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("tick":2400)"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("buffer_hit_rate":0.5)"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("link_up_busy_ticks":0)"), std::string::npos) << json;
  // Rendering is a pure function of the samples.
  EXPECT_EQ(json, EpochSampler::series_json(samples, 2400));
}

}  // namespace
}  // namespace camps::obs
