#include <sstream>

#include <gtest/gtest.h>

#include "src/sim/trace.h"

namespace optimus {
namespace {

TEST(EventTraceTest, RecordsInOrder) {
  EventTrace trace;
  trace.Record(0.0, SimEventType::kArrival, 1);
  trace.Record(600.0, SimEventType::kScheduled, 1, 2, 3);
  trace.Record(1200.0, SimEventType::kCompleted, 1, 2, 3, "epochs=7");
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.events()[1].num_ps, 2);
  EXPECT_EQ(trace.events()[1].num_workers, 3);
  EXPECT_EQ(trace.events()[2].detail, "epochs=7");
}

TEST(EventTraceTest, ForJobFilters) {
  EventTrace trace;
  trace.Record(0.0, SimEventType::kArrival, 1);
  trace.Record(0.0, SimEventType::kArrival, 2);
  trace.Record(600.0, SimEventType::kScheduled, 1);
  const auto events = trace.ForJob(1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, SimEventType::kArrival);
  EXPECT_EQ(events[1].type, SimEventType::kScheduled);
}

TEST(EventTraceTest, CountByType) {
  EventTrace trace;
  trace.Record(0.0, SimEventType::kArrival, 1);
  trace.Record(0.0, SimEventType::kArrival, 2);
  trace.Record(600.0, SimEventType::kScaled, 1);
  const auto counts = trace.CountByType();
  EXPECT_EQ(counts.at(SimEventType::kArrival), 2);
  EXPECT_EQ(counts.at(SimEventType::kScaled), 1);
  EXPECT_EQ(counts.count(SimEventType::kCompleted), 0u);
}

TEST(EventTraceTest, CsvFormat) {
  EventTrace trace;
  trace.Record(600.0, SimEventType::kScheduled, 4, 2, 3, "first");
  std::ostringstream os;
  trace.WriteCsv(os);
  EXPECT_EQ(os.str(),
            "time_s,event,job,ps,workers,detail\n"
            "600,scheduled,4,2,3,first\n");
}

TEST(EventTraceTest, AllTypeNamesDistinct) {
  std::set<std::string> names;
  for (int t = 0; t < kNumSimEventTypes; ++t) {
    names.insert(SimEventTypeName(static_cast<SimEventType>(t)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumSimEventTypes));
}

TEST(TraceHashOnlyTest, HashModeStoresNothing) {
  EventTrace trace;
  trace.set_hash_only(true);
  trace.Record(1.0, SimEventType::kArrival, 7);
  trace.Record(2.0, SimEventType::kCompleted, 7, 1, 2,
               EventDetail(EventDetailKind::kEpochs, 11));
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_TRUE(trace.events().empty());
  EXPECT_NE(trace.digest(), 14695981039346656037ULL);  // moved off the basis

  EventTrace stored;
  stored.Record(1.0, SimEventType::kArrival, 7);
  stored.Record(2.0, SimEventType::kCompleted, 7, 1, 2,
                EventDetail(EventDetailKind::kEpochs, 11));
  EXPECT_EQ(stored.digest(), trace.digest());
  EXPECT_EQ(stored.events().size(), 2u);
}

}  // namespace
}  // namespace optimus
