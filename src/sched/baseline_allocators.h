// Baseline resource-allocation policies (§6.1).
//
// DrfAllocator — Dominant Resource Fairness (as in Mesos / YARN): progressive
// filling; the job with the smallest dominant share receives the next unit.
// It is work-conserving: it keeps handing out resources while any job can
// take more, regardless of whether the extra resources speed the job up.
//
// TetrisAllocator — Tetris-style: jobs with shorter estimated remaining time
// and smaller resource footprints are served first (a weighted combination of
// SRTF and packing-friendliness); allocation then fills each chosen job with
// units until its marginal benefit vanishes or a per-job cap is hit.
//
// Both baselines allocate in units of (1 parameter server + 1 worker): the
// paper fixes the PS:worker ratio at 1:1 for them.

#ifndef SRC_SCHED_BASELINE_ALLOCATORS_H_
#define SRC_SCHED_BASELINE_ALLOCATORS_H_

#include "src/sched/scheduler.h"

namespace optimus {

class DrfAllocator : public Allocator {
 public:
  using Allocator::Allocate;
  // DRF never consults job speeds; `surfaces` is accepted for interface
  // uniformity and left untouched.
  std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                   const Resources& capacity,
                                   SpeedSurfaceSet* surfaces) const override;
  const char* name() const override { return "drf"; }
};

struct TetrisAllocatorOptions {
  // Weight of the SRTF term vs the packing term in the job score (both are
  // normalized to [0, 1] before mixing). 1.0 is pure SRTF.
  double srtf_weight = 0.5;
};

class TetrisAllocator : public Allocator {
 public:
  explicit TetrisAllocator(TetrisAllocatorOptions options = {}) : options_(options) {}
  using Allocator::Allocate;
  std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                   const Resources& capacity,
                                   SpeedSurfaceSet* surfaces) const override;
  const char* name() const override { return "tetris"; }

 private:
  TetrisAllocatorOptions options_;
};

// FifoAllocator — the size-oblivious strategy §2.3 calls out (as in Spark):
// jobs are served strictly in arrival order; each job is filled to its
// speed-efficiency knee before the next job sees any resources, so a long
// job at the head of the queue blocks every short job behind it.
class FifoAllocator : public Allocator {
 public:
  using Allocator::Allocate;
  std::vector<Allocation> Allocate(const std::vector<SchedJob>& jobs,
                                   const Resources& capacity,
                                   SpeedSurfaceSet* surfaces) const override;
  const char* name() const override { return "fifo"; }
};

}  // namespace optimus

#endif  // SRC_SCHED_BASELINE_ALLOCATORS_H_
