// Workload trace import/export.
//
// Serializes a generated workload to CSV and replays external traces (e.g.
// hand-edited or derived from production logs) into JobSpecs, so experiments
// can be pinned to exact job mixes instead of seeded generators. Column
// format (header required):
//
//   job_id,model,mode,arrival_s,delta,patience,dataset_scale,max_ps,max_workers
//
// Unknown models and malformed rows fail loudly — a silently skipped job
// would corrupt every downstream comparison.

#ifndef SRC_SIM_TRACE_REPLAY_H_
#define SRC_SIM_TRACE_REPLAY_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/cluster/job.h"

namespace optimus {

// Writes the workload as CSV (container demands are uniform per workload and
// not serialized; pass them again on load).
void WriteWorkloadCsv(const std::vector<JobSpec>& jobs, std::ostream& os);

struct TraceReplayOptions {
  Resources worker_demand{2.5, 10, 0, 0.15};
  Resources ps_demand{2.5, 10, 0, 0.15};
};

// Parses a workload CSV. Returns false (and leaves `jobs` empty) on any
// malformed row: a numeric field that does not parse whole, a non-finite or
// out-of-range value, or a repeated job id. `error` receives a description
// that names the line.
bool ReadWorkloadCsv(std::istream& is, const TraceReplayOptions& options,
                     std::vector<JobSpec>* jobs, std::string* error);

}  // namespace optimus

#endif  // SRC_SIM_TRACE_REPLAY_H_
