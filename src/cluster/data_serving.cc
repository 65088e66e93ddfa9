#include "src/cluster/data_serving.h"

#include <algorithm>
#include <numeric>

#include "src/cluster/job.h"
#include "src/common/logging.h"

namespace optimus {

int64_t EstimateExampleBytes(const ModelSpec& spec) {
  // Keyed on dataset, following typical on-disk sizes.
  if (spec.dataset == "CIFAR10") {
    return 3 * 1024;  // 32x32x3 + label
  }
  if (spec.dataset == "ILSVRC2012-ImageNet") {
    return 110 * 1024;  // JPEG average
  }
  if (spec.dataset == "Caltech") {
    return 90 * 1024;
  }
  if (spec.dataset == "Kaggle-NDSB1") {
    return 25 * 1024;
  }
  if (spec.dataset == "LibriSpeech") {
    return 1200 * 1024;  // ~10s FLAC audio
  }
  // Text corpora (MR, text8, PTB, WMT17): order of a sentence / window.
  return 1024;
}

double ExactDatasetBytes(const ModelSpec& spec, double dataset_scale) {
  OPTIMUS_CHECK_GT(dataset_scale, 0.0);
  return static_cast<double>(spec.dataset_examples) * dataset_scale *
         static_cast<double>(EstimateExampleBytes(spec));
}

int64_t EstimateDatasetBytes(const ModelSpec& spec, double dataset_scale) {
  const double bytes = ExactDatasetBytes(spec, dataset_scale);
  OPTIMUS_CHECK_LE(bytes, static_cast<double>(kMaxDatasetBytes)) << spec.name;
  return std::max<int64_t>(1, static_cast<int64_t>(bytes));
}

DataServing::DataServing(int64_t dataset_bytes, int64_t chunk_bytes) {
  OPTIMUS_CHECK_GT(dataset_bytes, 0);
  OPTIMUS_CHECK_GT(chunk_bytes, 0);
  const int64_t chunks = std::max<int64_t>(1, (dataset_bytes + chunk_bytes - 1) / chunk_bytes);
  chunk_owner_.assign(static_cast<size_t>(chunks), -1);
}

void DataServing::AssignInitial(int num_workers) {
  OPTIMUS_CHECK_GT(num_workers, 0);
  num_workers_ = num_workers;
  for (size_t c = 0; c < chunk_owner_.size(); ++c) {
    chunk_owner_[c] = static_cast<int>(c % static_cast<size_t>(num_workers));
  }
}

int64_t DataServing::Rebalance(int new_num_workers) {
  OPTIMUS_CHECK_GT(new_num_workers, 0);
  if (num_workers_ == 0) {
    AssignInitial(new_num_workers);
    return 0;
  }
  if (new_num_workers == num_workers_) {
    return 0;
  }

  const int64_t total = num_chunks();
  const int64_t base = total / new_num_workers;
  int64_t extra = total % new_num_workers;  // first `extra` workers get base+1

  // Target count per (new) worker.
  std::vector<int64_t> target(new_num_workers, base);
  for (int w = 0; w < new_num_workers && extra > 0; ++w, --extra) {
    ++target[w];
  }

  // Current counts, restricted to workers that still exist.
  std::vector<int64_t> have(new_num_workers, 0);
  std::vector<int64_t> to_move;  // chunk ids that must find a new owner
  for (size_t c = 0; c < chunk_owner_.size(); ++c) {
    const int owner = chunk_owner_[c];
    if (owner >= 0 && owner < new_num_workers && have[owner] < target[owner]) {
      ++have[owner];
    } else {
      to_move.push_back(static_cast<int64_t>(c));
    }
  }

  // Fill under-target workers with the chunks that must move.
  int64_t moved = 0;
  int w = 0;
  for (int64_t c : to_move) {
    while (w < new_num_workers && have[w] >= target[w]) {
      ++w;
    }
    OPTIMUS_CHECK_LT(w, new_num_workers);
    if (chunk_owner_[static_cast<size_t>(c)] != w) {
      ++moved;
    }
    chunk_owner_[static_cast<size_t>(c)] = w;
    ++have[w];
  }

  num_workers_ = new_num_workers;
  return moved;
}

std::vector<int64_t> DataServing::ChunksPerWorker() const {
  std::vector<int64_t> counts(std::max(num_workers_, 1), 0);
  for (int owner : chunk_owner_) {
    if (owner >= 0 && owner < static_cast<int>(counts.size())) {
      ++counts[owner];
    }
  }
  return counts;
}

int64_t DataServing::MaxMinSpread() const {
  const std::vector<int64_t> counts = ChunksPerWorker();
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  return *mx - *mn;
}

}  // namespace optimus
