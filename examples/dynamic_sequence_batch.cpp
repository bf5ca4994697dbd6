// Varying sequence lengths in a batch (§2.1 Fig. 2c; BERT/OPT scenarios).
//
// A padded batch is a dynamically row-sparse tensor — and the serving engine's
// continuous ragged batching is the micro-tile permutation applied to the
// batch axis: mixed-length requests SRead-gather into one dense tile of
// exactly sum(t_i) rows, replay a shared plan with one attention segment per
// request (each request attends only to itself, at sum(t_i^2) score entries),
// and SWrite-scatter back out. The example serves a mixed-length request
// stream end-to-end twice — 1:1 and batched — and exits 1 unless every
// request ends kOk, the outputs are bitwise identical, and the batched engine
// computed no padding row (its replayed row counts sum to the requests'
// rows), against pad-to-max's waste. Either way each serving stream holds one
// stack stream, compiled once at its capacity and replayed at every request's
// or batch's row count.
#include <cstdio>
#include <cstring>

#include "pit/runtime/serving_engine.h"
#include "pit/workloads/seq_len.h"

int main() {
  using namespace pit;
  std::printf("PIT example: continuous ragged batching (padding as sparsity)\n\n");

  Rng rng(21);
  const auto lens = SampleBatchLens(DatasetSeqLens("mnli"), 24, rng);
  std::printf("request lengths:");
  for (int64_t l : lens) {
    std::printf(" %lld", static_cast<long long>(l));
  }
  std::printf("\npad-to-max would compute %lld rows per request -> %.1f%% padding waste\n\n",
              static_cast<long long>(MaxLen(lens)), PaddingWaste(lens) * 100.0);

  const int64_t hidden = 32;
  Rng wr(22);
  PlannedTransformerStack stack(2, hidden, 4, 96, wr);
  std::vector<ServeRequest> requests;
  for (int64_t len : lens) {
    ServeRequest req;
    req.x = Tensor::Random({len, hidden}, rng);
    requests.push_back(std::move(req));
  }

  // 1:1 serving: each request replays at its exact length.
  ServingEngineOptions unbatched_opts;
  unbatched_opts.num_streams = 2;
  unbatched_opts.batch_window = 1;
  ServingEngine unbatched(stack, unbatched_opts);
  const std::vector<ServeOutcome> expected = unbatched.ServeWithStatus(requests);

  // Ragged batching: up to 8 requests / 256 token rows per packed forward,
  // each replayed at exactly its summed rows.
  ServingEngineOptions batched_opts;
  batched_opts.num_streams = 2;
  batched_opts.batch_window = 8;
  batched_opts.max_batch_tokens = 256;
  ServingEngine batched(stack, batched_opts);
  const std::vector<ServeOutcome> outcomes = batched.ServeWithStatus(requests);

  // ServeWithStatus returns one outcome per request, in request order.
  bool all_ok = true;
  bool bitwise = true;
  for (size_t i = 0; i < requests.size(); ++i) {
    all_ok = all_ok && outcomes[i].status == ServeStatus::kOk &&
             expected[i].status == ServeStatus::kOk;
    const Tensor& got = outcomes[i].output;
    const Tensor& want = expected[i].output;
    bitwise = bitwise && got.shape() == want.shape() &&
              std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(got.size()) * sizeof(float)) == 0;
  }
  std::printf("every request served kOk: %s\n", all_ok ? "yes" : "NO");
  std::printf("batched outputs bitwise == 1:1 outputs: %s\n\n", bitwise ? "yes" : "NO");

  const ServingEngineStats& u = unbatched.stats();
  const ServingEngineStats& b = batched.stats();
  std::printf("                  1:1        batched\n");
  std::printf("forwards          %-10lld %lld\n", static_cast<long long>(u.batches),
              static_cast<long long>(b.batches));
  std::printf("pooled streams    %-10lld %lld\n",
              static_cast<long long>(u.pool_contexts / stack.layers()),
              static_cast<long long>(b.pool_contexts / stack.layers()));
  // Rows each engine replayed (one forward per batch at its bucket's row
  // count) against the real request rows it packed.
  const auto replayed_rows = [](const ServingEngineStats& s) {
    int64_t rows = 0;
    for (const ServingBucketStats& bucket : s.buckets) {
      rows += bucket.bucket * bucket.batches;
    }
    return rows;
  };
  const auto packed_rows = [](const ServingEngineStats& s) {
    int64_t rows = 0;
    for (const ServingBucketStats& bucket : s.buckets) {
      rows += bucket.packed_tokens;
    }
    return rows;
  };
  int64_t request_rows = 0;
  for (int64_t len : lens) {
    request_rows += len;
  }
  std::printf("replayed rows     %-10lld %lld\n", static_cast<long long>(replayed_rows(u)),
              static_cast<long long>(replayed_rows(b)));
  std::printf("p50 latency (us)  %-10.0f %.0f\n", u.p50_latency_us, b.p50_latency_us);
  std::printf("p99 latency (us)  %-10.0f %.0f\n", u.p99_latency_us, b.p99_latency_us);

  const int64_t padding = replayed_rows(b) - request_rows;
  const bool no_padding = padding == 0 && packed_rows(b) == request_rows;
  std::printf("\nbatched padding rows: %lld of %lld replayed; pad-to-max: %.1f%%\n",
              static_cast<long long>(padding), static_cast<long long>(replayed_rows(b)),
              PaddingWaste(lens) * 100.0);
  return all_ok && bitwise && no_padding ? 0 : 1;
}
