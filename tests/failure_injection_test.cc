// Failure injection: the library's contract is fail-fast on misuse. Every
// public entry point must abort with a diagnostic (never corrupt or return
// garbage) when handed inconsistent arguments.
#include <gtest/gtest.h>

#include <cmath>

#include "pit/core/compiler.h"
#include "pit/core/sread_swrite.h"
#include "pit/expr/einsum.h"
#include "pit/runtime/models.h"
#include "pit/runtime/serving_engine.h"
#include "pit/sparse/coverage.h"
#include "pit/tensor/ops.h"

namespace pit {
namespace {

TEST(FailureInjectionTest, MatmulShapeMismatchAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({4, 2});
  EXPECT_DEATH(MatMul(a, b), "check failed");
}

TEST(FailureInjectionTest, ReshapeElementMismatchAborts) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_DEATH(t.Reshape({4, 2}), "reshape element count mismatch");
}

TEST(FailureInjectionTest, SReadRowsOutOfRangeAborts) {
  Tensor t = Tensor::Zeros({4, 4});
  const std::vector<int64_t> bad = {5};
  EXPECT_DEATH(SReadRows(t, bad), "check failed");
}

TEST(FailureInjectionTest, SWriteShapeMismatchAborts) {
  Tensor packed = Tensor::Zeros({2, 3});
  Tensor dst = Tensor::Zeros({4, 4});  // cols differ
  const std::vector<int64_t> rows = {0, 1};
  EXPECT_DEATH(SWriteRows(packed, rows, &dst), "check failed");
}

TEST(FailureInjectionTest, CompilerRejectsRankMismatch) {
  PitCompiler compiler(V100());
  Tensor a = Tensor::Zeros({2, 2, 2});
  Tensor b = Tensor::Zeros({2, 2});
  EXPECT_DEATH(compiler.SparseMatmul(a, b), "check failed");
}

TEST(FailureInjectionTest, MalformedEinsumAborts) {
  EXPECT_DEATH(ParseEinsum("C[m,n += A[m,k]"), "malformed einsum");
}

TEST(FailureInjectionTest, AnalyticPatternRejectsBadSparsity) {
  EXPECT_DEATH(AnalyticPattern(10, 10, 1, 1, 1.5), "check failed");
  EXPECT_DEATH(AnalyticPattern(10, 10, 0, 1, 0.5), "check failed");
}

TEST(FailureInjectionTest, UnknownModelNamesAbort) {
  EXPECT_DEATH(OptDims("7B"), "unknown OPT size");
}

TEST(FailureInjectionTest, SoftmaxMaskShapeMismatchAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor mask = Tensor::Zeros({3, 2});
  EXPECT_DEATH(Softmax(a, &mask), "check failed");
}

TEST(FailureInjectionTest, LayerNormGammaSizeMismatchAborts) {
  Tensor a = Tensor::Zeros({2, 4});
  Tensor gamma = Tensor::Zeros({3});
  Tensor beta = Tensor::Zeros({4});
  EXPECT_DEATH(LayerNorm(a, gamma, beta), "check failed");
}

TEST(FailureInjectionTest, BlockSparseIndivisibleShapeAborts) {
  Rng rng(1);
  EXPECT_DEATH(Tensor::RandomBlockSparse(10, 10, 3, 1, 0.5, rng), "check failed");
}

// ---- ServingEngine: the error domain is split (PR 9). Construction misuse
// stays fail-fast; malformed request *data* is contained per request and
// reported as a ServeStatus, never an abort. ----

TEST(FailureInjectionTest, ServingEngineNegativeOptionsAbort) {
  Rng rng(5);
  PlannedFfnStack stack(1, 8, 16, rng);
  {
    ServingEngineOptions options;
    options.num_streams = -1;
    EXPECT_DEATH(ServingEngine(stack, options), "num_streams");
  }
  {
    ServingEngineOptions options;
    options.batch_window = -2;
    EXPECT_DEATH(ServingEngine(stack, options), "batch_window");
  }
  {
    ServingEngineOptions options;
    options.max_batch_tokens = -8;
    EXPECT_DEATH(ServingEngine(stack, options), "max_batch_tokens");
  }
  {
    ServingEngineOptions options;
    options.deadline_us = -100;
    EXPECT_DEATH(ServingEngine(stack, options), "deadline_us");
  }
  {
    ServingEngineOptions options;
    options.queue_capacity = -1;
    EXPECT_DEATH(ServingEngine(stack, options), "queue_capacity");
  }
}

TEST(FailureInjectionTest, ServingEngineContainsMalformedRequestData) {
  Rng rng(6);
  PlannedTransformerStack stack(1, 16, 2, 32, rng);
  ServingEngine engine(stack, {});
  const Tensor bad_mask = Tensor::Zeros({5, 4});  // vs 4 tokens
  std::vector<ServeRequest> requests(5);
  requests[0].x = Tensor::Random({4, 16}, rng);  // the one valid request
  requests[1].x = Tensor::Random({4, 8}, rng);   // wrong hidden
  requests[2].x = Tensor::Random({4, 16}, rng);
  requests[2].attn_mask = &bad_mask;
  requests[3].x = Tensor::Random({4, 16}, rng);
  requests[3].x[7] = std::nanf("");
  requests[4].x = Tensor::Random({4, 16}, rng);
  requests[4].deadline_us = -1;
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
  EXPECT_EQ(outcomes[0].status, ServeStatus::kOk);
  for (size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].status, ServeStatus::kInvalidArgument) << "request " << i;
    EXPECT_TRUE(outcomes[i].output.empty());
  }
}

}  // namespace
}  // namespace pit
