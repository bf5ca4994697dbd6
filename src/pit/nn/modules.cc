#include "pit/nn/modules.h"

#include <algorithm>
#include <cmath>

#include "pit/common/check.h"
#include "pit/core/sparse_kernel.h"
#include "pit/core/sread_swrite.h"
#include "pit/graph/execution_plan.h"
#include "pit/workloads/moe_routing.h"

namespace pit {

namespace {
Tensor XavierInit(int64_t in, int64_t out, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in + out));
  return Tensor::Random({in, out}, rng, -bound, bound);
}
}  // namespace

// ---------------------------------------------------------------- Linear

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng)
    : weight_(XavierInit(in_features, out_features, rng)),
      bias_(Tensor::Random({out_features}, rng, -0.01f, 0.01f)) {}

Tensor Linear::Forward(const Tensor& x) const { return MatMulBias(x, weight_, bias_); }

Tensor Linear::ForwardSparse(const Tensor& x, PitCompiler& compiler) const {
  Tensor y = compiler.SparseMatmul(x, weight_).output;
  AddBiasRowsInto(bias_, y);
  return y;
}

// ---------------------------------------------------------------- FeedForward

FeedForward::FeedForward(int64_t hidden, int64_t ffn_hidden, Rng& rng)
    : up_(hidden, ffn_hidden, rng),
      down_(ffn_hidden, hidden, rng),
      plans_([this](Graph& g, const int64_t& tokens) {
        AppendToGraph(g, g.AddInput("x", {tokens, up_.in_features()}));
      }) {}

FeedForward::GraphNodes FeedForward::AppendToGraph(Graph& g, int x) const {
  const int w_up = g.AddWeightRef("w_up", &up_.weight());
  const int b_up = g.AddWeightRef("b_up", &up_.bias());
  const int w_down = g.AddWeightRef("w_down", &down_.weight());
  const int b_down = g.AddWeightRef("b_down", &down_.bias());
  GraphNodes nodes;
  const int up = g.AddMatmulBias("up_proj", x, w_up, b_up);
  nodes.relu = g.AddRelu("relu", up);
  nodes.out = g.AddMatmulBias("down_proj", nodes.relu, w_down, b_down);
  return nodes;
}

Tensor FeedForward::ForwardOnce(const Tensor& x, PitCompiler* compiler) const {
  PIT_CHECK_EQ(x.rank(), 2);
  // The shared handle keeps the plan alive even if the cache is evicted while
  // this replay is in flight.
  const std::shared_ptr<ExecutionPlan> plan = plans_.Plan(x.dim(0), compiler != nullptr);
  // The ReLU's value: its own step in a PIT plan, the fused up-projection
  // step (which carries the ReLU's node id) in a dense one.
  int relu_node = -1;
  for (const OpCall& call : plan->steps()) {
    if (call.kind == OpKind::kRelu || call.fuse_relu) {
      relu_node = call.node_id;
    }
  }
  double sparsity = 0.0;
  const StepObserver observe = [&](int node_id, ConstTensorView value) {
    if (node_id == relu_node) {
      sparsity = value.SparsityRatio();
    }
  };
  const std::map<std::string, const Tensor*> feeds{{"x", &x}};
  ExecutionContext ctx(*plan);
  ConstTensorView out = plan->RunWith(ctx, feeds, compiler, &observe);
  last_activation_sparsity_ = sparsity;
  Tensor result({x.dim(0), down_.out_features()});
  std::copy(out.data(), out.data() + out.size(), result.data());
  return result;
}

Tensor FeedForward::Forward(const Tensor& x) const { return ForwardOnce(x, nullptr); }

Tensor FeedForward::ForwardSparse(const Tensor& x, PitCompiler& compiler) const {
  return ForwardOnce(x, &compiler);
}

// ------------------------------------------------------- MultiHeadAttention

MultiHeadAttention::MultiHeadAttention(int64_t hidden, int64_t heads, Rng& rng)
    : heads_(heads),
      qkv_(hidden, 3 * hidden, rng),
      out_(hidden, hidden, rng),
      wq_({hidden, hidden}),
      wk_({hidden, hidden}),
      wv_({hidden, hidden}),
      bq_({hidden}),
      bk_({hidden}),
      bv_({hidden}),
      plans_([this](Graph& g, const std::pair<int64_t, bool>& key) {
        const auto [tokens, masked] = key;
        const int x = g.AddInput("x", {tokens, qkv_.in_features()});
        AppendToGraph(g, x, masked ? g.AddInput("mask", {tokens, tokens}) : -1);
      }) {
  PIT_CHECK_EQ(hidden % heads, 0);
  // Split the fused qkv projection into its q/k/v column blocks once; the
  // planned graphs reference these in place. The RNG stream (and therefore
  // every weight value) is untouched relative to the fused-only module.
  const Tensor& w = qkv_.weight();  // [hidden, 3*hidden]
  const Tensor& b = qkv_.bias();    // [3*hidden]
  for (int64_t i = 0; i < hidden; ++i) {
    for (int64_t j = 0; j < hidden; ++j) {
      wq_.At(i, j) = w.At(i, j);
      wk_.At(i, j) = w.At(i, hidden + j);
      wv_.At(i, j) = w.At(i, 2 * hidden + j);
    }
  }
  for (int64_t j = 0; j < hidden; ++j) {
    bq_[j] = b[j];
    bk_[j] = b[hidden + j];
    bv_[j] = b[2 * hidden + j];
  }
}

int MultiHeadAttention::AppendToGraph(Graph& g, int x, int mask) const {
  const int64_t dh = qkv_.in_features() / heads_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  const int wq = g.AddWeightRef("wq", &wq_);
  const int bq = g.AddWeightRef("bq", &bq_);
  const int wk = g.AddWeightRef("wk", &wk_);
  const int bk = g.AddWeightRef("bk", &bk_);
  const int wv = g.AddWeightRef("wv", &wv_);
  const int bv = g.AddWeightRef("bv", &bv_);

  // Per-part projections and scaled q, then one attention step that runs
  // ForwardEager's per-head calls (per bound segment) and merges the heads.
  const int q_proj = g.AddMatmulBias("q_proj", x, wq, bq);
  const int q = g.AddScale("q_scale", q_proj, scale);
  const int k = g.AddMatmulBias("k_proj", x, wk, bk);
  const int v = g.AddMatmulBias("v_proj", x, wv, bv);
  const int ctx = g.AddAttention("attention", q, k, v, heads_, mask);

  const int wo = g.AddWeightRef("wo", &out_.weight());
  const int bo = g.AddWeightRef("bo", &out_.bias());
  return g.AddMatmulBias("attn_out", ctx, wo, bo);
}

Tensor MultiHeadAttention::Forward(const Tensor& x, const Tensor* mask) const {
  PIT_CHECK_EQ(x.rank(), 2);
  PIT_CHECK_EQ(x.dim(1), qkv_.in_features());
  std::map<std::string, const Tensor*> feeds{{"x", &x}};
  if (mask != nullptr) {
    PIT_CHECK(mask->rank() == 2 && mask->dim(0) == x.dim(0) && mask->dim(1) == x.dim(0))
        << "attention mask must be [tokens, tokens]";
    feeds.emplace("mask", mask);
  }
  const std::shared_ptr<ExecutionPlan> plan = plans_.Plan({x.dim(0), mask != nullptr});
  ExecutionContext ctx(*plan);
  ConstTensorView out = plan->RunWith(ctx, feeds);
  Tensor result({x.dim(0), x.dim(1)});
  std::copy(out.data(), out.data() + out.size(), result.data());
  return result;
}

Tensor MultiHeadAttention::ForwardEager(const Tensor& x, const Tensor* mask) const {
  const int64_t tokens = x.dim(0), hidden = x.dim(1);
  const int64_t dh = hidden / heads_;
  Tensor qkv = qkv_.Forward(x);  // [tokens, 3*hidden]
  Tensor ctx({tokens, hidden});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (int64_t head = 0; head < heads_; ++head) {
    // Slice Q, K, V for this head.
    Tensor q({tokens, dh}), kt({dh, tokens}), v({tokens, dh});
    for (int64_t t = 0; t < tokens; ++t) {
      for (int64_t d = 0; d < dh; ++d) {
        q.At(t, d) = qkv.At(t, head * dh + d) * scale;
        kt.At(d, t) = qkv.At(t, hidden + head * dh + d);
        v.At(t, d) = qkv.At(t, 2 * hidden + head * dh + d);
      }
    }
    Tensor scores = MatMul(q, kt);              // [tokens, tokens]
    Tensor probs = Softmax(scores, mask);       // masked rows excluded
    Tensor head_ctx = MatMul(probs, v);         // [tokens, dh]
    for (int64_t t = 0; t < tokens; ++t) {
      for (int64_t d = 0; d < dh; ++d) {
        ctx.At(t, head * dh + d) = head_ctx.At(t, d);
      }
    }
  }
  return out_.Forward(ctx);
}

// ---------------------------------------------------------------- MoELayer

MoELayer::MoELayer(int64_t hidden, int64_t ffn_hidden, int num_experts, Rng& rng)
    : router_(XavierInit(hidden, num_experts, rng)) {
  up_.reserve(static_cast<size_t>(num_experts));
  down_.reserve(static_cast<size_t>(num_experts));
  for (int e = 0; e < num_experts; ++e) {
    up_.push_back(XavierInit(hidden, ffn_hidden, rng));
    down_.push_back(XavierInit(ffn_hidden, hidden, rng));
  }
}

std::vector<int> MoELayer::Route(const Tensor& x) const {
  Tensor logits = MatMul(x, router_);
  std::vector<int> routing(static_cast<size_t>(x.dim(0)));
  for (int64_t t = 0; t < logits.dim(0); ++t) {
    int best = 0;
    for (int64_t e = 1; e < logits.dim(1); ++e) {
      if (logits.At(t, e) > logits.At(t, best)) {
        best = static_cast<int>(e);
      }
    }
    routing[static_cast<size_t>(t)] = best;
  }
  return routing;
}

Tensor MoELayer::ForwardDense(const Tensor& x) const {
  const std::vector<int> routing = Route(x);
  Tensor out({x.dim(0), x.dim(1)});
  // Reference semantics: every expert computes the full batch; only its own
  // tokens' rows are kept (the masked formulation of Fig. 2b).
  for (int e = 0; e < num_experts(); ++e) {
    Tensor mid = Relu(MatMul(x, up_[static_cast<size_t>(e)]));
    Tensor y = MatMul(mid, down_[static_cast<size_t>(e)]);
    for (int64_t t = 0; t < x.dim(0); ++t) {
      if (routing[static_cast<size_t>(t)] == e) {
        for (int64_t j = 0; j < x.dim(1); ++j) {
          out.At(t, j) = y.At(t, j);
        }
      }
    }
  }
  return out;
}

Tensor MoELayer::ForwardPit(const Tensor& x) const {
  const std::vector<int> routing = Route(x);
  Tensor out({x.dim(0), x.dim(1)});
  for (int e = 0; e < num_experts(); ++e) {
    std::vector<int64_t> mine;
    for (size_t t = 0; t < routing.size(); ++t) {
      if (routing[t] == e) {
        mine.push_back(static_cast<int64_t>(t));
      }
    }
    if (mine.empty()) {
      continue;
    }
    Tensor packed = SReadRows(x, mine);
    Tensor y = MatMul(Relu(MatMul(packed, up_[static_cast<size_t>(e)])),
                      down_[static_cast<size_t>(e)]);
    SWriteRows(y, mine, &out);
  }
  return out;
}

Tensor MoELayer::ForwardPadded(const Tensor& x) const {
  const std::vector<int> routing = Route(x);
  const std::vector<int64_t> loads = ExpertLoads(routing, num_experts());
  const int64_t cap = MaxLoad(loads);
  Tensor out({x.dim(0), x.dim(1)});
  for (int e = 0; e < num_experts(); ++e) {
    // Capacity buffer: expert's tokens followed by zero padding rows.
    std::vector<int64_t> mine;
    for (size_t t = 0; t < routing.size(); ++t) {
      if (routing[t] == e) {
        mine.push_back(static_cast<int64_t>(t));
      }
    }
    Tensor buf({cap, x.dim(1)});
    for (size_t i = 0; i < mine.size(); ++i) {
      for (int64_t j = 0; j < x.dim(1); ++j) {
        buf.At(static_cast<int64_t>(i), j) = x.At(mine[i], j);
      }
    }
    Tensor y = MatMul(Relu(MatMul(buf, up_[static_cast<size_t>(e)])),
                      down_[static_cast<size_t>(e)]);
    for (size_t i = 0; i < mine.size(); ++i) {
      for (int64_t j = 0; j < x.dim(1); ++j) {
        out.At(mine[i], j) = y.At(static_cast<int64_t>(i), j);
      }
    }
  }
  return out;
}

// ------------------------------------------------ TransformerEncoderLayer

TransformerEncoderLayer::TransformerEncoderLayer(int64_t hidden, int64_t heads,
                                                 int64_t ffn_hidden, Rng& rng)
    : attn_(hidden, heads, rng),
      ffn_(hidden, ffn_hidden, rng),
      ln1_gamma_(Tensor::Full({hidden}, 1.0f)),
      ln1_beta_(Tensor::Zeros({hidden})),
      ln2_gamma_(Tensor::Full({hidden}, 1.0f)),
      ln2_beta_(Tensor::Zeros({hidden})),
      // The whole pre-norm block as one graph over referenced weights:
      // x + Attn(LN1(x)); h + FFN(LN2(h)).
      plans_([this, hidden](Graph& g, const std::pair<int64_t, bool>& key) {
        const auto [tokens, masked] = key;
        const int x = g.AddInput("x", {tokens, hidden});
        const int mask = masked ? g.AddInput("mask", {tokens, tokens}) : -1;
        const int g1 = g.AddWeightRef("ln1_gamma", &ln1_gamma_);
        const int b1 = g.AddWeightRef("ln1_beta", &ln1_beta_);
        const int g2 = g.AddWeightRef("ln2_gamma", &ln2_gamma_);
        const int b2 = g.AddWeightRef("ln2_beta", &ln2_beta_);
        const int ln1 = g.AddLayerNorm("ln1", x, g1, b1);
        const int attn_out = attn_.AppendToGraph(g, ln1, mask);
        const int h = g.AddAdd("h", x, attn_out);
        const int ln2 = g.AddLayerNorm("ln2", h, g2, b2);
        g.AddAdd("out", h, ffn_.AppendToGraph(g, ln2).out);
      }) {}

TransformerEncoderLayer::Stream TransformerEncoderLayer::MakeStream(int64_t tokens, bool masked,
                                                                    bool pit) const {
  Stream stream;
  stream.plan = plans_.Plan({tokens, masked}, pit);
  // The context and feed map are private to the stream: nothing below needs
  // the lock, and the co-owning plan handle keeps the compiled plan alive
  // even if the layer's plan cache is cleared or rebuilt behind it.
  stream.ctx = std::make_unique<ExecutionContext>(*stream.plan);
  stream.feeds = {{"x", nullptr}};
  if (masked) {
    stream.feeds.emplace("mask", nullptr);
  }
  stream.tokens = tokens;
  stream.masked = masked;
  return stream;
}

void TransformerEncoderLayer::ForwardWith(Stream& stream, const Tensor& x,
                                          const Tensor* attn_mask, PitCompiler* compiler,
                                          Tensor* out, int64_t rows) const {
  PIT_CHECK(stream.plan != nullptr && stream.ctx != nullptr) << "stream not initialized";
  PIT_CHECK_EQ(x.rank(), 2);
  if (rows == 0) {
    rows = x.dim(0);
  }
  PIT_CHECK(rows <= x.dim(0) && x.dim(1) == ln1_gamma_.dim(0))
      << "input shape does not match the stream's plan";
  PIT_CHECK((attn_mask != nullptr) == stream.masked)
      << "mask presence does not match the stream's plan";
  PIT_CHECK(out != nullptr);
  PIT_CHECK(out->dim(0) >= rows && out->dim(1) == x.dim(1));
  stream.feeds["x"] = &x;
  if (attn_mask != nullptr) {
    PIT_CHECK(attn_mask->rank() == 2 && attn_mask->dim(0) == rows && attn_mask->dim(1) == rows)
        << "attention mask must be [tokens, tokens]";
    stream.feeds["mask"] = attn_mask;
  }
  // The row count is this replay's binding; the plan checks it against its
  // capacity and polymorphism.
  stream.ctx->set_token_rows(rows);
  ConstTensorView result = stream.plan->RunWith(*stream.ctx, stream.feeds, compiler);
  std::copy(result.data(), result.data() + result.size(), out->data());
}

Tensor TransformerEncoderLayer::Forward(const Tensor& x, const Tensor* attn_mask) const {
  PIT_CHECK_EQ(x.rank(), 2);
  Stream stream = MakeStream(x.dim(0), attn_mask != nullptr);
  Tensor out({x.dim(0), x.dim(1)});
  ForwardWith(stream, x, attn_mask, nullptr, &out);
  return out;
}

Tensor TransformerEncoderLayer::ForwardSparse(const Tensor& x, PitCompiler& compiler,
                                              const Tensor* attn_mask) const {
  PIT_CHECK_EQ(x.rank(), 2);
  Stream stream = MakeStream(x.dim(0), attn_mask != nullptr, /*pit=*/true);
  Tensor out({x.dim(0), x.dim(1)});
  ForwardWith(stream, x, attn_mask, &compiler, &out);
  return out;
}

Tensor TransformerEncoderLayer::ForwardEager(const Tensor& x, const Tensor* attn_mask) const {
  Tensor h = Add(x, attn_.ForwardEager(LayerNorm(x, ln1_gamma_, ln1_beta_), attn_mask));
  Tensor ln2 = LayerNorm(h, ln2_gamma_, ln2_beta_);
  Tensor ffn = MatMulBias(Relu(MatMulBias(ln2, ffn_.up().weight(), ffn_.up().bias())),
                          ffn_.down().weight(), ffn_.down().bias());
  return Add(h, ffn);
}

PlanStats TransformerEncoderLayer::PlanStatsFor(int64_t tokens, bool masked) const {
  return plans_.Plan({tokens, masked})->stats();
}

}  // namespace pit
