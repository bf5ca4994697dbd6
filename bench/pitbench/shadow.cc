// Traced shadow re-execution: the engine's batches rebuilt and replayed on
// one stream through the layers' public functions, so that the benchmark can
// say where the time goes without a single probe inside src/.
//
// The shadow reproduces what one engine stream worker does for a claimed
// span, in the engine's documented order:
//   1. spans: a window-aligned cursor over each call, then greedy extension
//      under the token cap (window > 1 only);
//   2. bucket: BucketTokensPow2(sum, 16) for packed spans, the exact token
//      count 1:1;
//   3. pack: zero the padding rows, SReadRowsInto each request's rows, and
//      (transformer) BlockDiagonalMaskInto;
//   4. acquire: a per-shape stream from a 16-shape, flush-all pool, built by
//      the stack's MakeStream on a miss;
//   5. replay: each layer's ExecutionPlan::RunWith over the stream's context,
//      staging the layer output exactly as the stacks' ForwardWith does;
//   6. scatter: SWriteRowsFrom into each request's output.
// Replay uses a StepObserver, which forces the sequential schedule serving
// workers already use, to stamp every plan step. Its outputs must equal the
// engine's bit for bit (trace.mismatches), which proves the shadow replays
// the same batches.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <utility>

#include "pitbench.h"

#include "pit/common/parallel_for.h"
#include "pit/core/sread_swrite.h"
#include "pit/gpusim/device.h"
#include "pit/graph/execution_plan.h"
#include "pit/workloads/attention_masks.h"
#include "pit/workloads/seq_len.h"

using namespace pit;

namespace pitbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Step classes, named after the module whose kernel the step dispatches.
enum StepClass : uint8_t {
  kGemm,
  kPitMatmul,
  kBgemm,
  kSoftmax,
  kLayerNorm,
  kTranspose,
  kElementwise,
  kReshape,
  kNumStepClasses,
};
constexpr const char* kStepSpan[kNumStepClasses] = {
    "tensor.gemm",      "core.pit_matmul",  "tensor.bgemm",       "tensor.softmax",
    "tensor.layernorm", "tensor.transpose", "tensor.elementwise", "graph.reshape",
};

struct StepInfo {
  StepClass cls = kElementwise;
  double flops = 0.0;     // dense-equivalent, from the plan's compile-time shapes
  bool relu_out = false;  // the step's output is a ReLU activation
};

// One layer of a pooled stream, seen from outside: its plan, private
// context and feed map, the buffer its output stages into (nullptr: the
// caller's output), and the classified steps.
struct LayerView {
  const ExecutionPlan* plan = nullptr;
  ExecutionContext* ctx = nullptr;
  std::map<std::string, const Tensor*>* feeds = nullptr;
  Tensor* staging = nullptr;
  std::vector<StepInfo> steps;
  int down_step = -1;  // the FFN down-projection: the plan's last matmul step
};

std::vector<StepInfo> ClassifySteps(const ExecutionPlan& plan, int* down_step) {
  const std::vector<Shape>& shapes = plan.shapes();
  std::vector<StepInfo> steps;
  steps.reserve(plan.steps().size());
  for (const OpCall& call : plan.steps()) {
    StepInfo info;
    const Shape& out = shapes[static_cast<size_t>(call.out.shape_id)];
    switch (call.kind) {
      case OpKind::kMatmul:
      case OpKind::kMatmulBias: {
        const Shape& a = shapes[static_cast<size_t>(call.in[0].shape_id)];
        info.cls = call.use_pit ? kPitMatmul : kGemm;
        info.flops = 2.0 * static_cast<double>(out[0]) * static_cast<double>(a[1]) *
                     static_cast<double>(out[1]);
        info.relu_out = call.fuse_relu;
        *down_step = static_cast<int>(steps.size());
        break;
      }
      case OpKind::kBatchMatmul: {
        const Shape& a = shapes[static_cast<size_t>(call.in[0].shape_id)];
        info.cls = kBgemm;
        info.flops = 2.0 * static_cast<double>(out[0]) * static_cast<double>(out[1]) *
                     static_cast<double>(a[2]) * static_cast<double>(out[2]);
        break;
      }
      case OpKind::kSoftmax:
        info.cls = kSoftmax;
        break;
      case OpKind::kLayerNorm:
        info.cls = kLayerNorm;
        break;
      case OpKind::kTranspose:
        info.cls = kTranspose;
        break;
      case OpKind::kReshape:
        info.cls = kReshape;
        break;
      default:  // relu, add, mask, scale
        info.cls = kElementwise;
        info.relu_out = call.kind == OpKind::kRelu;
        break;
    }
    steps.push_back(info);
  }
  return steps;
}

// A span: one timed interval at a layer boundary. `parent` indexes the
// enclosing span (-1 for a batch), `batch` the shadow's batch counter.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int32_t batch;
};

class Shadow {
 public:
  Shadow(const Workload& workload, const Stack& stack, const RequestPool& pool)
      : workload_(workload), stack_(stack), pool_(pool), compiler_(V100()) {
    outputs_.reserve(kPoolSize);
    for (int i = 0; i < kPoolSize; ++i) {
      outputs_.emplace_back(Shape{pool.request(i).x.dim(0), kHidden});
    }
    spans_.reserve(kSpanCapacity);
    observer_ = [this](int /*node_id*/, ConstTensorView value) { OnStep(value); };
  }

  enum class Mode {
    kPlain,    // no observer, no spans: the untraced reference
    kTraced,   // observer + spans
    kCompare,  // PIT down-projection vs the dense plan on the same tile
  };

  // One pass over the whole pool; returns its wall time in seconds.
  double Pass(Mode mode) {
    mode_ = mode;
    const int64_t window = workload_.batch_window;
    const int64_t t0 = NowNs();
    for (size_t c = 0; c < pool_.calls.size(); ++c) {
      const std::vector<ServeRequest>& call = pool_.calls[c];
      const int64_t n = static_cast<int64_t>(call.size());
      for (int64_t i0 = 0; i0 < n; i0 += window) {
        const int64_t i_end = std::min(i0 + window, n);
        int64_t b0 = i0;
        while (b0 < i_end) {
          int64_t b1 = b0 + 1;
          if (window > 1) {
            int64_t sum = call[static_cast<size_t>(b0)].x.dim(0);
            while (b1 < i_end && sum + call[static_cast<size_t>(b1)].x.dim(0) <= kMaxBatchTokens) {
              sum += call[static_cast<size_t>(b1)].x.dim(0);
              ++b1;
            }
          }
          const int first = static_cast<int>(c) * kCallSize + static_cast<int>(b0);
          const int count = static_cast<int>(b1 - b0);
          if (window > 1) {
            ServePacked(first, count);
          } else {
            ServeOne(first);
          }
          ++batch_;
          b0 = b1;
        }
      }
    }
    return static_cast<double>(NowNs() - t0) * 1e-9;
  }

  // Requests whose engine output (kOk only) differs from the shadow's.
  int64_t Mismatches(const std::vector<Tensor>& engine_outputs) const {
    int64_t bad = 0;
    for (int i = 0; i < kPoolSize; ++i) {
      const Tensor& e = engine_outputs[static_cast<size_t>(i)];
      const Tensor& s = outputs_[static_cast<size_t>(i)];
      if (!e.empty() && (e.shape() != s.shape() ||
                         std::memcmp(e.data(), s.data(), sizeof(float) * e.size()) != 0)) {
        ++bad;
      }
    }
    return bad;
  }

  void Summarize(double traced_wall_s, double plain_wall_s, double engine_pass_s,
                 TraceResult* result) const;
  bool WriteChromeTrace(const std::string& path) const;
  int64_t dropped() const { return dropped_; }

 private:
  static constexpr size_t kSpanCapacity = size_t{1} << 18;

  struct Pooled {
    PlannedTransformerStack::Stream xf;
    PlannedFfnStack::Stream ffn;
    std::vector<LayerView> layers;
  };
  struct Staging {
    Tensor x, out, mask;
  };

  int Open(const char* name, int parent) {
    if (mode_ != Mode::kTraced) {
      return -1;
    }
    if (spans_.size() == kSpanCapacity) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, NowNs(), 0, parent, batch_});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int span) {
    if (span >= 0) {
      spans_[static_cast<size_t>(span)].end_ns = NowNs();
    }
  }

  Pooled& Acquire(std::map<std::pair<int64_t, bool>, Pooled>& pool, int64_t tokens, bool masked,
                  bool pit, int parent) {
    const std::pair<int64_t, bool> key{tokens, masked};
    auto it = pool.find(key);
    if (it != pool.end()) {
      return it->second;
    }
    if (pool.size() >= kMaxPooledShapes) {
      pool.clear();
    }
    // Timed in every mode: the first (plain) pass builds every stream the
    // packed workloads use, so traced passes alone may build none.
    const int span = Open("nn.make_stream", parent);
    const int64_t t0 = NowNs();
    Pooled built;
    if (stack_.xf != nullptr) {
      built.xf = stack_.xf->MakeStream(tokens, masked, pit);
    } else {
      built.ffn = stack_.ffn->MakeStream(tokens, pit);
    }
    make_stream_ns_ += NowNs() - t0;
    ++make_streams_;
    Close(span);
    Pooled& p = pool.emplace(key, std::move(built)).first->second;
    const size_t layers = static_cast<size_t>(kLayers);
    p.layers.resize(layers);
    for (size_t l = 0; l < layers; ++l) {
      LayerView& v = p.layers[l];
      if (stack_.xf != nullptr) {
        v.plan = p.xf.layers[l].plan.get();
        v.ctx = p.xf.layers[l].ctx.get();
        v.feeds = &p.xf.layers[l].feeds;
        v.staging = l + 1 < layers ? &p.xf.staging[l] : nullptr;
      } else {
        v.plan = p.ffn.plans[l].get();
        v.ctx = p.ffn.contexts[l].get();
        v.feeds = &p.ffn.feeds;
        v.staging = l + 1 < layers ? &p.ffn.staging[l] : nullptr;
      }
      v.steps = ClassifySteps(*v.plan, &v.down_step);
    }
    return p;
  }

  // The stacks' ForwardWith, one layer at a time. `rows` is the count of
  // real (unpadded) rows, for the activation-sparsity count.
  void Replay(Pooled& p, const Tensor& x, const Tensor* mask, Tensor* out, int64_t rows,
              int parent) {
    PitCompiler* compiler = workload_.use_pit ? &compiler_ : nullptr;
    const Tensor* cur = &x;
    for (size_t l = 0; l < p.layers.size(); ++l) {
      LayerView& v = p.layers[l];
      Tensor* dst = v.staging != nullptr ? v.staging : out;
      (*v.feeds)["x"] = cur;
      if (mask != nullptr) {
        (*v.feeds)["mask"] = mask;
      }
      const int span = Open("graph.replay", parent);
      ConstTensorView res;
      if (mode_ == Mode::kPlain) {
        res = v.plan->RunWith(*v.ctx, *v.feeds, compiler);
      } else {
        layer_ = &v;
        step_ = 0;
        step_parent_ = span;
        rows_ = rows;
        down_acc_ = mode_ == Mode::kCompare ? &pit_down_ns_ : nullptr;
        last_ns_ = NowNs();
        res = v.plan->RunWith(*v.ctx, *v.feeds, compiler, &observer_);
      }
      std::copy(res.data(), res.data() + res.size(), dst->data());
      Close(span);
      if (mode_ == Mode::kCompare) {
        // The same layer input through the dense plan: only its
        // down-projection step is timed.
        Pooled& d = Acquire(dense_pool_, cur->dim(0), mask != nullptr, /*pit=*/false, -1);
        LayerView& dv = d.layers[l];
        (*dv.feeds)["x"] = cur;
        if (mask != nullptr) {
          (*dv.feeds)["mask"] = mask;
        }
        layer_ = &dv;
        step_ = 0;
        down_acc_ = &dense_down_ns_;
        last_ns_ = NowNs();
        dv.plan->RunWith(*dv.ctx, *dv.feeds, nullptr, &observer_);
      }
      cur = dst;
    }
  }

  void OnStep(ConstTensorView value) {
    const int64_t now = NowNs();
    const StepInfo& info = layer_->steps[static_cast<size_t>(step_)];
    if (mode_ == Mode::kTraced) {
      if (spans_.size() < kSpanCapacity) {
        spans_.push_back({kStepSpan[info.cls], last_ns_, now, step_parent_, batch_});
      } else {
        ++dropped_;
      }
      flops_[info.cls] += info.flops;
      if (info.relu_out) {
        const int64_t n = std::min(value.size(), rows_ * value.dim(value.rank() - 1));
        const float* v = value.data();
        act_zeros_ += std::count(v, v + n, 0.0f);
        act_total_ += n;
      }
    }
    if (down_acc_ != nullptr && step_ == layer_->down_step) {
      *down_acc_ += now - last_ns_;
    }
    ++step_;
    last_ns_ = NowNs();
    if (mode_ == Mode::kTraced) {
      observer_ns_ += last_ns_ - now;
    }
  }

  void ServeOne(int index) {
    const ServeRequest& request = pool_.request(index);
    const int64_t tokens = request.x.dim(0);
    const int batch = Open("runtime.batch", -1);
    Pooled& p = Acquire(pool_streams_, tokens, request.attn_mask != nullptr, workload_.use_pit,
                        batch);
    Replay(p, request.x, request.attn_mask, &outputs_[static_cast<size_t>(index)], tokens, batch);
    if (mode_ == Mode::kTraced && stack_.xf != nullptr) {
      live_sq_ += static_cast<double>(tokens) * static_cast<double>(tokens);
      bucket_sq_ += static_cast<double>(tokens) * static_cast<double>(tokens);
    }
    Close(batch);
  }

  void ServePacked(int first, int count) {
    const int batch = Open("runtime.batch", -1);
    lens_.clear();
    masks_.clear();
    int64_t sum = 0;
    int64_t max_len = 0;
    double sq = 0.0;
    for (int i = first; i < first + count; ++i) {
      const ServeRequest& request = pool_.request(i);
      lens_.push_back(request.x.dim(0));
      masks_.push_back(request.attn_mask);
      sum += request.x.dim(0);
      max_len = std::max(max_len, request.x.dim(0));
      sq += static_cast<double>(request.x.dim(0)) * static_cast<double>(request.x.dim(0));
    }
    const int64_t bucket = BucketTokensPow2(sum, kMinBatchBucket);
    while (static_cast<int64_t>(iota_.size()) < max_len) {
      iota_.push_back(static_cast<int64_t>(iota_.size()));
    }
    Staging& st = staging_[bucket];
    if (st.x.empty()) {
      st.x = Tensor({bucket, kHidden});
      st.out = Tensor({bucket, kHidden});
      if (stack_.xf != nullptr) {
        st.mask = Tensor({bucket, bucket});
      }
    }
    std::fill(st.x.data() + sum * kHidden, st.x.data() + bucket * kHidden, 0.0f);
    int span = Open("core.sread", batch);
    int64_t off = 0;
    for (int i = 0; i < count; ++i) {
      const int64_t len = lens_[static_cast<size_t>(i)];
      SReadRowsInto(pool_.request(first + i).x,
                    std::span<const int64_t>(iota_.data(), static_cast<size_t>(len)), st.x, off);
      off += len;
    }
    Close(span);
    const Tensor* mask = nullptr;
    if (stack_.xf != nullptr) {
      span = Open("workloads.mask", batch);
      BlockDiagonalMaskInto(lens_, masks_, st.mask);
      Close(span);
      mask = &st.mask;
      if (mode_ == Mode::kTraced) {
        live_sq_ += sq;
        bucket_sq_ += static_cast<double>(bucket) * static_cast<double>(bucket);
      }
    }
    Pooled& p = Acquire(pool_streams_, bucket, mask != nullptr, workload_.use_pit, batch);
    Replay(p, st.x, mask, &st.out, sum, batch);
    span = Open("core.swrite", batch);
    off = 0;
    for (int i = 0; i < count; ++i) {
      const int64_t len = lens_[static_cast<size_t>(i)];
      SWriteRowsFrom(st.out, off, std::span<const int64_t>(iota_.data(), static_cast<size_t>(len)),
                     outputs_[static_cast<size_t>(first + i)]);
      off += len;
    }
    Close(span);
    Close(batch);
  }

  const Workload& workload_;
  const Stack& stack_;
  const RequestPool& pool_;
  PitCompiler compiler_;
  std::map<std::pair<int64_t, bool>, Pooled> pool_streams_;
  std::map<std::pair<int64_t, bool>, Pooled> dense_pool_;  // kCompare only
  std::map<int64_t, Staging> staging_;
  std::vector<int64_t> iota_;
  std::vector<int64_t> lens_;
  std::vector<const Tensor*> masks_;
  std::vector<Tensor> outputs_;
  StepObserver observer_;

  Mode mode_ = Mode::kPlain;
  int32_t batch_ = 0;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
  // Observer state of the replay in flight.
  LayerView* layer_ = nullptr;
  int step_ = 0;
  int step_parent_ = -1;
  int64_t rows_ = 0;
  int64_t last_ns_ = 0;
  int64_t* down_acc_ = nullptr;
  // Counts taken at the step boundaries (traced passes only).
  double flops_[kNumStepClasses] = {};
  int64_t act_zeros_ = 0;
  int64_t act_total_ = 0;
  double live_sq_ = 0.0;
  double bucket_sq_ = 0.0;
  int64_t make_streams_ = 0;  // every mode
  int64_t make_stream_ns_ = 0;
  int64_t observer_ns_ = 0;  // the observer's own time, inside replay spans
  int64_t pit_down_ns_ = 0;
  int64_t dense_down_ns_ = 0;
};

void Shadow::Summarize(double traced_wall_s, double plain_wall_s, double engine_pass_s,
                       TraceResult* result) const {
  // Self time: a span's duration minus the durations of its children.
  std::map<std::string, double> self_ns;
  std::map<std::string, double> total_ns;
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double covered_ns = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_ns[spans_[i].name] += self[i];
    total_ns[spans_[i].name] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    covered_ns += self[i];
  }
  const double wall_ns = traced_wall_s * 1e9;
  const auto share = [&](const char* name) {
    auto it = self_ns.find(name);
    return it == self_ns.end() ? 0.0 : it->second / wall_ns;
  };
  const auto gflops = [&](StepClass cls) {
    auto it = self_ns.find(kStepSpan[cls]);
    return it == self_ns.end() || it->second <= 0.0 ? 0.0 : flops_[cls] / it->second;
  };
  const auto total = [&](const char* name) {
    auto it = total_ns.find(name);
    return it == total_ns.end() ? 0.0 : it->second;
  };
  std::vector<Metric>& m = result->metrics;
  m.push_back({"tensor.gemm_share", share("tensor.gemm"), "frac"});
  m.push_back({"tensor.gemm_gflops", gflops(kGemm), "GFLOP/s"});
  m.push_back({"tensor.bgemm_share", share("tensor.bgemm"), "frac"});
  m.push_back({"tensor.bgemm_gflops", gflops(kBgemm), "GFLOP/s"});
  m.push_back({"tensor.softmax_share", share("tensor.softmax"), "frac"});
  m.push_back({"tensor.layernorm_share", share("tensor.layernorm"), "frac"});
  m.push_back({"tensor.transpose_share", share("tensor.transpose"), "frac"});
  m.push_back({"tensor.elementwise_share", share("tensor.elementwise"), "frac"});
  m.push_back({"workloads.mask_share", share("workloads.mask"), "frac"});
  m.push_back({"runtime.attn_live_frac", bucket_sq_ > 0.0 ? live_sq_ / bucket_sq_ : 0.0, "frac"});
  m.push_back({"core.pit_matmul_share", share("core.pit_matmul"), "frac"});
  m.push_back({"core.pit_matmul_gflops", gflops(kPitMatmul), "GFLOP/s"});
  m.push_back({"core.act_zero_frac",
               act_total_ > 0 ? static_cast<double>(act_zeros_) / static_cast<double>(act_total_)
                              : 0.0,
               "frac"});
  m.push_back({"core.pit_vs_dense",
               dense_down_ns_ > 0 ? static_cast<double>(pit_down_ns_) /
                                        static_cast<double>(dense_down_ns_)
                                  : 0.0,
               "x"});
  m.push_back({"core.sread_share", share("core.sread"), "frac"});
  m.push_back({"core.swrite_share", share("core.swrite"), "frac"});
  m.push_back({"nn.make_stream_ms",
               static_cast<double>(make_stream_ns_) * 1e-6 / static_cast<double>(make_streams_),
               "ms"});
  m.push_back({"nn.make_stream_share", share("nn.make_stream"), "frac"});
  m.push_back({"graph.replay_share", total("graph.replay") / wall_ns, "frac"});
  m.push_back({"graph.dispatch_share",
               (self_ns.count("graph.replay") != 0 ? self_ns.at("graph.replay") : 0.0) / wall_ns -
                   static_cast<double>(observer_ns_) / wall_ns,
               "frac"});
  m.push_back({"runtime.stream_speedup", engine_pass_s > 0.0 ? plain_wall_s / engine_pass_s : 0.0,
               "x"});
  m.push_back({"trace.coverage", covered_ns / wall_ns, "frac"});
}

bool Shadow::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"pitbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"batch\":%d}}\n",
                 i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.batch);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

TraceResult RunShadow(const Workload& workload, const Stack& stack, const RequestPool& pool,
                      const std::vector<Tensor>& engine_outputs, double engine_pass_s, int width,
                      const std::string& trace_out) {
  ScopedNumThreads scoped(width);
  Shadow shadow(workload, stack, pool);
  shadow.Pass(Shadow::Mode::kPlain);  // warm: fills the shadow's pools
  // Plain and traced passes alternate so that drift in machine load falls
  // on both alike.
  constexpr int kPasses = 2;
  std::vector<double> plain;
  std::vector<double> traced;
  for (int i = 0; i < kPasses; ++i) {
    plain.push_back(shadow.Pass(Shadow::Mode::kPlain));
    traced.push_back(shadow.Pass(Shadow::Mode::kTraced));
  }
  TraceResult result;
  result.mismatches = shadow.Mismatches(engine_outputs);
  if (workload.use_pit) {
    shadow.Pass(Shadow::Mode::kCompare);
  }
  double traced_sum = 0.0;
  for (const double t : traced) {
    traced_sum += t;
  }
  const double plain_median = Median(plain);
  shadow.Summarize(traced_sum, plain_median, engine_pass_s, &result);
  result.metrics.push_back({"trace.overhead_frac", Median(traced) / plain_median - 1.0, "frac"});
  result.metrics.push_back(
      {"trace.mismatches", static_cast<double>(result.mismatches), "count"});
  result.dropped_spans = shadow.dropped();
  if (!trace_out.empty() && !shadow.WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "pitbench: cannot write %s\n", trace_out.c_str());
  }
  return result;
}

}  // namespace pitbench
