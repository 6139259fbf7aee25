#include "src/stream/stream_session.h"

#include <algorithm>

#include "src/core/tree_schema.h"
#include "src/elog/eval.h"
#include "src/html/parser.h"
#include "src/tree/serialize.h"
#include "src/util/check.h"
#include "src/wrapper/wrapper.h"

namespace mdatalog::stream {

using core::SchemaPred;

namespace {

uint64_t DerivedKey(core::PredId pred, tree::NodeId node) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(pred)) << 32) |
         static_cast<uint32_t>(node);
}

constexpr uint8_t kInStripped = 1;
constexpr uint8_t kInKept = 2;
constexpr uint8_t kEmitted = 4;

}  // namespace

StreamSession::StreamSession(
    std::shared_ptr<const runtime::CompiledWrapperProgram> program,
    std::string project_attr, StreamOptions options,
    runtime::RequestOptions request, telemetry::Telemetry* telemetry)
    : program_(std::move(program)),
      options_(std::move(options)),
      request_(std::move(request)),
      control_(request_.deadline, request_.cancel.get()),
      tree_(project_attr, this),
      telemetry_(telemetry),
      external_trace_(request_.trace) {
  MD_CHECK(program_ != nullptr);
  if (external_trace_ != nullptr) {
    // The session records into the caller's trace for its whole lifetime;
    // hold it inflight so destroying the trace first trips the debug assert
    // instead of a use-after-free.
    external_trace_->AddInflightRequest();
  } else if (telemetry_ != nullptr) {
    trace_ = telemetry_->StartTrace("stream");
  }
  if (program_->has_ground_plan) {
    eval_stripped_ = IncrementalTmnfEval::Compile(program_->tmnf);
  }
  incremental_ = eval_stripped_ != nullptr;
  if (incremental_) {
    eval_kept_ = IncrementalTmnfEval::Compile(program_->tmnf);
    MD_CHECK(eval_kept_ != nullptr);  // same program, same outcome

    const core::PredicateTable& preds = program_->tmnf.preds();
    const std::vector<bool> intensional = program_->tmnf.IntensionalMask();
    edb_preds_.fill(-1);
    for (core::PredId p = 0; p < preds.size(); ++p) {
      if (intensional[p]) continue;
      std::optional<core::SchemaRef> ref =
          core::ClassifySchemaPred(preds.Name(p), preds.Arity(p));
      if (!ref.has_value()) continue;
      switch (ref->pred) {
        case SchemaPred::kLabel:
          label_preds_.emplace(std::move(ref->label), p);
          break;
        case SchemaPred::kChildK:
          childk_preds_.emplace_back(ref->k, p);
          break;
        default:
          edb_preds_[static_cast<int>(ref->pred)] = p;
          break;
      }
    }
    const auto& patterns = program_->prepared.extraction_patterns;
    for (size_t i = 0; i < patterns.size(); ++i) {
      const core::PredId p = program_->pattern_preds[i];
      if (p < 0) continue;
      if (pred_patterns_.find(p) == pred_patterns_.end()) {
        pattern_pred_list_.push_back(p);
      }
      pred_patterns_[p].push_back(static_cast<int32_t>(i));
    }
    eval_stripped_->SetDeriveHook(pattern_pred_list_,
                                  [this](core::PredId pred, int32_t node) {
                                    derived_[DerivedKey(pred, node)] |=
                                        kInStripped;
                                    MaybeEmit(pred, node);
                                  });
    eval_kept_->SetDeriveHook(pattern_pred_list_,
                              [this](core::PredId pred, int32_t node) {
                                derived_[DerivedKey(pred, node)] |= kInKept;
                                MaybeEmit(pred, node);
                              });
  }
  // The tree constructor's synthetic root (node 0): whether it survives into
  // the output tree is settled at end of input. Until then the two
  // evaluators disagree about it by design: the kept world knows everything
  // about node 0 up front, the stripped world never hears of it (node 0
  // enters its domain factless and linkless, so no derivation can ever touch
  // it).
  closed_.push_back(false);
  if (incremental_) {
    eval_stripped_->AddNode(0, -1);
    eval_kept_->AddNode(0, -1);
    AssertUnary(eval_kept_.get(), SchemaPred::kRoot, 0);
    AssertLabel(eval_kept_.get(), "#document", 0);
  }
}

StreamSession::~StreamSession() {
  if (external_trace_ != nullptr) {
    external_trace_->ReleaseInflightRequest();
  }
}

util::Status StreamSession::Terminal(util::Status status) {
  if (!status.ok() && status_.ok()) status_ = status;
  if (!terminal_) {
    terminal_ = true;
    if (options_.on_finish) options_.on_finish(status);
  }
  return status;
}

util::Status StreamSession::CheckLive() {
  if (!status_.ok()) return status_;
  if (finished_) {
    return util::Status::FailedPrecondition(
        "stream session already finished");
  }
  if (!control_.unbounded()) {
    util::Status s = control_.Check();
    if (!s.ok()) return Terminal(std::move(s));
  }
  return util::Status::OK();
}

util::Status StreamSession::PropagateAll() {
  telemetry::TraceSpan span(cur_trace(), "stream.propagate");
  int64_t facts_before = 0;
  if (span) {
    for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
      if (ev != nullptr) facts_before += ev->num_facts();
    }
  }
  for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
    if (ev != nullptr) MD_RETURN_NOT_OK(ev->Propagate(control()));
  }
  if (span) {
    int64_t facts_after = 0;
    for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
      if (ev != nullptr) facts_after += ev->num_facts();
    }
    span.Value("delta", facts_after - facts_before);
  }
  return util::Status::OK();
}

void StreamSession::UpdateEdbPeak() {
  int64_t bytes = 0;
  for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
    if (ev != nullptr) bytes += ev->ApproxBytes();
  }
  peak_edb_bytes_ = std::max(peak_edb_bytes_, bytes);
}

void StreamSession::SettleSessionTrace() {
  if (!terminal_) return;
  if (telemetry_ != nullptr) {
    // The peaks survive the session as registry gauges (process-wide highs)
    // even when this particular request was not traced.
    telemetry_->registry().GetGauge("stream.peak_live_nodes")
        ->SetMax(peak_live_nodes_);
    telemetry_->registry().GetGauge("stream.peak_edb_bytes")
        ->SetMax(peak_edb_bytes_);
  }
  telemetry::TraceContext* trace = cur_trace();
  if (trace == nullptr) return;
  trace->set_page_bytes(bytes_fed_);
  trace->set_nodes(tree_.builder().size());
  const util::StatusCode code =
      status_.ok() ? util::StatusCode::kOk : status_.code();
  if (trace_ != nullptr && telemetry_ != nullptr) {
    telemetry_->FinishTrace(std::move(trace_), code);
  } else {
    // Caller-owned (or orphaned) trace: close it, the caller keeps it.
    trace->set_status(code);
    trace->Close();
    trace_.reset();
  }
}

util::Status StreamSession::Feed(std::string_view chunk) {
  const telemetry::TraceScope scope(cur_trace());
  util::Status s = FeedImpl(chunk);
  // Settled only after every span above has unwound: finishing the trace
  // moves its span log, and a live TraceSpan still points into it.
  SettleSessionTrace();
  return s;
}

util::Status StreamSession::FeedImpl(std::string_view chunk) {
  MD_RETURN_NOT_OK(CheckLive());
  bytes_fed_ += static_cast<int64_t>(chunk.size());
  telemetry::TraceSpan span(cur_trace(), "stream.feed");
  span.Value("bytes", static_cast<int64_t>(chunk.size()));
  std::vector<html::Token> tokens;
  util::Status s = tokenizer_.Feed(chunk, &tokens, control());
  if (!s.ok()) return Terminal(std::move(s));
  const int32_t nodes_before = tree_.builder().size();
  for (const html::Token& token : tokens) tree_.Add(token);
  span.Value("nodes", tree_.builder().size() - nodes_before);
  s = PropagateAll();
  if (!s.ok()) return Terminal(std::move(s));
  UpdateEdbPeak();
  return util::Status::OK();
}

void StreamSession::NodeCreated(tree::NodeId n, tree::NodeId parent,
                                int32_t k, const html::Token& /*token*/) {
  closed_.push_back(false);
  peak_live_nodes_ = std::max(peak_live_nodes_, ++live_nodes_);
  if (!incremental_) return;
  const tree::NodeId prev = tree_.builder().prev_sibling(n);
  const std::string& label = tree_.builder().label_name(n);

  // A second top-level node refutes the stripped hypothesis before any fact
  // about this node is asserted.
  if (parent == 0 && k == 2 && !settled_) ResolveKept();

  if (eval_stripped_ != nullptr) {
    eval_stripped_->AddNode(n, prev);
    AssertLabel(eval_stripped_.get(), label, n);
    if (parent == 0) {
      // The first top-level node IS the root of the stripped tree (internal
      // ids run one above the batch EDB's). No sibling/parent facts: the
      // external root has none in TreeDatabase::Materialize.
      AssertUnary(eval_stripped_.get(), SchemaPred::kRoot, n);
    } else {
      if (prev == tree::kNoNode) {
        AssertBinary(eval_stripped_.get(), SchemaPred::kFirstChild, parent, n);
        AssertUnary(eval_stripped_.get(), SchemaPred::kFirstSibling, n);
      } else {
        AssertBinary(eval_stripped_.get(), SchemaPred::kNextSibling, prev, n);
      }
      AssertBinary(eval_stripped_.get(), SchemaPred::kChild, parent, n);
      AssertChildK(eval_stripped_.get(), k, parent, n);
    }
  }
  if (eval_kept_ != nullptr) {
    // In the kept world node 0 is an ordinary node: top-level children link
    // to it exactly like any other parent.
    eval_kept_->AddNode(n, prev);
    AssertLabel(eval_kept_.get(), label, n);
    if (prev == tree::kNoNode) {
      AssertBinary(eval_kept_.get(), SchemaPred::kFirstChild, parent, n);
      AssertUnary(eval_kept_.get(), SchemaPred::kFirstSibling, n);
    } else {
      AssertBinary(eval_kept_.get(), SchemaPred::kNextSibling, prev, n);
    }
    AssertBinary(eval_kept_.get(), SchemaPred::kChild, parent, n);
    AssertChildK(eval_kept_.get(), k, parent, n);
  }
}

void StreamSession::NodeClosed(tree::NodeId n) {
  closed_[n] = true;
  --live_nodes_;
  if (!incremental_) return;
  const tree::NodeId lc = tree_.builder().last_child(n);
  for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
    if (ev == nullptr) continue;
    if (lc == tree::kNoNode) {
      AssertUnary(ev, SchemaPred::kLeaf, n);
    } else {
      AssertUnary(ev, SchemaPred::kLastSibling, lc);
      AssertBinary(ev, SchemaPred::kLastChild, n, lc);
    }
  }
  // Anything already derived for this node was held back by the closed_
  // check; it is eligible now.
  for (const core::PredId pred : pattern_pred_list_) MaybeEmit(pred, n);
}

void StreamSession::ResolveKept() {
  settled_ = true;
  eval_stripped_.reset();
  // The emission criterion just relaxed from derived-in-both to
  // derived-in-kept: flush what the kept world had and the stripped world
  // was still missing.
  FlushEligible();
}

void StreamSession::MaybeEmit(core::PredId pred, tree::NodeId node) {
  const auto it = derived_.find(DerivedKey(pred, node));
  if (it == derived_.end()) return;
  uint8_t& bits = it->second;
  if (bits & kEmitted) return;
  if (!closed_[node]) return;
  // Pre-resolution, a result must hold under both hypotheses to be sound;
  // afterwards the winner alone decides.
  const uint8_t need = settled_    ? kInKept
                       : stripped_ ? kInStripped
                                   : (kInStripped | kInKept);
  if ((bits & need) != need) return;
  bits |= kEmitted;
  for (const int32_t idx : pred_patterns_[pred]) EmitResult(idx, node);
}

void StreamSession::FlushEligible() {
  std::vector<uint64_t> keys;
  keys.reserve(derived_.size());
  for (const auto& [key, bits] : derived_) {
    if (!(bits & kEmitted)) keys.push_back(key);
  }
  // Deterministic emission order regardless of hash-map iteration: by node,
  // then pattern pred.
  std::sort(keys.begin(), keys.end(), [](uint64_t a, uint64_t b) {
    const uint32_t na = static_cast<uint32_t>(a), nb = static_cast<uint32_t>(b);
    return na != nb ? na < nb : a < b;
  });
  for (const uint64_t key : keys) {
    MaybeEmit(static_cast<core::PredId>(key >> 32),
              static_cast<tree::NodeId>(static_cast<uint32_t>(key)));
  }
}

void StreamSession::AssertLabel(IncrementalTmnfEval* ev,
                                const std::string& label, tree::NodeId n) {
  const auto it = label_preds_.find(label);
  if (it != label_preds_.end()) ev->AddUnaryFact(it->second, n);
}

void StreamSession::AssertChildK(IncrementalTmnfEval* ev, int32_t k,
                                 tree::NodeId parent, tree::NodeId child) {
  for (const auto& [childk, pred] : childk_preds_) {
    if (childk == k) ev->AddBinaryFact(pred, parent, child);
  }
}

void StreamSession::EmitResult(int32_t pattern_index, tree::NodeId node) {
  if (!options_.on_result) return;
  StreamResult result;
  result.pattern = program_->prepared.extraction_patterns[pattern_index];
  const tree::TreeBuilder& partial = tree_.builder();
  result.label = partial.label_name(node);
  // The node's subtree has closed: it is the id range [node, last] of the
  // partial tree, concatenated exactly like Tree::SubtreeText.
  const tree::NodeId last = tree::LastDescendant(partial, node);
  for (tree::NodeId m = node; m <= last; ++m) result.text += partial.text(m);
  result.node = node;
  options_.on_result(result);
}

util::Result<std::string> StreamSession::Finish() {
  const telemetry::TraceScope scope(cur_trace());
  util::Result<std::string> result = FinishImpl();
  SettleSessionTrace();
  return result;
}

util::Result<std::string> StreamSession::FinishImpl() {
  MD_RETURN_NOT_OK(CheckLive());
  finished_ = true;
  telemetry::TraceSpan finish_span(cur_trace(), "stream.finish");

  std::vector<html::Token> tokens;
  util::Status s = tokenizer_.Finish(&tokens, control());
  if (!s.ok()) return Terminal(std::move(s));
  for (const html::Token& token : tokens) tree_.Add(token);
  // End of input closes everything still open.
  s = tree_.Finish();
  if (!s.ok()) return Terminal(std::move(s));
  stripped_ = tree_.strips_root();

  IncrementalTmnfEval* winner = nullptr;
  if (incremental_) {
    MD_DCHECK(stripped_ == !settled_);
    if (stripped_) {
      // Exactly one top-level node: the stripped hypothesis held. Its
      // evaluator has been complete since the last fact (root(1) was
      // asserted when node 1 was created).
      eval_kept_.reset();
      winner = eval_stripped_.get();
    } else {
      winner = eval_kept_.get();
      const tree::NodeId lc = tree_.builder().last_child(0);
      AssertUnary(winner, SchemaPred::kLastSibling, lc);
      AssertBinary(winner, SchemaPred::kLastChild, 0, lc);
    }
    closed_[0] = true;  // patterns may select the kept "#document" root
    {
      telemetry::TraceSpan span(cur_trace(), "stream.propagate");
      s = winner->Propagate(control());
      if (span) span.Value("facts", winner->num_facts());
    }
    UpdateEdbPeak();
    if (!s.ok()) return Terminal(std::move(s));
    // The hypothesis resolution relaxed the emission criterion; everything
    // the winner derived on closed subtrees (i.e. everything) must be out
    // before Finish returns.
    FlushEligible();
  }

  const tree::Tree out_tree = tree_.Build();

  elog::ElogResult matches;
  const auto& patterns = program_->prepared.extraction_patterns;
  if (incremental_) {
    // Stripping the root renumbers node m to m - 1 (CopySubtree over the id
    // range of node 1; see tree.h).
    const int32_t shift = stripped_ ? 1 : 0;
    for (size_t i = 0; i < patterns.size(); ++i) {
      const core::PredId pred = program_->pattern_preds[i];
      if (pred < 0) continue;  // never derivable: empty extent
      std::vector<tree::NodeId> extent = winner->Members(pred);
      for (tree::NodeId& node : extent) node -= shift;
      matches.matches[patterns[i]] = std::move(extent);
    }
  } else {
    // Fallback (Elog⁻Δ etc.): the page streamed, the evaluation is batch.
    util::Result<elog::ElogResult> result = elog::EvaluateElog(
        program_->prepared.program, out_tree, elog::kDefaultMaxDerivations,
        control());
    if (!result.ok()) return Terminal(result.status());
    matches = *std::move(result);
    if (options_.on_result) {
      const int32_t shift = stripped_ ? 1 : 0;
      for (const std::string& pattern : patterns) {
        const auto it = matches.matches.find(pattern);
        if (it == matches.matches.end()) continue;
        for (const tree::NodeId node : it->second) {
          StreamResult r;
          r.pattern = pattern;
          r.label = out_tree.label_name(node);
          r.text = out_tree.SubtreeText(node);
          r.node = node + shift;  // same internal-id convention as streaming
          options_.on_result(r);
        }
      }
    }
  }

  std::string xml =
      tree::ToXml(wrapper::BuildOutputTree(patterns, matches, out_tree));
  Terminal(util::Status::OK());
  return xml;
}

}  // namespace mdatalog::stream
