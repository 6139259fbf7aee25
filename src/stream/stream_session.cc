#include "src/stream/stream_session.h"

#include <algorithm>

#include "src/elog/eval.h"
#include "src/html/parser.h"
#include "src/tree/serialize.h"
#include "src/util/check.h"
#include "src/wrapper/wrapper.h"

namespace mdatalog::stream {

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
  closed_.push_back(false);  // the synthetic root (node 0)
  if (!program_->has_ground_plan) return;
  // Group the extraction patterns by their predicate, in PredId order.
  std::vector<std::pair<core::PredId, int32_t>> by_pred;
  for (size_t i = 0; i < program_->pattern_preds.size(); ++i) {
    const core::PredId p = program_->pattern_preds[i];
    if (p >= 0) by_pred.emplace_back(p, static_cast<int32_t>(i));
  }
  std::sort(by_pred.begin(), by_pred.end());
  std::vector<core::PredId> watched;
  for (const auto& [pred, pattern] : by_pred) {
    if (watched.empty() || watched.back() != pred) {
      watched.push_back(pred);
      pattern_preds_.push_back({pred, {}, {}});
    }
    pattern_preds_.back().patterns.push_back(pattern);
  }
  rules_ = IncrementalTmnfEval::Rules::Compile(program_->tmnf, watched);
  if (rules_ == nullptr) return;
  const auto emit = [this](int32_t slot, tree::NodeId node) {
    MaybeEmit(slot, node);
  };
  // The tree constructor's synthetic root (node 0): whether it survives into
  // the output tree is settled at end of input. The stripped world is rooted
  // at node 1 and never hears of node 0; the kept world is rooted at it.
  eval_stripped_ =
      std::make_unique<IncrementalTmnfEval>(*rules_, tree_.builder(), 1, emit);
  eval_kept_ =
      std::make_unique<IncrementalTmnfEval>(*rules_, tree_.builder(), 0, emit);
  eval_kept_->NodeCreated(0);
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
  for (const PatternPred& pp : pattern_preds_) {
    bytes += pp.emitted.ApproxBytes();
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
  if (rules_ == nullptr) return;
  // A second top-level node refutes the stripped hypothesis before the
  // stripped world could hear of it.
  if (parent == 0 && k == 2 && !settled_) ResolveKept();
  for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
    if (ev != nullptr) ev->NodeCreated(n);
  }
}

void StreamSession::NodeClosed(tree::NodeId n) {
  closed_[n] = true;
  --live_nodes_;
  if (rules_ == nullptr) return;
  for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
    if (ev != nullptr) ev->NodeClosed(n);
  }
  // Anything already derived for this node was held back by the closed_
  // check; it is eligible now.
  for (size_t slot = 0; slot < pattern_preds_.size(); ++slot) {
    MaybeEmit(static_cast<int32_t>(slot), n);
  }
}

void StreamSession::ResolveKept() {
  settled_ = true;
  eval_stripped_.reset();
  // The emission criterion just relaxed from derived-in-both to
  // derived-in-kept: flush what the kept world had and the stripped world
  // was still missing.
  FlushEligible();
}

void StreamSession::MaybeEmit(int32_t slot, tree::NodeId node) {
  PatternPred& pp = pattern_preds_[slot];
  if (!closed_[node] || pp.emitted.Contains(node)) return;
  // Pre-resolution, a result must hold under both hypotheses to be sound;
  // afterwards the winner alone decides.
  for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
    if (ev != nullptr && !ev->Contains(pp.pred, node)) return;
  }
  pp.emitted.Insert(node);
  for (const int32_t idx : pp.patterns) EmitResult(idx, node);
}

void StreamSession::FlushEligible() {
  MD_DCHECK((eval_stripped_ == nullptr) != (eval_kept_ == nullptr));
  const IncrementalTmnfEval& live =
      eval_kept_ != nullptr ? *eval_kept_ : *eval_stripped_;
  // Deterministic emission order: by node, then pattern pred (the slots are
  // in PredId order).
  std::vector<std::pair<tree::NodeId, int32_t>> pending;
  for (size_t slot = 0; slot < pattern_preds_.size(); ++slot) {
    const PatternPred& pp = pattern_preds_[slot];
    for (const tree::NodeId node : live.Members(pp.pred)) {
      if (!pp.emitted.Contains(node)) {
        pending.emplace_back(node, static_cast<int32_t>(slot));
      }
    }
  }
  std::sort(pending.begin(), pending.end());
  for (const auto& [node, slot] : pending) MaybeEmit(slot, node);
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
  if (rules_ != nullptr) {
    MD_DCHECK(stripped_ == !settled_);
    if (stripped_) {
      // Exactly one top-level node: the stripped hypothesis held. Its
      // evaluator has been complete since the last event (node 0, which
      // only now closes, is outside its world).
      eval_kept_.reset();
      winner = eval_stripped_.get();
    } else {
      winner = eval_kept_.get();
      winner->NodeClosed(0);
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
  if (rules_ != nullptr) {
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
