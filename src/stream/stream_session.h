#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/runtime/runtime.h"
#include "src/stream/incremental_eval.h"
#include "src/stream/stream_types.h"
#include "src/telemetry/telemetry.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file stream_session.h
/// Streaming incremental extraction: one wrap request whose page arrives in
/// chunks. Feed() pushes bytes through the incremental tokenizer, grows the
/// document tree with the batch parsers' html::TreeConstructor, forwards its
/// node-created / node-closed events to the incremental TMNF evaluators, and
/// runs their semi-naive delta rounds — extraction results are emitted via
/// StreamOptions::on_result as soon as they are both derived and final,
/// typically long before end of input. Finish() settles the root, runs the
/// last delta round and returns the output XML, byte-identical to what batch
/// WrapperRuntime::Wrap produces on the concatenated bytes — for every input
/// under every chunking (the invariant the differential harness in
/// tests/stream_test.cc pins).
///
/// Fact finality is the load-bearing idea: an evaluator asserts a node's
/// label when it is created and leaf/lastsibling when its element closes,
/// and reads the axes from the tree, whose links never change once made.
/// The EDB is therefore insert-only, datalog is monotone, and every pre-EOF
/// derivation is sound — see incremental_eval.h.
///
/// The one fact that is NOT known before end of input is the root: the tree
/// constructor strips the synthetic "#document" node when it ends up with
/// exactly one top-level child, so `root` is node 1 (internal) for ordinary
/// single-rooted HTML and node 0 for multi-rooted fragments — and almost
/// every derivation chain starts at `root`. Waiting for EOF would kill
/// streaming. Instead the session runs the SAME insert-only evaluator, over
/// one shared rule index and the one growing tree, in BOTH root worlds: the
/// stripped world is rooted at node 1 and never sees node 0 (its structure is
/// the batch EDB shifted up by one, and constant-free rules carry derivations
/// across the isomorphism), the kept world is rooted at node 0, labelled
/// "#document". A result emits before EOF only when it is derived in BOTH
/// worlds and its subtree is closed — sound whichever way the input ends.
/// The hypothesis resolves the moment a second top-level node arrives (kept)
/// or at Finish (stripped); the loser is discarded and the winner's
/// remaining closed derivations flush.
///
/// Programs outside the datalog pipeline (Elog⁻Δ builtins) degrade
/// gracefully: the session still parses incrementally but evaluates natively
/// at Finish (streaming() == false); results then all emit at Finish.

namespace mdatalog::stream {

class StreamSession : private html::TreeConstructor::Observer {
 public:
  /// `program` is a compiled wrapper from the runtime's program cache;
  /// `project_attr` mirrors WrapperHandle::project_attr (Remark 2.2
  /// attribute projection, applied to labels as nodes are created).
  /// `request` carries the deadline / cancel token; both the tokenizer and
  /// the delta rounds poll it. `telemetry`, when non-null (the runtime
  /// passes its own bundle), traces the session ("stream" kind: one
  /// stream.feed span per chunk, stream.propagate per delta round batch,
  /// stream.finish) and books the session's peak gauges at termination; it
  /// must outlive the session. request.trace overrides the sampling policy
  /// exactly as in Wrap.
  StreamSession(std::shared_ptr<const runtime::CompiledWrapperProgram> program,
                std::string project_attr, StreamOptions options,
                runtime::RequestOptions request = {},
                telemetry::Telemetry* telemetry = nullptr);

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Releases the session's hold on a caller-owned trace
  /// (TraceContext::inflight_requests — the trace must outlive the session,
  /// asserted by the trace's destructor in debug builds).
  ~StreamSession();

  /// Consumes the next chunk of the page. Chunk boundaries are arbitrary —
  /// mid-tag, mid-attribute, mid-entity, one byte at a time — and never
  /// observable in the results. On error (deadline, cancellation) the
  /// session is dead: every later call returns the same status.
  util::Status Feed(std::string_view chunk);

  /// Ends the input, runs evaluation to fixpoint, emits any still-pending
  /// results and returns the output XML — byte-identical to batch Wrap on
  /// the full page. Calling Feed or Finish afterwards fails.
  util::Result<std::string> Finish();

  /// True when the program compiled for incremental evaluation (results can
  /// emit before Finish); false = parse-only streaming with batch evaluation
  /// at Finish.
  bool streaming() const { return rules_ != nullptr; }
  /// Whether the synthetic "#document" root was stripped from the output
  /// tree (final ids = internal ids - 1). Meaningful once the second
  /// top-level node arrives (false from then on) or after Finish.
  bool stripped() const { return stripped_; }
  /// Bytes held back by the tokenizer waiting for a construct to complete
  /// (bounded by the longest tag/comment/script body, not the page).
  size_t buffered_bytes() const { return tokenizer_.buffered_bytes(); }

  /// Bounded-memory observability: the largest number of simultaneously
  /// open (subtree-incomplete) nodes the session has held. Open nodes are
  /// the part of the tree whose EDB facts are still pending — for
  /// well-formed input this tracks nesting depth, not page length.
  int64_t peak_live_nodes() const { return peak_live_nodes_; }
  /// Peak heap footprint of the session's incremental evaluation: both
  /// hypothesis worlds while both are live and the emission sets — the tree
  /// excluded. 0 for non-incremental sessions.
  int64_t peak_edb_bytes() const { return peak_edb_bytes_; }

 private:
  /// Terminal-state bookkeeping: latches the first non-OK status and fires
  /// on_finish exactly once (also on successful Finish, with OK).
  util::Status Terminal(util::Status status);
  util::Status CheckLive();

  /// Feed/Finish bodies; the public wrappers install the trace scope and
  /// settle the session trace after every span has unwound (the trace must
  /// not be finished while a stack span still points into it).
  util::Status FeedImpl(std::string_view chunk);
  util::Result<std::string> FinishImpl();
  /// After Terminal fired: books the peak gauges and finishes (owned) or
  /// closes (caller-owned) the session trace. Idempotent.
  void SettleSessionTrace();
  /// The session's trace: the caller-owned one from RequestOptions::trace,
  /// or the sampled one the session started. May be null.
  telemetry::TraceContext* cur_trace() const {
    return external_trace_ != nullptr ? external_trace_ : trace_.get();
  }
  void UpdateEdbPeak();

  /// Tree events, forwarded to the live evaluators.
  void NodeCreated(tree::NodeId n, tree::NodeId parent, int32_t k,
                   const html::Token& token) override;
  void NodeClosed(tree::NodeId n) override;
  /// Second top-level node arrived: the root is definitely kept. Drops the
  /// stripped-hypothesis evaluator and flushes everything the kept world has
  /// already derived on closed subtrees.
  void ResolveKept();
  /// Emits (pattern pred, node) if every live evaluator holds it, its
  /// subtree is closed, and it has not emitted yet. `slot` indexes
  /// pattern_preds_.
  void MaybeEmit(int32_t slot, tree::NodeId node);
  /// Re-examines every derivation of the one live evaluator — called when
  /// the hypothesis resolves and the emission criterion relaxes.
  void FlushEligible();
  void EmitResult(int32_t pattern_index, tree::NodeId node);
  util::Status PropagateAll();

  const util::EvalControl* control() const {
    return control_.unbounded() ? nullptr : &control_;
  }

  const std::shared_ptr<const runtime::CompiledWrapperProgram> program_;
  const StreamOptions options_;
  const runtime::RequestOptions request_;  // keeps the cancel token alive
  const util::EvalControl control_;

  html::StreamTokenizer tokenizer_;
  html::TreeConstructor tree_;  // reports to this session's Node* events
  std::vector<bool> closed_;    // per node: subtree complete

  /// One predicate that extraction patterns select, in PredId order.
  struct PatternPred {
    core::PredId pred;
    std::vector<int32_t> patterns;  // indices into extraction_patterns
    GrowingNodeSet emitted;
  };
  std::vector<PatternPred> pattern_preds_;  // the evaluators' watch list
  /// The program's rule index, null when it is outside the TMNF fragment
  /// (batch evaluation at Finish). Both worlds evaluate it.
  std::unique_ptr<const IncrementalTmnfEval::Rules> rules_;
  /// The two hypothesis worlds, both engaged when rules_ is; the loser is
  /// reset at resolution.
  std::unique_ptr<IncrementalTmnfEval> eval_stripped_;
  std::unique_ptr<IncrementalTmnfEval> eval_kept_;

  bool settled_ = false;   // true once a second top-level node exists (kept)
  bool stripped_ = false;  // the root-strip verdict, decided at Finish
  bool finished_ = false;
  bool terminal_ = false;  // on_finish fired
  util::Status status_;    // first error, latched

  telemetry::Telemetry* const telemetry_;           // may be null
  telemetry::TraceContext* const external_trace_;   // caller-owned, may be null
  std::unique_ptr<telemetry::TraceContext> trace_;  // owned, may be null
  int64_t bytes_fed_ = 0;
  int64_t live_nodes_ = 0;
  int64_t peak_live_nodes_ = 0;
  int64_t peak_edb_bytes_ = 0;
};

}  // namespace mdatalog::stream
