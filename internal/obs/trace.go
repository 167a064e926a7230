package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind string

// The event vocabulary. Every event is stamped with the virtual time at
// which it happened; atoms are identified by (time step, Morton code) so
// the trace stays free of internal pointer types.
const (
	// KindDecision is one atom selected by a scheduling decision: the
	// scheduler's name, the decision's batch size K, and the atom's
	// workload throughput U_t / aged U_e / age bias α at pick time.
	KindDecision Kind = "decision"
	// KindCacheHit / KindCacheMiss / KindCacheEvict are per-atom cache
	// events; Step doubles as the segment for per-step hit accounting.
	KindCacheHit   Kind = "cache_hit"
	KindCacheMiss  Kind = "cache_miss"
	KindCacheEvict Kind = "cache_evict"
	// KindDiskRead is one read issued to the simulated array; Seq marks a
	// read that continued a sequential run (no seek charged).
	KindDiskRead Kind = "disk_read"
	// KindEdgeAdmit / KindEdgeReject are gating-edge decisions in the
	// precedence graph: query (Job, QSeq) against (Job2, QSeq2).
	KindEdgeAdmit  Kind = "edge_admit"
	KindEdgeReject Kind = "edge_reject"
	// KindGateBlock fires the first time gating holds an arrived query
	// back; KindGateAdmit fires when it finally dispatches, carrying the
	// accumulated Wait.
	KindGateBlock Kind = "gate_block"
	KindGateAdmit Kind = "gate_admit"
	// KindPrefetch is one atom fetched by trajectory prefetching.
	KindPrefetch Kind = "prefetch"
	// KindAlpha is an adaptation-run boundary: the run's smoothed inputs
	// and the α the controller settled on.
	KindAlpha Kind = "alpha"
	// KindFaultRetry is one retried atom read after an injected transient
	// disk error: Attempt is the zero-based retry index and Cost the
	// backoff charged to the virtual clock before the next attempt.
	KindFaultRetry Kind = "fault_retry"
	// KindFaultAbort is a read abandoned after exhausting retries (or a
	// non-retryable failure); the engine run errors out.
	KindFaultAbort Kind = "fault_abort"
	// KindNodeCrash marks the injector killing the node; Node carries the
	// node index.
	KindNodeCrash Kind = "node_crash"
	// KindStallAbort marks the engine giving up after its stall limit of
	// iterations without progress (gated-execution deadlock).
	KindStallAbort Kind = "stall_abort"
	// KindSpan is one completed query lifecycle: the full response-time
	// attribution of the query, emitted at completion (see Span).
	KindSpan Kind = "span"
	// KindReqSpan is one served HTTP request's wall-clock lifecycle: the
	// serving layer's request-time attribution, carrying the request ID
	// that stitches it to the engine span (see ReqSpan).
	KindReqSpan Kind = "reqspan"
	// KindDecisionRecord is one scheduler decision round captured by the
	// flight recorder: the winning step and batch, the runner-up steps
	// with their mean-utility margins, and the gating edges holding
	// arrived queries (see DecisionRecord). Distinct from KindDecision,
	// which is the per-atom pick event.
	KindDecisionRecord Kind = "decision_record"
	// KindFooter is the trace's closing record, written once by Close:
	// the emission total and the drop counters that make a truncated or
	// error-shortened trace detectable.
	KindFooter Kind = "trace_footer"
)

// Kinds lists every event kind in the order reports tabulate them. The
// footer is a property of the file, not an event, and is not listed.
var Kinds = []Kind{
	KindDecision, KindCacheHit, KindCacheMiss, KindCacheEvict, KindDiskRead,
	KindEdgeAdmit, KindEdgeReject, KindGateBlock, KindGateAdmit,
	KindPrefetch, KindAlpha, KindFaultRetry, KindFaultAbort, KindNodeCrash,
	KindStallAbort, KindSpan, KindReqSpan, KindDecisionRecord,
}

// Event is one structured trace record. Fields are a flat union across
// kinds (unused ones are omitted from the JSONL encoding) so a trace file
// is one self-describing object per line.
type Event struct {
	T    time.Duration `json:"t"` // virtual time, nanoseconds
	Kind Kind          `json:"kind"`

	Sched string  `json:"sched,omitempty"` // decision: scheduler name
	Step  int     `json:"step,omitempty"`  // atom time step (segment)
	Code  uint64  `json:"code,omitempty"`  // atom Morton code
	K     int     `json:"k,omitempty"`     // decision: atoms in this batch
	Ut    float64 `json:"ut,omitempty"`    // workload throughput at pick time
	Ue    float64 `json:"ue,omitempty"`    // aged metric at pick time
	Alpha float64 `json:"alpha,omitempty"` // age bias

	Seq   bool          `json:"seq,omitempty"`   // disk: sequential run
	Addr  int64         `json:"addr,omitempty"`  // disk: extent address
	Bytes int64         `json:"bytes,omitempty"` // disk: extent size
	Cost  time.Duration `json:"cost,omitempty"`  // charged virtual time

	Job   int64         `json:"job,omitempty"`   // gating: job id
	QSeq  int           `json:"qseq,omitempty"`  // gating: query sequence
	Job2  int64         `json:"job2,omitempty"`  // gating edge: partner job
	QSeq2 int           `json:"qseq2,omitempty"` // gating edge: partner seq
	Query int64         `json:"query,omitempty"` // gating: query id
	Wait  time.Duration `json:"wait,omitempty"`  // gating: admit − first block

	Run int     `json:"run,omitempty"` // alpha: adaptation-run index
	Rt  float64 `json:"rt,omitempty"`  // alpha: smoothed mean response (s)
	Tp  float64 `json:"tp,omitempty"`  // alpha: smoothed throughput (q/s)

	Attempt int `json:"attempt,omitempty"` // fault: zero-based retry index
	Node    int `json:"node,omitempty"`    // fault: crashed node index

	Span   *Span           `json:"span,omitempty"`   // span: the completed lifecycle
	Req    *ReqSpan        `json:"req,omitempty"`    // reqspan: the served request
	Flight *DecisionRecord `json:"flight,omitempty"` // decision_record: one scheduler round
	Footer *TraceFooter    `json:"footer,omitempty"` // trace_footer: closing record
}

// TraceFooter is the payload of the trace's closing record.
type TraceFooter struct {
	// Total is the number of events emitted over the tracer's lifetime.
	Total int64 `json:"total"`
	// SinkDropped counts event lines the sink did not receive whole: a
	// failed write, or an event that did not encode.
	SinkDropped int64 `json:"sink_dropped"`
}

// flushBytes is how much encoded trace the tracer buffers before it
// writes to its sink.
const flushBytes = 4096

// Tracer streams events as JSONL to its sink; the file is the one record
// of a run (read it back with ScanTrace). A nil *Tracer is a valid
// disabled tracer: every method is a no-op, so instrumented code passes
// tracers around without branching.
type Tracer struct {
	mu          sync.Mutex
	sink        io.Writer
	buf         bytes.Buffer // encoded lines not yet written to sink
	lines       int64        // lines in buf
	enc         *json.Encoder
	total       int64
	sinkDropped int64
	err         error // the first sink or encoding error
	footerDone  bool
}

// NewTracer creates a tracer that writes every event to sink as one JSON
// object per line; call Flush or Close before reading the sink.
func NewTracer(sink io.Writer) *Tracer {
	t := &Tracer{sink: sink}
	t.enc = json.NewEncoder(&t.buf)
	return t
}

// Enabled reports whether events are being recorded. Call sites that must
// compute event payloads (e.g. re-deriving U_t/U_e for a picked atom) may
// guard on this to keep the disabled path free of the computation.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event: it encodes the line into the buffer and
// writes the buffer through once it is full. Nil-safe no-op.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if err := t.enc.Encode(&ev); err != nil {
		t.fail(err, 1)
		return
	}
	t.lines++
	if t.buf.Len() >= flushBytes {
		t.writeBuf()
	}
}

// writeBuf writes the buffered lines to the sink. The lines a failed
// write did not land whole count as dropped; the tracer keeps going, so a
// sink that recovers still receives the rest of the trace and its footer.
// Called with t.mu held.
func (t *Tracer) writeBuf() {
	if t.buf.Len() == 0 {
		return
	}
	n, err := t.sink.Write(t.buf.Bytes())
	if err != nil {
		t.fail(err, t.lines-int64(bytes.Count(t.buf.Bytes()[:n], []byte{'\n'})))
	}
	t.buf.Reset()
	t.lines = 0
}

// fail counts lost lines and keeps the first error.
func (t *Tracer) fail(err error, lost int64) {
	t.sinkDropped += lost
	if t.err == nil {
		t.err = err
	}
}

// Total returns the number of events emitted so far (0 for nil).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// SinkDropped returns the number of event lines the sink lost. A trace
// with lines missing stays detectable rather than silently short: the
// footer carries the count, and ScanTrace's reader checks it.
func (t *Tracer) SinkDropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkDropped
}

// FoldTraceDropped brings reg's jaws_trace_dropped_total up to the
// tracer's sink drop count, by delta so the counter stays monotonic across
// repeated folds, and returns that count. Without a tracer it folds
// nothing and returns 0.
func FoldTraceDropped(reg *Registry, t *Tracer) int64 {
	if t == nil {
		return 0
	}
	dropped := t.SinkDropped()
	c := reg.Counter("jaws_trace_dropped_total")
	if d := dropped - c.Value(); d > 0 {
		c.Add(d)
	}
	return dropped
}

// Flush writes buffered lines through to the sink and returns the first
// error the tracer met. Nil-safe.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writeBuf()
	return t.err
}

// Close writes the trace footer (once), flushes, and, when the sink is an
// io.Closer, closes it. Nil-safe. The footer carries the emission total
// and the drop count, so a consumer can distinguish a complete trace from
// one cut short by a crash or a failing sink.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.writeFooter()
	err := t.Flush()
	if c, ok := t.sink.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writeFooter writes the closing record after every event line (it is a
// property of the trace file, not a simulation event, so it is in neither
// the total nor the drop count). Idempotent.
func (t *Tracer) writeFooter() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.footerDone {
		return
	}
	t.footerDone = true
	t.writeBuf()
	t.enc.Encode(&Event{Kind: KindFooter, Footer: &TraceFooter{Total: t.total, SinkDropped: t.sinkDropped}})
	if _, err := t.sink.Write(t.buf.Bytes()); err != nil && t.err == nil {
		t.err = err
	}
	t.buf.Reset()
}

// --- typed emitters ------------------------------------------------------
//
// Each emitter front-loads the nil check so a disabled tracer costs one
// branch; arguments are plain scalars the caller already has in hand.

// Decision records one atom picked by a scheduling decision.
func (t *Tracer) Decision(now time.Duration, sched string, step int, code uint64, k int, ut, ue, alpha float64) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindDecision, Sched: sched, Step: step, Code: code, K: k, Ut: ut, Ue: ue, Alpha: alpha})
}

// CacheHit records a hit on a resident atom.
func (t *Tracer) CacheHit(now time.Duration, step int, code uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindCacheHit, Step: step, Code: code})
}

// CacheMiss records a lookup that went to disk.
func (t *Tracer) CacheMiss(now time.Duration, step int, code uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindCacheMiss, Step: step, Code: code})
}

// CacheEvict records an eviction.
func (t *Tracer) CacheEvict(now time.Duration, step int, code uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindCacheEvict, Step: step, Code: code})
}

// DiskRead records one read against the simulated array.
func (t *Tracer) DiskRead(now time.Duration, addr, bytes int64, seq bool, cost time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindDiskRead, Addr: addr, Bytes: bytes, Seq: seq, Cost: cost})
}

// GateEdge records a gating-edge admission decision between two queries.
func (t *Tracer) GateEdge(now time.Duration, admitted bool, job int64, qseq int, job2 int64, qseq2 int) {
	if t == nil {
		return
	}
	kind := KindEdgeAdmit
	if !admitted {
		kind = KindEdgeReject
	}
	t.Emit(Event{T: now, Kind: kind, Job: job, QSeq: qseq, Job2: job2, QSeq2: qseq2})
}

// GateBlock records the first time gating held a query back.
func (t *Tracer) GateBlock(now time.Duration, queryID, job int64, qseq int) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindGateBlock, Query: queryID, Job: job, QSeq: qseq})
}

// GateAdmit records a previously blocked query entering the workload
// queues after wait of gating delay.
func (t *Tracer) GateAdmit(now time.Duration, queryID, job int64, qseq int, wait time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindGateAdmit, Query: queryID, Job: job, QSeq: qseq, Wait: wait})
}

// Prefetch records one atom loaded by trajectory prefetching for job.
func (t *Tracer) Prefetch(now time.Duration, job int64, step int, code uint64, cost time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindPrefetch, Job: job, Step: step, Code: code, Cost: cost})
}

// Alpha records an adaptation-run boundary.
func (t *Tracer) Alpha(now time.Duration, run int, alpha, rt, tp float64) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindAlpha, Run: run, Alpha: alpha, Rt: rt, Tp: tp})
}

// FaultRetry records a retried atom read: the atom, the zero-based retry
// index, and the backoff charged before the next attempt.
func (t *Tracer) FaultRetry(now time.Duration, step int, code uint64, attempt int, backoff time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindFaultRetry, Step: step, Code: code, Attempt: attempt, Cost: backoff})
}

// FaultAbort records a read abandoned after attempt+1 failed attempts.
func (t *Tracer) FaultAbort(now time.Duration, step int, code uint64, attempt int) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindFaultAbort, Step: step, Code: code, Attempt: attempt})
}

// NodeCrash records the injector killing node at virtual time now.
func (t *Tracer) NodeCrash(now time.Duration, node int) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindNodeCrash, Node: node})
}

// StallAbort records the engine aborting a stalled run.
func (t *Tracer) StallAbort(now time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{T: now, Kind: KindStallAbort})
}

// SpanDone records one completed query lifecycle, stamped at its
// completion time.
func (t *Tracer) SpanDone(sp Span) {
	if t == nil {
		return
	}
	t.Emit(Event{T: sp.Done, Kind: KindSpan, Span: &sp})
}

// DecisionRecordDone records one scheduler decision round captured by
// the flight recorder. The record is owned by the recorder and immutable
// once emitted, so the event aliases it without copying.
func (t *Tracer) DecisionRecordDone(rec *DecisionRecord) {
	if t == nil || rec == nil {
		return
	}
	t.Emit(Event{T: rec.T, Kind: KindDecisionRecord, Flight: rec})
}

// ReqSpanDone records one served request's wall-clock lifecycle. The
// event's T field stays zero: request spans live on the wall clock (the
// span's own Start stamp), not the engine's virtual clock.
func (t *Tracer) ReqSpanDone(rs ReqSpan) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KindReqSpan, Req: &rs})
}
