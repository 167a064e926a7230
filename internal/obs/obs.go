// Package obs is the observability layer of the reproduction: a registry
// of named counters/gauges/histograms with atomic updates and a
// Prometheus-style text exposition, plus a virtual-clock-stamped
// structured event tracer that streams JSONL to a sink. The trace file is
// the one record of a run: nothing here keeps a copy of the events in
// memory, and tools read the file back through ScanTrace.
//
// The engine's behaviour is driven by internal state — the workload
// throughput metric U_t, the aged U_e, the adaptive α, gating admissions,
// cache and disk interactions — that end-of-run aggregates cannot
// explain. This package captures those decisions as they happen so that
// tools (cmd/jawsreport over ScanTrace, cmd/jawsd's /metrics endpoint) can
// reconstruct why a batch was chosen and where time went.
//
// Zero-overhead-when-disabled contract: every update method on *Counter,
// *Gauge, *Histogram, *Registry and *Tracer is nil-safe — calling
// it on a nil receiver returns immediately. Instrumented hot paths hold
// possibly-nil pointers and never need to branch on a config flag, so a
// disabled run costs one nil check per instrumentation point.
package obs

// Obs bundles the observability facilities a component may be handed.
// A nil *Obs (and nil fields) disables everything.
type Obs struct {
	// Trace receives structured events; nil disables tracing.
	Trace *Tracer
	// Reg receives counter/gauge/histogram updates; nil disables metrics.
	Reg *Registry
	// Spans collects completed query-lifecycle spans; nil disables
	// collection (spans are still emitted as trace events when Trace is
	// configured).
	Spans *SpanAgg
	// Flight records scheduler decision rounds; nil disables the flight
	// recorder (and keeps the scheduler decision path zero-alloc).
	Flight *FlightRecorder
}
