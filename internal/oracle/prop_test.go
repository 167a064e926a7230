package oracle

import (
	"math/rand"
	"testing"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/oracle/difftest"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// The quickcheck-style differential property: over byte op logs of
// enqueue/decision/α-update operations, the production schedulers'
// incremental structures (step buckets, memoized utilities, the
// zero-alloc decision path) must return byte-identical batch decisions,
// utilities and deadline verdicts vs the naive rescan reference models.
// Where the capture harness (harness.go) records what a real engine run
// happens to do, the op logs explore the op space directly — decisions on
// empty queues, residency snapshots that flip between consecutive
// decisions, blocked and releasing queries side by side on one atom,
// α-controller reports mid-stream — the corners an engine-driven trace
// rarely reaches.

var propCost = sched.CostModel{Tb: 41 * time.Millisecond, Tm: 20 * time.Microsecond}

// universe bounds what an op log's enqueues draw: time steps, atoms per
// axis of a 128³ grid in 32³ atoms, and positions per sub-query.
type universe struct{ steps, side, points int }

// universes is indexed by a log's head byte mod 2: the default, and a
// high-contention one that piles every sub-query into a handful of queues
// — constant queue membership churn, many exact utility ties.
var universes = [2]universe{{3, 3, 200}, {1, 2, 40}}

// genSub builds one pre-processed sub-query of n positions inside atom
// (i,j,k) of step, arriving at the given virtual time (the QoS deadline
// anchor).
func genSub(qid query.ID, step int, i, j, k uint32, n int, arrival time.Duration) *query.SubQuery {
	s := geom.Space{GridSide: 128, AtomSide: 32}
	atomLen := float64(s.AtomSide) * s.VoxelSize()
	pts := make([]geom.Position, n)
	for p := 0; p < n; p++ {
		frac := (float64(p) + 0.5) / float64(n)
		pts[p] = geom.Position{
			X: (float64(i) + frac) * atomLen,
			Y: (float64(j) + 0.5) * atomLen,
			Z: (float64(k) + 0.5) * atomLen,
		}
	}
	q := &query.Query{ID: qid, Step: step, Points: pts, Kernel: field.KernelNone, Arrival: arrival}
	sqs, err := query.PreProcess(q, s)
	if err != nil || len(sqs) != 1 {
		panic("oracle: genSub positions spilled atoms")
	}
	return sqs[0]
}

// schedTargets reads the targets' parameters from a log's header: the α
// grid and batch sizes vary so tie-break, truncation, memoized-U_t argmax
// (LifeRaft at α = 0) and adaptive-controller paths are all covered, and
// every tail-policy configuration plus the QoS decorator replays each log
// alongside the base algorithms — twelve targets.
func schedTargets(l *difftest.Log) []Target {
	tenths := func() float64 { return float64(l.Intn(11)) / 10 }
	lrAlpha := Params{Cost: propCost, Alpha: tenths()}
	lrZero := Params{Cost: propCost, Alpha: 0} // the argmax over memoized U_t
	jaws := Params{Cost: propCost, BatchSize: 1 + l.Intn(4), Alpha: tenths(), Adaptive: l.Intn(2) == 0}
	targets := []Target{
		StandardTarget(AlgoNoShare, Params{}),
		StandardTarget(AlgoLifeRaft, lrAlpha),
		StandardTarget(AlgoLifeRaft, lrZero),
		StandardTarget(AlgoJAWS, jaws),
	}
	// The tail policies, singly and stacked. The adaptive-batch bounds are
	// tight (min 1–2, max ≤ 6) so the logs actually drive k into both
	// rails.
	gate := &sched.GateAwareParams{Discount: 0.25 + float64(0.05*float64(l.Intn(4))), Boost: 1.5 + float64(l.Intn(3))}
	xstep := &sched.CrossStepParams{Span: 2 + l.Intn(3)}
	adapt := &sched.AdaptiveBatchParams{
		Min: 1 + l.Intn(2), Max: 3 + l.Intn(4),
		Grow: 1 + l.Intn(2), Shrink: 1,
		Full: 1 + l.Intn(2), Idle: 1 + l.Intn(3),
	}
	for _, spec := range []sched.PolicySpec{
		{GateAware: gate},
		{CrossStep: xstep},
		{AdaptiveBatch: adapt},
		{GateAware: gate, CrossStep: xstep},
		{GateAware: gate, CrossStep: xstep, AdaptiveBatch: adapt},
	} {
		p := jaws
		p.Policy = spec
		targets = append(targets, StandardTarget(AlgoJAWS, p))
	}
	// QoS in both regimes: a small stretch keeps deadlines inside the
	// horizon (urgent EDF path), a huge stretch with a tiny horizon never
	// finds one urgent (fallthrough through the QoS bookkeeping) — and
	// composed with gate-aware scoring and adaptive batch sizing, under a
	// stretch and horizon that interleave urgent rounds with two-level ones.
	urgent, never, composed := jaws, jaws, jaws
	urgent.QoSStretch, urgent.QoSHorizon = 1+float64(l.Intn(8)), time.Duration(l.Intn(3)+1)*time.Second
	never.QoSStretch, never.QoSHorizon = 1e9, time.Nanosecond
	composed.Policy = sched.PolicySpec{GateAware: gate, AdaptiveBatch: adapt}
	composed.QoSStretch, composed.QoSHorizon = 3+float64(l.Intn(3)), 5*time.Millisecond
	return append(targets,
		StandardTarget(AlgoJAWS, urgent),
		StandardTarget(AlgoJAWS, never),
		StandardTarget(AlgoJAWS, composed),
	)
}

// opDecoder reads a log's ops. Each takes a kind byte — 55 % enqueues,
// 30 % decisions, 15 % run ends — and a byte that advances virtual time
// by 1–5 ms.
type opDecoder struct {
	l   *difftest.Log
	u   universe
	now time.Duration
	qid query.ID
	// seen lists every atom an enqueue has touched, in first-contact
	// order: the pool residency snapshots draw from. NextBatch consults
	// residency only for queued atoms.
	seen   []store.AtomID
	inSeen map[store.AtomID]bool
}

// newOpDecoder reads the universe byte of l's header.
func newOpDecoder(l *difftest.Log) *opDecoder {
	return &opDecoder{l: l, u: universes[l.Byte()%2], qid: 1, inSeen: make(map[store.AtomID]bool)}
}

func (d *opDecoder) next() Op {
	l := d.l
	kind := l.Byte()
	d.now += time.Duration(l.Intn(5)+1) * time.Millisecond
	switch {
	case kind < 141:
		// A query of one sub-query: step, atom, positions, then its gate
		// state, which holds while it is pending (sched.GateAware). Blocked
		// (2 in 10) and releasing (1 in 10) queries are far denser than in
		// an engine run, so the gate-aware counts are exercised hard.
		sq := genSub(d.qid, l.Intn(d.u.steps),
			uint32(l.Intn(d.u.side)), uint32(l.Intn(d.u.side)), uint32(l.Intn(d.u.side)),
			l.Intn(d.u.points)+1, d.now)
		d.qid++
		if !d.inSeen[sq.Atom] {
			d.inSeen[sq.Atom] = true
			d.seen = append(d.seen, sq.Atom)
		}
		gate := sched.GateFree
		switch g := l.Intn(10); {
		case g < 2:
			gate = sched.GateBlocked
		case g < 3:
			gate = sched.GateReleasing
		}
		return Op{Kind: OpEnqueue, Now: d.now, Sub: sq, Gate: gate}
	case kind < 218:
		// A fresh snapshot per decision, from a density byte and a salt
		// byte: a fifth of them see nothing resident, the rest each seen
		// atom whose hash with the salt falls below the density — from
		// all-miss to mostly resident, so the φ(i) term flips between
		// decisions (the memo-invalidation path under test).
		density, salt := l.Byte(), uint32(l.Byte())
		var snap map[store.AtomID]bool
		if density > 51 {
			snap = make(map[store.AtomID]bool, len(d.seen))
			for i, id := range d.seen {
				if byte((salt<<8|uint32(i))*0x9E3779B1>>24) < density {
					snap[id] = true
				}
			}
		}
		return Op{Kind: OpDecision, Now: d.now, Resident: snap}
	default:
		// float64(…) rounds the quotient first: x/128 compiles to a product,
		// which an architecture may otherwise fuse with the add (make
		// check-fma).
		return Op{Kind: OpRunEnd, RT: float64(float64(l.Byte())/128) + 0.01, TP: float64(float64(l.Byte())/5) + 1}
	}
}

// replaySched is the scheduler pair's decoder: l's header picks the
// universe and the twelve targets' parameters, then each op is stepped
// through one schedPair per target, and the first divergence fails t,
// naming its target and op.
func replaySched(t difftest.TB, l *difftest.Log) {
	t.Helper()
	ops := newOpDecoder(l)
	var pairs []*schedPair
	for _, tgt := range schedTargets(l) {
		pairs = append(pairs, newSchedPair(tgt))
	}
	for l.More() {
		op := ops.next()
		for _, p := range pairs {
			if d := p.step(op); d != nil {
				t.Fatalf("%v", d)
			}
		}
	}
}

func TestRandomOpLogsDifferential(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	difftest.Seeds(t, difftest.Gen{First: 1, N: seeds, Head: []byte{0}, Min: 2400, Span: 200}, replaySched)
}

// The high-contention universe: one step, eight atoms, small queries.
func TestRandomOpLogsHighContention(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 4
	}
	difftest.Seeds(t, difftest.Gen{First: 100, N: seeds, Head: []byte{1}, Min: 1800, Span: 100}, replaySched)
}

// The seeds are the shrunk logs that caught an urgent horizon read as
// open (< for <=) and a query served at its deadline counted as a miss.
func FuzzSchedOps(f *testing.F) {
	f.Add([]byte{0x0, 0xc8, 0x59, 0x96, 0x37, 0x33, 0xb8, 0xa6, 0xfb, 0x1c, 0x29, 0xa0, 0xca, 0xc8, 0xf6, 0x72, 0x61, 0x5, 0x5f, 0xaa, 0x92, 0xfd, 0xd9, 0xe3, 0x55, 0x8e, 0xce, 0xb7, 0xa3, 0xa6, 0xb2, 0x54, 0x73, 0xf6, 0x32, 0x6c, 0xb9, 0x24, 0xfd, 0x69, 0xef, 0x3f, 0xea, 0xda, 0xe9, 0xc6, 0xec, 0x4f, 0x82, 0x32, 0xc7, 0xf2, 0xde, 0xde, 0x7, 0xd, 0xa8, 0xd5, 0xe0, 0xfa, 0x11, 0xe0, 0x1d, 0xeb, 0x5, 0x5, 0xea, 0xd8, 0x1c, 0xa1, 0x9d, 0xd6, 0xc7, 0x12, 0x97, 0x65, 0x10, 0xf, 0x9, 0x36, 0xb7, 0x86, 0xd1, 0xac, 0xbc, 0xd4, 0x2, 0xbd, 0x9, 0x12, 0xc0, 0x17, 0x73, 0xfa, 0xdc, 0x35, 0x3d, 0x7d, 0xf6, 0x33, 0x92, 0x64, 0xc6, 0xd0, 0x99, 0x7f, 0xf5, 0x70, 0x5e, 0x5d, 0x12, 0xf6, 0x19, 0xcd, 0xab, 0xd, 0xd0, 0x46, 0x76, 0x2c, 0x56, 0xbf, 0x62, 0x1c, 0x3b, 0x14, 0x67, 0x0, 0x59, 0xd1, 0x16, 0x7, 0x10, 0x46, 0xae, 0x90, 0x20, 0x5a, 0x47, 0x76, 0x2, 0x3c, 0xfd, 0x73, 0xe, 0xdc, 0xc, 0xfc, 0xba, 0xc, 0x25, 0x38, 0x5c, 0xbe, 0x6d, 0x23, 0xec, 0xf1, 0x1, 0x7e, 0x6f, 0x62, 0xbc, 0x1f, 0x74, 0x61, 0xd8, 0xb3, 0x6e, 0x97, 0x1e, 0xba, 0x64, 0x3e, 0xec, 0x34, 0xe9, 0x70, 0x80, 0xd1, 0x54, 0x84, 0xa0, 0x1b, 0x2d, 0x11, 0xa3, 0x3d, 0x95, 0xe, 0x41, 0xd8, 0xbe, 0xb1, 0x69, 0xf6, 0xb0, 0xd8, 0xaa, 0x68, 0x4f, 0x2d, 0xf7, 0xba, 0x51, 0x9d, 0x7e, 0xaa, 0xae, 0x2f, 0xd8, 0xc8, 0x34, 0xfe, 0x7d, 0xbb, 0x5, 0x98, 0xc8, 0xaf, 0x6e, 0xbd, 0xf3, 0x90, 0x22, 0xc5, 0xee, 0x5c, 0xd2, 0x54, 0xbc, 0xff, 0xc5, 0xe, 0x12, 0x86, 0x61, 0xe5, 0x4a, 0x9e, 0x23, 0x2e, 0x1b, 0xca, 0x8b, 0x81, 0x66, 0x90, 0x9c, 0x34, 0xb7, 0x7c, 0x3c, 0x38, 0xcd, 0x7a, 0xcc, 0x2, 0xd3, 0x72, 0x48, 0xc, 0xa9, 0xdc, 0xfe, 0x1, 0x5e, 0xd1, 0x14, 0xd7, 0xec, 0xbe, 0x6a, 0x9d, 0x4e, 0x14, 0x69, 0xa7, 0xbe, 0x5e, 0x7, 0x5c, 0x9d, 0x83, 0x73, 0x2, 0xa7, 0xc7, 0x2f, 0xce, 0x89, 0xb5, 0xfb, 0x12, 0xd6, 0x57, 0x70, 0x6a, 0xa2, 0x68, 0xdc, 0xff, 0xe1, 0xec, 0xde, 0xb8, 0x2e, 0x84, 0x86, 0xcc, 0x94, 0xcb, 0x63, 0x12, 0xf1, 0xde, 0xeb, 0x6e, 0x97, 0x30, 0x51, 0x4b, 0x71, 0x57, 0x2f, 0xaf, 0x62, 0x52, 0x7, 0x1e, 0x84, 0xe2, 0x14, 0x4f, 0x1c, 0x1b, 0xaf, 0xe8, 0x89, 0xea, 0xc9, 0x18, 0xd2, 0x87, 0xdb, 0x45, 0x89, 0xef, 0x9c, 0xac, 0x14, 0xa, 0xe0, 0x2f, 0x57, 0xd3, 0x52, 0xe6, 0xa0, 0xd, 0x35, 0xf4, 0x44, 0x42, 0xd5, 0xf2, 0x19, 0xe5, 0x57, 0xed, 0x19, 0xe8, 0xc0, 0x88, 0xc, 0x92, 0x6, 0xa8, 0x92, 0x80, 0x37, 0x1a, 0xc1, 0x11, 0x99})
	f.Add([]byte{0x0, 0x6f, 0x31, 0x44, 0xc0, 0xaa, 0x4c, 0xed, 0x56, 0xdb, 0xd9, 0x67, 0xdc, 0x28, 0x97, 0x80, 0x6a, 0xf3, 0xbe, 0xd8, 0xa6, 0x3a, 0xca, 0x16, 0xe1, 0x8b, 0x68, 0x6b, 0x21, 0xb8, 0x23, 0x6a, 0x37, 0xf8, 0x28, 0x3e, 0xfb, 0x27, 0x36, 0x7f, 0x6e, 0xe3, 0x54, 0x37, 0x86, 0x9c, 0x40, 0x43, 0x72, 0x5d, 0xa2, 0xc6, 0x3b, 0x1, 0xaf, 0xf6, 0xf3, 0xfb, 0x2e, 0x59, 0x4, 0x8c, 0xa9, 0x3e, 0x90, 0x57, 0x7, 0x5a, 0x60, 0xa, 0x51, 0x9d, 0x1, 0xc9, 0x4b, 0x53, 0x81, 0xb1, 0xcd, 0xaa, 0x8b, 0xaa, 0x47, 0x2e, 0xc, 0x89, 0x5d, 0x5c, 0x54, 0xf6, 0xa, 0xe, 0x18, 0x8, 0xde, 0xc2, 0xa3, 0x6f, 0x3c, 0x25, 0xc7, 0x77})
	f.Fuzz(func(t *testing.T, data []byte) {
		replaySched(t, difftest.NewLog(data[:min(len(data), 4096)])) // twelve targets per op: bound the log
	})
}

// wrongUtilitySched delegates decisions to a healthy LifeRaft but lies
// about utilities: the self-test that the per-decision utility
// comparison actually fires (a decisions-only diff would stay green).
type wrongUtilitySched struct {
	*sched.LifeRaft
}

func (s *wrongUtilitySched) AtomUtility(id store.AtomID) float64 {
	return s.LifeRaft.AtomUtility(id) * 2
}

func TestUtilityMismatchCaught(t *testing.T) {
	p := Params{Cost: propCost, Alpha: 0.3}
	buggy := Target{
		Name: "LifeRaft(2×-utility bug)",
		New: func(resident func(store.AtomID) bool) sched.Scheduler {
			return &wrongUtilitySched{sched.NewLifeRaft(p.Cost, p.Alpha, resident)}
		},
		NewModel: func() Model { return NewModel(AlgoLifeRaft, p) },
	}
	// A byte log of about 120 ops in the default universe, decoded whole.
	data := make([]byte, 750)
	rand.New(rand.NewSource(7)).Read(data)
	data[0] = 0
	l := difftest.NewLog(data)
	ops := newOpDecoder(l)
	schedTargets(l) // the header's targets; this test plants its own
	log := &OpLog{}
	for l.More() {
		log.Ops = append(log.Ops, ops.next())
	}
	d := Diff(buggy, log)
	if d == nil {
		t.Fatal("utility comparison did not catch a scheduler reporting doubled utilities")
	}
	if d.Kind != "utility-mismatch" {
		t.Fatalf("divergence kind = %q, want utility-mismatch (detail: %s)", d.Kind, d.Detail)
	}
	min := Shrink(buggy, log)
	if Diff(buggy, min) == nil {
		t.Fatal("shrunk log no longer reproduces the utility divergence")
	}
	// Utilities are compared after the decision removes its pick, so the
	// minimum is two enqueues (one survives the take) plus the decision.
	if len(min.Ops) > 3 {
		t.Errorf("minimal reproducer has %d ops, want ≤ 3:\n%s", len(min.Ops), FormatOps(min))
	}
}
