package oracle

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// The random op-log generator: seeded synthetic scheduler interactions
// for quickcheck-style differential testing. Where the capture harness
// (harness.go) records what a real engine run happens to do, GenLog
// explores the op space directly — decisions on empty queues, residency
// snapshots that flip between consecutive decisions, blocked and
// releasing queries side by side on one atom, α-controller reports
// mid-stream — the corners an engine-driven trace rarely reaches. A
// generated log carries no recorded answers; Diff replays it through the
// production scheduler and the reference model side by side.

// genSpace is the tiny universe random logs draw from: a 128³ grid in
// 32³ atoms (4 per axis), small enough that random enqueues collide into
// genuinely contended queues.
func genSpace() geom.Space { return geom.Space{GridSide: 128, AtomSide: 32} }

// genSub builds one pre-processed sub-query of n positions inside atom
// (i,j,k) of step, arriving at the given virtual time (the QoS deadline
// anchor).
func genSub(qid query.ID, step int, i, j, k uint32, n int, arrival time.Duration) *query.SubQuery {
	s := genSpace()
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
	if err != nil {
		panic(err)
	}
	if len(sqs) != 1 {
		panic("oracle: genSub positions spilled atoms")
	}
	return sqs[0]
}

// GenConfig sizes a random op log. The zero value is a sensible default.
type GenConfig struct {
	// Ops is the log length; zero means 400.
	Ops int
	// Steps bounds the time-step universe; zero means 3.
	Steps int
	// AtomSide bounds each per-axis atom coordinate; zero means 3.
	AtomSide int
	// MaxPoints bounds a sub-query's position count; zero means 200.
	MaxPoints int
}

// GenLog generates a seeded random scheduler op log: weighted enqueues,
// decisions under fresh random residency snapshots, and run-end reports
// that drive the adaptive α controller. The same seed always yields the
// same log, so a failing seed is a complete reproducer.
func GenLog(seed int64, cfg GenConfig) *OpLog {
	if cfg.Ops == 0 {
		cfg.Ops = 400
	}
	if cfg.Steps == 0 {
		cfg.Steps = 3
	}
	if cfg.AtomSide == 0 {
		cfg.AtomSide = 3
	}
	if cfg.MaxPoints == 0 {
		cfg.MaxPoints = 200
	}
	rng := rand.New(rand.NewSource(seed))
	log := &OpLog{}
	now := time.Duration(0)
	qid := query.ID(1)
	// seen accumulates every atom an enqueue has touched, in first-contact
	// order: the pool residency snapshots draw from. NextBatch consults
	// residency only for queued atoms, so the pool never needs to cover
	// atoms no sub-query reached.
	var seen []store.AtomID
	inSeen := make(map[store.AtomID]bool)

	for len(log.Ops) < cfg.Ops {
		now += time.Duration(rng.Intn(5)+1) * time.Millisecond
		switch r := rng.Intn(100); {
		case r < 55 || len(seen) == 0:
			sq := genSub(qid, rng.Intn(cfg.Steps),
				uint32(rng.Intn(cfg.AtomSide)), uint32(rng.Intn(cfg.AtomSide)), uint32(rng.Intn(cfg.AtomSide)),
				rng.Intn(cfg.MaxPoints)+1, now)
			qid++
			if !inSeen[sq.Atom] {
				inSeen[sq.Atom] = true
				seen = append(seen, sq.Atom)
			}
			// Each sub-query is a query of its own, enqueued once: its gate
			// state is drawn here and holds while it is pending, the
			// contract of sched.GateAware. Blocked and releasing queries are
			// far denser than in an engine run (where BlockedBy is
			// transient), so the gate-aware counts are exercised hard; a
			// target without a gate-aware clause never reads the state.
			gate := sched.GateFree
			switch g := rng.Intn(10); {
			case g < 2:
				gate = sched.GateBlocked
			case g < 3:
				gate = sched.GateReleasing
			}
			log.Ops = append(log.Ops, Op{Kind: OpEnqueue, Now: now, Sub: sq, Gate: gate})
		case r < 85:
			// A fresh snapshot per decision: density varies from all-miss to
			// mostly-resident so the φ(i) term flips between decisions (the
			// memo-invalidation path under test).
			var snap map[store.AtomID]bool
			if density := rng.Float64(); density > 0.2 {
				snap = make(map[store.AtomID]bool, len(seen))
				for _, id := range seen {
					if rng.Float64() < density {
						snap[id] = true
					}
				}
			}
			log.Ops = append(log.Ops, Op{Kind: OpDecision, Now: now, Resident: snap})
		default:
			log.Ops = append(log.Ops, Op{
				Kind: OpRunEnd,
				RT:   float64(float64(rng.Float64())*2) + 0.01,
				TP:   float64(rng.Float64()*50) + 1,
			})
		}
	}
	return log
}

// FormatOps renders an op log compactly, one op per line — the shape a
// shrunk reproducer is reported in.
func FormatOps(log *OpLog) string {
	var b strings.Builder
	for i, op := range log.Ops {
		switch op.Kind {
		case OpEnqueue:
			fmt.Fprintf(&b, "%3d: enq   q%d s%d/a%d ×%d @%v gate=%d\n",
				i, op.Sub.Query.ID, op.Sub.Atom.Step, op.Sub.Atom.Code, len(op.Sub.Index), op.Now, op.Gate)
		case OpDecision:
			fmt.Fprintf(&b, "%3d: dec   @%v resident=%d\n", i, op.Now, len(op.Resident))
		case OpRunEnd:
			fmt.Fprintf(&b, "%3d: run   rt=%g tp=%g\n", i, op.RT, op.TP)
		}
	}
	return b.String()
}
